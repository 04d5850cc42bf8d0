"""Spans around permsig's layer boundaries, recorded from outside the program.

The program binds most names at import time (``pipeline.py`` imports
``svm_fit`` by name, ``cli._STUDIES`` holds the study functions), so each
wrapper is installed in the namespace the caller looks the name up in, not
only in the defining module.  :data:`BOUNDARIES` lists every such site.

A span's self time is its duration minus the durations of the spans it
directly encloses, so the self times of all spans under a root add up to
the root's duration exactly, however deeply wrappers nest.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

# (span name, module that looks the name up, attribute, defining module)
# ``cls:Name.attr`` patches a method on a class.  The defining module is
# checked so a wrapper never replaces a different function of the same name.
BOUNDARIES = (
    ("cli.main", "permsig.cli", "main", "permsig.cli"),
    ("dataset.load_csv", "permsig.cli", "load_csv", "permsig.dataset"),
    ("permtest.power_study", "permsig.cli", "_STUDIES:power", "permsig.permtest"),
    ("permtest.type1_study", "permsig.cli", "_STUDIES:type1", "permsig.permtest"),
    ("permtest.alt_scheme_study", "permsig.cli", "_STUDIES:alt", "permsig.permtest"),
    ("permtest.null_distribution", "permsig.permtest", "null_distribution", "permsig.permtest"),
    ("bounds.empirical_bound", "permsig.permtest", "empirical_bound", "permsig.bounds"),
    ("dataset.scale_unit_interval", "permsig.permtest", "scale_unit_interval", "permsig.dataset"),
    ("dataset.trim_to_even", "permsig.permtest", "trim_to_even", "permsig.dataset"),
    ("dataset.permute_labels", "permsig.permtest", "permute_labels", "permsig.dataset"),
    ("dataset.split_null_groups", "permsig.permtest", "split_null_groups", "permsig.dataset"),
    ("dataset.shuffle_rows", "permsig.permtest", "shuffle_rows", "permsig.dataset"),
    ("dataset.stratified_folds", "permsig.permtest", "stratified_folds", "permsig.dataset"),
    ("validate.resub_error", "permsig.permtest", "resub_error", "permsig.validate"),
    ("validate.kfold_errors", "permsig.permtest", "kfold_errors", "permsig.validate"),
    ("pipeline.fit_feature_maps", "permsig.permtest", "fit_feature_maps", "permsig.pipeline"),
    ("pipeline.fit", "permsig.pipeline", "cls:PipelineSpec.fit", "permsig.pipeline"),
    ("pipeline.alt_fit", "permsig.pipeline", "cls:AltPipeline.fit", "permsig.pipeline"),
    ("autoenc.ae_fit", "permsig.pipeline", "ae_fit", "permsig.autoenc"),
    ("autoenc.ae_encode", "permsig.pipeline", "ae_encode", "permsig.autoenc"),
    ("dimred.pls1_fit", "permsig.pipeline", "pls1_fit", "permsig.dimred"),
    ("dimred.pca_fit", "permsig.pipeline", "pca_fit", "permsig.dimred"),
    ("dimred.reduce", "permsig.pipeline", "reduce", "permsig.dimred"),
    ("linclass.svm_fit", "permsig.pipeline", "svm_fit", "permsig.linclass"),
    ("linclass.calibrate", "permsig.pipeline", "calibrate", "permsig.linclass"),
)

# Counted, not timed: a span per random stream would cost more than the work.
COUNTERS = (("rng.streams", "permsig.rng", "cls:PermutationPlan.rng", "permsig.rng"),)


@dataclass
class Record:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    durations: list = field(default_factory=list)


class Tracer:
    """Per-name call counts, total and self seconds, and per-call durations.

    ``children[(parent, child)]`` sums the durations of ``child`` spans
    opened directly inside a ``parent`` span.  ``largest_rows`` keeps the
    largest row count of the first argument seen per span name.
    """

    def __init__(self):
        self.records: dict[str, Record] = {}
        self.children: dict[tuple[str, str], float] = {}
        self.counts: dict[str, int] = {}
        self.largest_rows: dict[str, int] = {}
        self._stack: list[list] = []  # [name, seconds of direct children]

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if args and hasattr(args[0], "shape"):
                rows = args[0].shape[0]
                if rows > self.largest_rows.get(name, 0):
                    self.largest_rows[name] = rows
            self._stack.append([name, 0.0])
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                _, inner = self._stack.pop()
                if self._stack:
                    parent = self._stack[-1]
                    parent[1] += duration
                    key = (parent[0], name)
                    self.children[key] = self.children.get(key, 0.0) + duration
                rec = self.records.setdefault(name, Record())
                rec.calls += 1
                rec.total += duration
                rec.self_time += duration - inner
                rec.durations.append(duration)

        return traced

    def counter(self, name: str, fn):
        self.counts.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def to_json(self) -> dict:
        return {
            "records": {
                name: {
                    "calls": r.calls,
                    "s": r.total,
                    "self_s": r.self_time,
                    "durations": r.durations,
                }
                for name, r in self.records.items()
            },
            "children": [[p, c, s] for (p, c), s in self.children.items()],
            "counts": dict(self.counts),
            "largest_rows": dict(self.largest_rows),
        }


def _patch(site: tuple[str, str, str, str], wrap) -> None:
    import importlib

    _, module_name, attr, defining = site
    module = importlib.import_module(module_name)
    if attr.startswith("cls:"):
        cls_name, meth = attr[4:].split(".")
        owner = getattr(module, cls_name)
        original = owner.__dict__[meth]
        _check_origin(original, defining, site)
        setattr(owner, meth, wrap(original))
    elif ":" in attr:
        table_name, key = attr.split(":")
        table = getattr(module, table_name)
        _check_origin(table[key], defining, site)
        table[key] = wrap(table[key])
    else:
        original = getattr(module, attr)
        _check_origin(original, defining, site)
        setattr(module, attr, wrap(original))


def _check_origin(fn, defining: str, site) -> None:
    if getattr(fn, "__module__", None) != defining:
        raise RuntimeError(f"trace site {site} resolves to {fn!r}, not a {defining} function")


def install(tracer: Tracer, only: tuple[str, ...] | None = None) -> None:
    """Wrap every boundary (or just the named ones) for ``tracer``.

    Raises ``RuntimeError`` when a site no longer resolves to the expected
    function, so a rename in the program fails loudly instead of recording
    nothing.
    """
    for site in BOUNDARIES:
        if only is None or site[0] in only:
            _patch(site, lambda fn, name=site[0]: tracer.span(name, fn))
    if only is None:
        for site in COUNTERS:
            _patch(site, lambda fn, name=site[0]: tracer.counter(name, fn))
