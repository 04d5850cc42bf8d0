"""Command-line interface.

Subcommands::

    permsig power  --data X.csv [flags]      significance of a labeled effect
    permsig type1  --data X.csv [flags]      family-wise error on one-condition data
    permsig alt    --data X.csv [flags]      either study, extractor fitted once
    permsig bound  --n 417 --d 1 --eta 0.05  print both deviation bounds
    permsig synth  --n-per-class 100 ...     write a synthetic CSV dataset

Study settings may come from ``--config FILE`` (JSON); explicit flags
override config values, and the master seed falls back to the
``PERMSIG_SEED`` environment variable.  Reports are never overwritten:
an existing output path gets a numeric suffix unless ``--force`` is
given, and a study's report and its ``_hist.csv`` take the first
suffix at which both names are free.  An output path must end in a file
name, not in a separator, ``.`` or ``..``.  Exit codes: 0 success, 2
configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict
from itertools import chain, count

from .autoenc import AeArchitecture
from .bounds import BoundSpec, empirical_bound, vapnik_bound
from .dataset import Dataset, load_csv, save_csv, synth_effect
from .errors import ConfigError, FitError, check
from .permtest import StudySettings, alt_scheme_study, power_study, type1_study
from .pipeline import PipelineSpec
from .rng import PermutationPlan
from .validate import Scheme

_STUDIES = {"power": power_study, "type1": type1_study, "alt": alt_scheme_study}

# The keys of each config object, by the path prefix that names them.
_KEYS = {
    "": ("study", "data", "pipeline", "scheme", "k", "m", "alpha", "eta", "seed", "workers", "out"),
    "data.": ("csv", "label_column", "synth"),
    "data.synth.": ("n_per_class", "dim", "effect", "classes"),
    "pipeline.": ("ae", "reducer", "pca_components", "svm_c", "region_blocks"),
    "pipeline.ae.": ("widths", "activation", "output_activation", "epochs", "learning_rate",
                     "batch_size", "validation_fraction"),
}
_SETTINGS = ("scheme", "m", "k", "alpha", "eta", "seed", "workers")
# Config keys whose field in the library has another name.
_FIELD = {"seed": "master_seed", "widths": "layer_widths_encoder"}
_KEY = {field: key for key, field in _FIELD.items()}


@contextmanager
def _config_path(prefix: str, other: str | None = None):
    """Re-raise a ``ConfigError`` under the field's config path; with
    ``other``, also re-raise any other ``ValueError`` or ``OSError`` there."""
    try:
        yield
    except ConfigError as exc:
        path = ".".join(_KEY.get(key, key) for key in exc.field.split("."))
        raise ConfigError(prefix + path, exc.message) from None
    except (ValueError, OSError) as exc:
        if other is None:
            raise
        raise ConfigError(other, str(exc)) from None


def _object(value, prefix: str) -> dict:
    """The config object at ``prefix``, checked for unknown keys; a null
    value counts as absent, at every level."""
    value = {} if value is None else value
    check(isinstance(value, dict), prefix.rstrip(".") or "config", "must be an object")
    for key in value:
        check(key in _KEYS[prefix], prefix + key, "unknown key")
    return {key: v for key, v in value.items() if v is not None}


def _load_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError("config", f"file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON: {exc}") from None
    except (OSError, UnicodeDecodeError) as exc:  # a directory, unreadable, not UTF-8
        raise ConfigError("config", f"cannot read {path}: {exc}") from None


def _seed(flag: int | None, doc: dict):
    """The master seed: the flag, else the config, else ``PERMSIG_SEED``, else 0."""
    if flag is not None:
        return flag
    if "seed" in doc:
        return doc["seed"]
    try:
        return int(os.environ.get("PERMSIG_SEED") or 0)
    except ValueError:
        raise ConfigError("seed", "PERMSIG_SEED must be an integer") from None


def _resolve_config(
    args: argparse.Namespace,
) -> tuple[dict, StudySettings, Dataset, PipelineSpec]:
    """Merge the config file and the flags (flags win), and build the study.

    Returns the merged document, the settings, the dataset and the
    pipeline.  The objects check their own fields; their errors are
    re-raised under the field's config path.
    """
    doc = _object(_load_config_file(args.config) if args.config else {}, "")
    check(doc.get("study", args.study) == args.study, "study", f"must be {args.study!r} or absent")
    doc["data"] = data = _object(doc.get("data"), "data.")
    if "synth" in data:
        data["synth"] = _object(data["synth"], "data.synth.")
    pipe = _object(doc.get("pipeline"), "pipeline.")
    if "ae" in pipe:
        pipe["ae"] = _object(pipe["ae"], "pipeline.ae.")
    for name in ("scheme", "k", "m", "alpha", "eta", "workers", "out"):
        if getattr(args, name) is not None:
            doc[name] = getattr(args, name)
    doc["seed"] = _seed(args.seed, doc)
    if args.data is not None:
        data["csv"] = args.data
    if args.label_column is not None:
        data["label_column"] = args.label_column
    check(doc.get("out") is None or isinstance(doc["out"], str), "out", "must be a path string")

    with _config_path(""):
        settings = StudySettings(**{_FIELD.get(k, k): doc[k] for k in _SETTINGS if k in doc})
    d = _dataset_from(data, settings.master_seed)
    spec = _pipeline_from(pipe, args.study, settings.scheme, d)
    return doc, settings, d, spec


def _dataset_from(data: dict, seed: int) -> Dataset:
    csv, synth = data.get("csv"), data.get("synth")
    check((csv is None) != (synth is None), "data",
          "exactly one of data.csv or data.synth is required")
    if csv is not None:
        check(isinstance(csv, str), "data.csv", "must be a path string")
        with _config_path("data.", other="data.csv"):
            return load_csv(csv, data.get("label_column", "label"))
    for key in ("n_per_class", "dim"):
        check(key in synth, f"data.synth.{key}", "is required")
    with _config_path("data.synth.", other="data.synth"):
        return synth_effect(
            synth["n_per_class"],
            synth["dim"],
            synth.get("effect", 0.0),
            PermutationPlan(seed),
            classes=synth.get("classes", 2),
        )


def _resolve_reducer(study: str, scheme: Scheme, class_count: int) -> str:
    """The paper-faithful default: a single supervised component for the
    resubstitution statistics, raw features for k-fold, and an
    unsupervised component when no labels exist outside the loop."""
    if scheme is Scheme.KFOLD:
        return "none"
    if study == "alt" and class_count == 1:
        return "pca"
    return "pls"


def _pipeline_from(pipe: dict, study: str, scheme: Scheme, d: Dataset) -> PipelineSpec:
    """The pipeline, checked against the data's width before the study starts."""
    ae = pipe.get("ae")
    if ae is not None:
        check("widths" in ae, "pipeline.ae.widths", "is required")
        with _config_path("pipeline.ae."):
            ae = AeArchitecture(**{_FIELD.get(k, k): v for k, v in ae.items()})
    reducer = pipe.get("reducer", "auto")
    if reducer == "auto":
        reducer = _resolve_reducer(study, scheme, d.class_count)
    check(not (reducer == "pls" and study == "alt" and d.class_count == 1), "pipeline.reducer",
          "pls cannot be frozen on one-condition data; use 'pca' or 'none'")
    with _config_path("pipeline."):
        spec = PipelineSpec(**{**pipe, "ae": ae, "reducer": reducer})
        spec.resolve_blocks(d.n_features)
    return spec


def _config_echo(
    study: str, data: dict, spec: PipelineSpec, settings: StudySettings, m: int
) -> dict:
    """Resolved config embedded in the report.

    Execution details (worker count, output path) are excluded so that
    reruns with different workers produce byte-identical reports.
    """
    if "csv" in data:
        data = {"csv": data["csv"], "label_column": data.get("label_column", "label")}
    else:
        data = {"synth": data["synth"]}
    pipeline = asdict(spec)
    if spec.ae is not None:
        pipeline["ae"]["widths"] = pipeline["ae"].pop("layer_widths_encoder")
    return {
        "study": study,
        "data": data,
        "pipeline": pipeline,
        "scheme": settings.scheme.value,
        "k": settings.k,
        "m": m,
        "alpha": settings.alpha,
        "eta": settings.eta,
        "seed": settings.master_seed,
    }


def _free_path(path: str, force: bool, sidecar: str = "") -> str:
    """``path``, or the first ``stem-i.ext`` of it at which it and its
    ``stem-i + sidecar`` (when given) are both free; with ``force``,
    ``path`` itself, provided neither name is a directory."""
    check(path != "", "out", "must not be empty")
    check(os.path.basename(path) not in ("", ".", ".."), "out", f"must end in a file name: {path}")
    folder = os.path.dirname(path) or "."
    check(os.path.isdir(folder), "out", f"directory not found: {folder}")
    stem, ext = os.path.splitext(path)
    tails = (ext, sidecar) if sidecar else (ext,)
    if force:
        for tail in tails:
            check(not os.path.isdir(stem + tail), "out", f"is a directory: {stem + tail}")
        return path
    stems = (stem + suffix for suffix in chain([""], (f"-{i}" for i in count(1))))
    return next(s for s in stems if not any(os.path.exists(s + tail) for tail in tails)) + ext


def _json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _write(path: str, text: str) -> None:
    """Write ``text`` to ``path``; an error writing it names ``out``."""
    with _config_path("", other="out"), open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _run_study(args: argparse.Namespace) -> int:
    doc, settings, data, spec = _resolve_config(args)
    json_path = _free_path(doc.get("out", f"{args.study}_report.json"), args.force, "_hist.csv")
    csv_path = f"{os.path.splitext(json_path)[0]}_hist.csv"
    try:
        report = _STUDIES[args.study](spec, data, settings)
    except ValueError as exc:  # data the study cannot use; the bound's errors name their field
        message = f"{exc.field} {exc.message}" if isinstance(exc, ConfigError) else str(exc)
        raise ConfigError("data", message) from None
    echo = _config_echo(args.study, doc["data"], spec, settings, report.m)
    _write(json_path, _json(report.to_json_dict(echo)))
    _write(csv_path, "bin_left,bin_right,count\n" + "".join(
        f"{left!r},{right!r},{count}\n" for left, right, count in report.histogram_csv_rows()))
    if report.p_value is not None:
        summary = f"p={report.p_value:.4f} [{report.p_value_sd:.4f}]"
        verdict = "reject H0" if report.p_value <= report.alpha else "keep H0"
        summary += f" alpha={report.alpha:g} ({verdict})"
    else:
        summary = f"fwe={report.fwe_rate:.4f} [{report.fwe_rate_sd:.4f}] alpha={report.alpha:g}"
    print(f"{args.study} {report.scheme.value} m={report.m}: {summary} -> {json_path}")
    return 0


def _run_bound(args: argparse.Namespace) -> int:
    with _config_path(""):
        spec = BoundSpec(args.n, args.d, args.eta)
    emp = empirical_bound(spec)
    vap = vapnik_bound(spec)
    path = None if args.out is None else _free_path(args.out, args.force)
    print(f"empirical={emp:.4f} vapnik={vap:.4f} (n={spec.n} d={spec.d} eta={spec.eta:g})")
    if path is not None:
        _write(path, _json({"n": spec.n, "d": spec.d, "eta": spec.eta, "empirical": emp,
                            "vapnik": vap}))
    return 0


def _run_synth(args: argparse.Namespace) -> int:
    with _config_path("", other="synth"):
        d = synth_effect(
            args.n_per_class,
            args.dim,
            args.effect,
            PermutationPlan(_seed(args.seed, {})),
            classes=args.classes,
        )
    path = _free_path(args.out, args.force)
    with _config_path("", other="out"):
        save_csv(d, path)
    print(f"synth classes={d.class_count} n={d.n} dim={d.n_features} effect={args.effect:g} -> {path}")
    return 0


def _add_study_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--data", help="CSV dataset path")
    p.add_argument("--label-column", dest="label_column", help="label column name (default: label)")
    p.add_argument("--scheme", choices=["kfold", "resub", "rub"], help="error statistic")
    p.add_argument("--k", type=int, help="fold count for kfold (default: 10)")
    p.add_argument("--m", type=int, help="permutation replicates (default: 1000, kfold: 100)")
    p.add_argument("--alpha", type=float, help="significance level (default: 0.05)")
    p.add_argument("--eta", type=float, help="bound confidence parameter (default: 0.05)")
    p.add_argument("--seed", type=int, help="master seed (default: $PERMSIG_SEED or 0)")
    p.add_argument("--workers", type=int, help="parallel workers (default: 1)")
    p.add_argument("--out", help="report path (default: <study>_report.json)")
    p.add_argument("--force", action="store_true", help="overwrite existing outputs")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permsig",
        description="Permutation significance tests for learning pipelines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for study in ("power", "type1", "alt"):
        p = sub.add_parser(study, help=f"run the {study} study")
        _add_study_flags(p)
        p.set_defaults(func=_run_study, study=study)

    pb = sub.add_parser("bound", help="print both deviation bounds")
    pb.add_argument("--n", type=int, required=True, help="training-set size")
    pb.add_argument("--d", type=int, required=True, help="classifier input dimension")
    pb.add_argument("--eta", type=float, default=0.05, help="confidence parameter")
    pb.add_argument("--out", help="optional JSON output path")
    pb.add_argument("--force", action="store_true")
    pb.set_defaults(func=_run_bound)

    ps = sub.add_parser("synth", help="write a synthetic CSV dataset")
    ps.add_argument("--n-per-class", dest="n_per_class", type=int, required=True)
    ps.add_argument("--dim", type=int, required=True)
    ps.add_argument("--effect", type=float, default=0.0)
    ps.add_argument("--classes", type=int, default=2)
    ps.add_argument("--seed", type=int, default=None)
    ps.add_argument("--out", required=True, help="CSV output path")
    ps.add_argument("--force", action="store_true")
    ps.set_defaults(func=_run_synth)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FitError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
