"""Permutation significance tests for learning pipelines.

A study compares an observed error statistic against a null
distribution built by refitting the pipeline on label-randomized data:

* :func:`power_study` — labeled data; the observed statistic is the mean
  over several row-shuffled iterations, the null permutes the labels,
  and the one-sided p-value counts null statistics at or below the
  observed one (with the +1 correction, so ``p >= 1 / (M + 1)``).
* :func:`type1_study` — one-condition data; every replicate splits the
  rows into two pseudo-groups, each null statistic is ranked against
  the whole null (self-inclusively), and the family-wise error rate at
  level alpha is reported.
* :func:`alt_scheme_study` — either flavor, but the feature extractor
  and reducer are fitted once on the unrandomized data and only the
  classifier refits inside replicates.

Replicates are independent and own their random streams.  They are
fitted in chunks, each chunk as one batch of label columns over the
shared features, and chunks can run on a process pool.  A chunk holds as
many columns as keep an (R, n, N) float64 array of the data within
:data:`BATCH_BYTES`, and at least :data:`MIN_BATCH`, so the chunks
depend on the replicate count and the data's shape alone, and a study's
memory stays linear in the data.  The observed iterations are split by
the same rule.  A column's arithmetic never mixes with another's, so
results depend neither on the chunking nor on the worker count.  A
replicate whose fit fails is resampled with a fresh sub-stream up to
three times before the study aborts; the report lists every such retry.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .bounds import BoundSpec, empirical_bound
from .dataset import (
    Batch,
    Dataset,
    permute_labels,
    scale_unit_interval,
    shuffle_rows,
    split_null_groups,
    stratified_folds,
    trim_to_even,
)
from .errors import FitError, check, is_int, is_real
from .pipeline import PipelineSpec, fit_feature_maps
from .rng import PermutationPlan
from .validate import Scheme, kfold_errors, resub_error

# Replicate-index spaces for the (master_seed, replicate_index, tag) keying.
# Null replicates live at [0, m); retries stride far above any real m;
# observed iterations and one-off fits use their own reserved ranges.
RETRY_STRIDE = 2**32
OBSERVED_BASE = 2**48
EXTRACTOR_INDEX = 2**49
TRIM_INDEX = 2**49 + 1

MAX_RETRIES = 3

# Columns fitted together as one batch: as many as keep an (R, n, N)
# float64 array of the data within about one L2 cache, and at least
# MIN_BATCH, since each batch has a fixed cost (see _batches).
BATCH_BYTES = 3 << 19
MIN_BATCH = 4

HISTOGRAM_BINS = 30


@dataclass(frozen=True)
class StudySettings:
    """Knobs of a permutation study.

    ``m`` is the number of permutation replicates; ``None`` picks the
    scheme default (1000 for resubstitution-based statistics, 100 for
    k-fold, whose replicates contribute k values each).
    """

    scheme: Scheme = Scheme.RUB
    m: int | None = None
    k: int = 10
    alpha: float = 0.05
    eta: float = 0.05
    master_seed: int = 0
    observed_iterations: int = 20
    workers: int = 1

    def __post_init__(self):
        check(self.scheme in list(Scheme), "scheme", f"unknown scheme {self.scheme!r}")
        object.__setattr__(self, "scheme", Scheme(self.scheme))
        m, k, alpha, eta = self.m, self.k, self.alpha, self.eta
        check(m is None or (is_int(m) and m >= 1), "m", "must be a positive integer")
        check(is_int(k) and k >= 2, "k", "must be an integer >= 2")
        check(is_real(alpha) and 0.0 < alpha <= 1.0, "alpha", "must lie in (0, 1]")
        check(is_real(eta) and 0.0 < eta < 1.0, "eta", "must lie strictly between 0 and 1")
        PermutationPlan(self.master_seed)  # checks the seed's type and range
        for name in ("observed_iterations", "workers"):
            value = getattr(self, name)
            check(is_int(value) and value >= 1, name, "must be a positive integer")

    @property
    def replicates(self) -> int:
        if self.m is not None:
            return self.m
        return 100 if self.scheme is Scheme.KFOLD else 1000


@dataclass(frozen=True)
class NullDistribution:
    """Null statistics and the replicate indices that generated them.

    ``statistics`` holds every null value — ``m`` entries for
    resubstitution schemes, ``m * k`` for k-fold.  ``replicate_indices``
    holds the plan index each replicate actually used, in replicate
    order: a retry shifts it by a large stride, so
    ``PermutationPlan(master_seed, index)`` replays the replicate.
    ``retries`` holds ``(replicate, attempt, message)`` for every failed
    attempt that was retried, in replicate order.
    """

    statistics: tuple[float, ...]
    replicate_indices: tuple[int, ...]
    retries: tuple[tuple[int, int, str], ...] = ()

    @property
    def m(self) -> int:
        return len(self.statistics)


@dataclass(frozen=True)
class StudyReport:
    """Summary of one study, ready for serialization."""

    study: str
    scheme: Scheme
    m: int
    k: int | None
    alpha: float
    eta: float
    mu: float | None
    observed_mean: float | None
    observed_sd: float | None
    null_mean: float
    null_sd: float
    p_value: float | None
    p_value_sd: float | None
    fwe_rate: float | None
    fwe_rate_sd: float | None
    histogram_edges: tuple[float, ...]
    histogram_counts: tuple[int, ...]
    master_seed: int
    replicate_indices: tuple[int, ...]
    retries: tuple[tuple[int, int, str], ...] = ()

    def to_json_dict(self, config: dict | None = None) -> dict:
        doc = {field.name: getattr(self, field.name) for field in fields(self)}
        doc["scheme"] = self.scheme.value
        doc["histogram"] = {"bin_edges": list(doc.pop("histogram_edges")),
                            "counts": list(doc.pop("histogram_counts"))}
        doc["seeds"] = {"master_seed": doc.pop("master_seed"),
                        "replicate_indices": list(doc.pop("replicate_indices"))}
        if doc.pop("retries"):
            doc["retries"] = [
                {"replicate": r, "attempt": attempt, "error": message}
                for r, attempt, message in self.retries
            ]
        if config is not None:
            doc["config"] = config
        return doc

    def histogram_csv_rows(self) -> list[tuple[float, float, int]]:
        edges = self.histogram_edges
        return [
            (edges[i], edges[i + 1], self.histogram_counts[i])
            for i in range(len(self.histogram_counts))
        ]


def p_value(observed: float, null: NullDistribution) -> float:
    """One-sided permutation p-value with the +1 correction.

    Counts null statistics less than or equal to the observed one (ties
    count), adds one to numerator and denominator.  Always at least
    ``1 / (M + 1)``.
    """
    stats = np.asarray(null.statistics)
    if stats.size == 0:
        raise ValueError("null distribution is empty")
    count = int(np.count_nonzero(stats <= observed))
    return (count + 1) / (stats.size + 1)


def mc_stddev(p: float, n: int) -> float:
    """Monte-Carlo standard deviation ``sqrt(p (1 - p) / n)``."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if n < 1:
        raise ValueError("n must be positive")
    return math.sqrt(p * (1.0 - p) / n)


def omnibus_pvalues(null: NullDistribution) -> np.ndarray:
    """Self-inclusive rank p-value of every null statistic.

    ``p_m = card{T <= T_m} / M``; each value is at least ``1 / M`` and
    ties share one p-value.  If all statistics are equal, every p is 1.
    """
    stats = np.asarray(null.statistics)
    if stats.size == 0:
        raise ValueError("null distribution is empty")
    ordered = np.sort(stats)
    return np.searchsorted(ordered, stats, side="right") / stats.size


def fwe_rate(pvalues: np.ndarray, alpha: float) -> float:
    """Fraction of p-values at or below ``alpha``."""
    p = np.asarray(pvalues)
    if p.size == 0:
        raise ValueError("pvalues must be non-empty")
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    return float(np.count_nonzero(p <= alpha) / p.size)


# ---------------------------------------------------------------------------
# Replicate engine


@dataclass
class _ReplicateTask:
    pipeline: object  # a PipelineSpec, or the AltPipeline that fit_feature_maps returns
    data: Dataset
    settings: StudySettings
    mu: float | None


def _statistics(pipeline, batch: Batch, scheme: Scheme, k: int, mu) -> list:
    """The scheme's error values for each column of ``batch``.

    Observed iterations and null replicates both come through here, so
    every null value is computed by the same procedure as the observed
    one: the k per-fold test errors for k-fold, else one resubstitution
    error, plus ``mu`` for the bound-corrected scheme.  The columns are
    fitted together; a column whose fit failed gets its ``FitError``
    instead of values.
    """
    if scheme is Scheme.KFOLD:
        return [out if isinstance(out, FitError) else [e.value for e in out]
                for out in kfold_errors(pipeline, batch, stratified_folds(batch, k))]
    return [out if isinstance(out, FitError)
            else [out.value + mu if scheme is Scheme.RUB else out.value]
            for out in resub_error(pipeline, batch)]


def _chunk_stats(task: _ReplicateTask, replicates: range):
    """Statistics of a chunk of null replicates, and its retries.

    Every replicate draws its labeling from its own plan, and the chunk's
    labelings are one batch over the shared features.  The replicates
    whose fit failed are drawn again from their next plan and fitted
    together, up to ``MAX_RETRIES`` times.
    """
    label = split_null_groups if task.data.class_count == 1 else permute_labels
    settings = task.settings
    results: dict[int, tuple[int, list[float]]] = {}
    retries: list[tuple[int, int, str]] = []
    pending = list(replicates)
    for attempt in range(MAX_RETRIES + 1):
        plans = [PermutationPlan(settings.master_seed, r + attempt * RETRY_STRIDE)
                 for r in pending]
        batch = label(task.data, plans)
        outs = _statistics(task.pipeline, batch, settings.scheme, settings.k, task.mu)
        failed = []
        for r, plan, out in zip(pending, plans, outs):
            if isinstance(out, FitError):
                failed.append((r, out))
            else:
                results[r] = (plan.replicate_index, out)
        if attempt == MAX_RETRIES and failed:
            r, exc = failed[0]
            raise FitError(f"replicate {r} failed after {MAX_RETRIES} retries: {exc}")
        retries += [(r, attempt, str(exc)) for r, exc in failed]
        pending = [r for r, _ in failed]
        if not pending:
            break
    return [results[r] for r in replicates], sorted(retries)


_POOL_TASK: _ReplicateTask | None = None


def _pool_init(task: _ReplicateTask) -> None:
    global _POOL_TASK
    _POOL_TASK = task


def _pool_run(replicates: range):
    return _chunk_stats(_POOL_TASK, replicates)


def _batches(count: int, d: Dataset) -> list[range]:
    """Consecutive ranges of ``count`` columns of ``d``, each one batch.

    Each holds as many columns as keep an (R, n, N) float64 array within
    ``BATCH_BYTES``, and at least ``MIN_BATCH``: the shape of the largest
    temporaries of a fit, so memory stays linear in the data whatever
    ``count`` is.  The ranges depend on ``count`` and the data's shape
    alone, never on ``workers``.
    """
    width = max(MIN_BATCH, BATCH_BYTES // (8 * d.n * d.n_features))
    return [range(lo, min(lo + width, count)) for lo in range(0, count, width)]


def null_distribution(pipeline, d: Dataset, settings: StudySettings, *,
                      mu: float | None = None) -> NullDistribution:
    """Null statistics from ``settings.replicates`` label-randomized replicates.

    Labeled data has its labels permuted; one-condition data is split
    into two pseudo-groups.  Each replicate derives every random draw from
    ``(master_seed, replicate_index)``.  The RUB scheme adds ``mu``, its
    deviation bound, to every statistic; other schemes ignore it.
    Replicates are fitted in the chunks of :func:`_batches`, and
    statistics are aggregated in replicate order, so the result is
    identical for any ``workers``.  A pool of ``min(workers, chunk
    count)`` processes runs the chunks; with one, or one chunk, they run
    in this process.
    """
    if settings.scheme is Scheme.RUB and mu is None:
        raise ValueError("the rub scheme needs mu, its deviation bound")
    task = _ReplicateTask(pipeline, d, settings, mu)
    chunks = _batches(settings.replicates, d)

    # The pool forks all its workers up front, so it gets no more than
    # there are chunks to hand out; one chunk runs in this process.
    workers = min(settings.workers, len(chunks))
    if workers <= 1:
        done = [_chunk_stats(task, chunk) for chunk in chunks]
    else:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_pool_init, initargs=(task,)
        ) as pool:
            done = list(pool.map(_pool_run, chunks))

    stats: list[float] = []
    indices: list[int] = []
    retries: list[tuple[int, int, str]] = []
    for results, chunk_retries in done:
        for idx, values in results:
            stats.extend(values)
            indices.append(idx)
        retries += chunk_retries
    return NullDistribution(tuple(stats), tuple(indices), tuple(retries))


# ---------------------------------------------------------------------------
# Studies


def _histogram(stats) -> tuple[tuple[float, ...], tuple[int, ...]]:
    clipped = np.clip(np.asarray(stats, dtype=np.float64), 0.0, 1.0)
    counts, edges = np.histogram(clipped, bins=HISTOGRAM_BINS, range=(0.0, 1.0))
    return tuple(float(e) for e in edges), tuple(int(c) for c in counts)


def _mu_for(pipeline, d: Dataset, scheme: Scheme, eta: float) -> float | None:
    """The RUB scheme's deviation bound for this pipeline and data size."""
    if scheme is not Scheme.RUB:
        return None
    dim = pipeline.classifier_input_dim(d.n_features)
    return empirical_bound(BoundSpec(d.n, dim, eta))


def _sd(values) -> float:
    """Sample standard deviation; 0.0 for a single value."""
    return float(np.std(values, ddof=1)) if len(values) > 1 else 0.0


def _study(pipeline, data: Dataset, settings: StudySettings, study: str) -> StudyReport:
    """Run a study and build its report.

    Labeled data gets the power flavor: the null permutes the labels,
    the observed statistic is the mean over row-shuffled iterations
    (batches, split as the null's chunks are, whose columns index the
    data's rows in their own order, not retried), and the report carries
    its p-value.
    One-condition data gets the type-1 flavor: the null splits the rows
    into two pseudo-groups, and the report carries the omnibus
    family-wise error rate instead.
    """
    scheme = settings.scheme
    mu = _mu_for(pipeline, data, scheme, settings.eta)
    observed: list[float] = []
    if data.class_count > 1:
        for chunk in _batches(settings.observed_iterations, data):
            plans = [PermutationPlan(settings.master_seed, OBSERVED_BASE + i) for i in chunk]
            for out in _statistics(pipeline, shuffle_rows(data, plans), scheme, settings.k, mu):
                if isinstance(out, FitError):
                    raise out
                observed += out
    null = null_distribution(pipeline, data, settings, mu=mu)
    t_obs = p = rate = None
    if observed:
        t_obs = float(np.mean(observed))
        p = p_value(t_obs, null)
    else:
        rate = fwe_rate(omnibus_pvalues(null), settings.alpha)
    stats = np.asarray(null.statistics)
    edges, counts = _histogram(stats)
    return StudyReport(
        study=study,
        scheme=scheme,
        m=null.m,
        k=settings.k if scheme is Scheme.KFOLD else None,
        alpha=settings.alpha,
        eta=settings.eta,
        mu=mu,
        observed_mean=t_obs,
        observed_sd=_sd(observed) if observed else None,
        null_mean=float(stats.mean()),
        null_sd=_sd(stats),
        p_value=p,
        p_value_sd=None if p is None else mc_stddev(p, null.m),
        fwe_rate=rate,
        fwe_rate_sd=None if rate is None else mc_stddev(rate, null.m),
        histogram_edges=edges,
        histogram_counts=counts,
        master_seed=settings.master_seed,
        replicate_indices=null.replicate_indices,
        retries=null.retries,
    )


def _prepared(d: Dataset, settings: StudySettings) -> Dataset:
    """Unit-interval scaling; an odd-sized one-condition set also drops a
    seeded row, so that it splits into two equal pseudo-groups."""
    data = scale_unit_interval(d)
    if d.class_count == 1:
        data = trim_to_even(data, PermutationPlan(settings.master_seed, TRIM_INDEX))
    return data


def power_study(pipeline: PipelineSpec, d: Dataset, settings: StudySettings) -> StudyReport:
    """Significance of the class effect in a labeled dataset.

    The observed statistic is the mean over ``observed_iterations``
    row-shuffled evaluations; the null refits the whole pipeline on
    label-permuted data.
    """
    if d.class_count < 2:
        raise ValueError("power_study requires at least two classes")
    return _study(pipeline, _prepared(d, settings), settings, "power")


def type1_study(pipeline: PipelineSpec, d: Dataset, settings: StudySettings) -> StudyReport:
    """Family-wise error rate of the test on one-condition data.

    Every replicate splits the rows into two pseudo-groups, so the null
    hypothesis holds by construction; the report carries the omnibus
    rejection rate at level alpha and its Monte-Carlo deviation.
    """
    if d.class_count != 1:
        raise ValueError("type1_study requires a one-condition dataset")
    return _study(pipeline, _prepared(d, settings), settings, "type1")


def alt_scheme_study(pipeline: PipelineSpec, d: Dataset, settings: StudySettings) -> StudyReport:
    """Study with the extractor and reducer fitted once, outside the loop.

    Labeled data runs the power flavor; one-condition data runs the
    type-1 flavor (and needs an unsupervised reducer, since no labels
    exist when the feature maps are frozen).
    """
    data = _prepared(d, settings)
    frozen = fit_feature_maps(pipeline, data, PermutationPlan(settings.master_seed, EXTRACTOR_INDEX))
    return _study(frozen, data, settings, "alt")
