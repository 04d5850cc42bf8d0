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

A study fits everything in :func:`null_distribution`, which works out
the RUB bound and, on labeled data, fits the observed iterations too.
Replicates and observed iterations own their random streams.  They are
fitted in chunks, each one batch of columns over the shared features,
by one chunk function, and every chunk of a study goes through one
queue: the observed iterations' chunks first, then the null's.  The study's
process takes the next untaken chunk, beside ``min(workers, chunks) - 1``
forked children that do the same; with one worker it forks none.  A
chunk holds as many columns as keep an (R, n, N) float64 array of the
data within :data:`BATCH_BYTES`, and at least :data:`MIN_BATCH`, so the
chunks depend on the iteration or replicate count and the data's shape
alone, and a study's memory stays linear in the data.  A column's
arithmetic never mixes with another's, so results depend neither on the
chunking nor on the worker count.  A replicate whose fit fails is
resampled with a fresh sub-stream up to three times before the study
aborts; the report lists every such retry.  An observed iteration is
never retried.
"""

from __future__ import annotations

import math
import os
import pickle
from dataclasses import dataclass, fields
from typing import ClassVar

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
    k-fold, whose replicates contribute k values each).  A power study
    averages ``observed_iterations`` row-shuffled iterations, a class constant.
    """

    scheme: Scheme = Scheme.RUB
    m: int | None = None
    k: int = 10
    alpha: float = 0.05
    eta: float = 0.05
    master_seed: int = 0
    workers: int = 1
    observed_iterations: ClassVar[int] = 20

    def __post_init__(self):
        check(self.scheme in list(Scheme), "scheme", f"unknown scheme {self.scheme!r}")
        object.__setattr__(self, "scheme", Scheme(self.scheme))
        m, k, alpha, eta = self.m, self.k, self.alpha, self.eta
        check(m is None or (is_int(m) and m >= 1), "m", "must be a positive integer")
        check(is_int(k) and k >= 2, "k", "must be an integer >= 2")
        check(is_real(alpha) and 0.0 < alpha <= 1.0, "alpha", "must lie in (0, 1]")
        check(is_real(eta) and 0.0 < eta < 1.0, "eta", "must lie strictly between 0 and 1")
        seed = PermutationPlan(self.master_seed).master_seed  # checked, and an int
        object.__setattr__(self, "master_seed", seed)
        check(is_int(self.workers) and self.workers >= 1, "workers", "must be a positive integer")

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
    attempt that was retried, in replicate order.  ``observed`` holds the
    observed iterations' statistics in order, empty on one-condition data.
    ``mu`` is the RUB bound added to every value, ``None`` off RUB.
    """

    statistics: tuple[float, ...]
    replicate_indices: tuple[int, ...]
    retries: tuple[tuple[int, int, str], ...] = ()
    observed: tuple[float, ...] = ()
    mu: float | None = None

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
        return list(zip(edges, edges[1:], self.histogram_counts))


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


def _chunk_stats(statistics, make, d: Dataset, seed: int, indices: range, retries: int):
    """Each column's ``(plan index, values)`` of a chunk, and its retries.

    Column ``i`` of ``indices`` draws from ``PermutationPlan(seed, i)``, and
    ``make(d, plans)`` gives the chunk's batch: row orders for observed
    iterations, labelings for the null.  Failed columns are drawn again
    from their next plan and fitted together, up to ``retries`` times; then
    the first failure raises, as its own ``FitError`` if never retried.
    ``statistics`` maps a batch to its columns' values (:func:`_statistics`).
    """
    results, failures = {}, []
    pending = list(indices)
    for attempt in range(retries + 1):
        plans = [PermutationPlan(seed, i + attempt * RETRY_STRIDE) for i in pending]
        failed = []
        for i, plan, out in zip(pending, plans, statistics(make(d, plans))):
            if isinstance(out, FitError):
                failed.append((i, out))
            else:
                results[i] = (plan.replicate_index, out)
        if failed and attempt == retries:
            i, exc = failed[0]
            raise exc if not retries else FitError(
                f"replicate {i} failed after {retries} retries: {exc}")
        failures += [(i, attempt, str(exc)) for i, exc in failed]
        pending = [i for i, _ in failed]
        if not pending:
            break
    return [results[i] for i in indices], sorted(failures)


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


def _take(counter: tuple[int, int], then: int | None = None) -> int:
    """The value of a counter that forked processes share, which is then
    incremented, or set to ``then``.

    The counter is a pipe holding its value as its one 8-byte token: a
    process that reads the token holds the counter until it writes it back.
    """
    value = int.from_bytes(os.read(counter[0], 8), "little")
    os.write(counter[1], (value + 1 if then is None else then).to_bytes(8, "little"))
    return value


def _take_chunks(work, count: int, counter: tuple[int, int]) -> dict:
    """``{index: work(index)}`` for the indices this process takes from
    ``counter`` below ``count``; a chunk that raised has its exception.

    A process whose chunk raises moves the counter to the end, so no
    process starts another chunk.  Every lower index was taken before, and
    its chunk still runs to the end, so a walk of the indices in order
    meets the lowest that raised before any that was never taken.
    """
    done = {}
    while (index := _take(counter)) < count:
        try:
            done[index] = work(index)
        except Exception as exc:  # raised by the parent once every child is done
            done[index] = exc
            _take(counter, then=count)
    return done


def _child(work, count: int, counter, reader: int, writer: int):
    """A forked child's life: fit chunks, write them to ``writer`` as one
    pickle, and exit, never returning into the caller's frames."""
    code = 1
    try:
        os.close(reader)
        out = pickle.dumps(_take_chunks(work, count, counter))
        with open(writer, "wb") as fh:
            fh.write(out)
        code = 0
    except BaseException:
        import traceback

        traceback.print_exc()
    finally:
        os._exit(code)


def _dispatch(work, count: int, children: int) -> list:
    """``[work(0), ..., work(count - 1)]``, from this process and ``children`` forks.

    Children inherit ``work``, so nothing is pickled on the way in, and no
    module is imported or thread started for them.  Every process takes
    the next untaken index from one counter; with no children this process
    takes them all, in order.  Each child sends its results once, through
    its own pipe, with a chunk that raised holding its exception.  The
    results are walked in index order once every process has finished the
    chunk it held, so the exception of the lowest index that raised is the
    one raised.  Every child is waited for, and killed first only if this
    process raised outside ``work``, as on an interrupt.
    """
    counter = os.pipe()
    os.write(counter[1], bytes(8))
    pids, readers, codes = [], [], []
    finished = False
    try:
        for _ in range(children):
            reader, writer = os.pipe()
            pid = os.fork()
            if pid == 0:
                _child(work, count, counter, reader, writer)
            # Closed before the next fork, so that only the child holds the
            # write end, and the reader sees EOF when the child ends.
            os.close(writer)
            pids.append(pid)
            readers.append(open(reader, "rb"))
        done = _take_chunks(work, count, counter)
        sent = [reader.read() for reader in readers]
        finished = True
    finally:
        for pid in pids:
            if not finished:
                import signal  # only a study that raised pays for the import

                os.kill(pid, signal.SIGKILL)
            codes.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
        for reader in readers:
            reader.close()
        os.close(counter[0])
        os.close(counter[1])
    for pid, code, data in zip(pids, codes, sent):
        if code != 0:
            raise RuntimeError(f"worker process {pid} exited with code {code} "
                               "before sending its chunks")
        done.update(pickle.loads(data))
    for i in range(count):  # in order, so the lowest index that raised comes first
        if isinstance(done[i], Exception):
            raise done[i]
    return [done[i] for i in range(count)]


def null_distribution(pipeline, d: Dataset, settings: StudySettings) -> NullDistribution:
    """Null statistics from ``settings.replicates`` label-randomized replicates.

    Labeled data has its labels permuted, and its
    ``StudySettings.observed_iterations`` row-shuffled iterations are
    fitted too, by the same procedure; one-condition data is split into
    two pseudo-groups.  Column ``i`` derives every random draw from
    ``(master_seed, i)``, observed iteration ``i`` from
    ``(master_seed, OBSERVED_BASE + i)``.  The RUB scheme adds its bound
    ``mu`` from :func:`_mu_for`, which the result carries, to every value.

    The chunks of :func:`_batches`, the observed ones first, are fitted by
    :func:`_chunk_stats` in this process beside ``min(workers, chunk
    count) - 1`` forked children, each taking the next untaken chunk.
    Values are gathered in order, so the result is identical for any
    ``workers``, and a failed observed iteration raises its ``FitError``
    before any failure of the null.
    """
    mu = _mu_for(pipeline, d, settings.scheme, settings.eta)
    labeled = d.class_count > 1
    chunks = [(shuffle_rows, range(OBSERVED_BASE + c.start, OBSERVED_BASE + c.stop), 0)
              for c in _batches(settings.observed_iterations, d) if labeled]
    chunks += [(permute_labels if labeled else split_null_groups, c, MAX_RETRIES)
               for c in _batches(settings.replicates, d)]

    def statistics(batch: Batch) -> list:
        return _statistics(pipeline, batch, settings.scheme, settings.k, mu)

    def work(index: int):
        make, indices, retries = chunks[index]
        return _chunk_stats(statistics, make, d, settings.master_seed, indices, retries)

    done = _dispatch(work, len(chunks), min(settings.workers, len(chunks)) - 1)
    results = [result for chunk_results, _ in done for result in chunk_results]
    observed, null = results[:-settings.replicates], results[-settings.replicates:]
    return NullDistribution(
        tuple(value for _, values in null for value in values),
        tuple(index for index, _ in null),
        tuple(retry for _, chunk_retries in done for retry in chunk_retries),
        tuple(value for _, values in observed for value in values),
        mu,
    )


# ---------------------------------------------------------------------------
# Studies


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
    """Run a study and build its report from one :func:`null_distribution`,
    whose bound ``mu`` the report carries.

    Labeled data gets the power flavor: the null permutes the labels,
    the observed statistic is the mean over the null's row-shuffled
    ``observed`` iterations, and the report carries its p-value.
    One-condition data gets the type-1 flavor: the null splits the rows
    into two pseudo-groups, and the report carries the omnibus
    family-wise error rate instead.
    """
    null = null_distribution(pipeline, data, settings)
    observed = null.observed
    t_obs = p = rate = None
    if observed:
        t_obs = float(np.mean(observed))
        p = p_value(t_obs, null)
    else:
        rate = fwe_rate(omnibus_pvalues(null), settings.alpha)
    stats = np.asarray(null.statistics)
    counts, edges = np.histogram(np.clip(stats, 0.0, 1.0), bins=HISTOGRAM_BINS, range=(0.0, 1.0))
    return StudyReport(
        study=study,
        scheme=settings.scheme,
        m=null.m,
        k=settings.k if settings.scheme is Scheme.KFOLD else None,
        alpha=settings.alpha,
        eta=settings.eta,
        mu=null.mu,
        observed_mean=t_obs,
        observed_sd=_sd(observed) if observed else None,
        null_mean=float(stats.mean()),
        null_sd=_sd(stats),
        p_value=p,
        p_value_sd=None if p is None else mc_stddev(p, null.m),
        fwe_rate=rate,
        fwe_rate_sd=None if rate is None else mc_stddev(rate, null.m),
        histogram_edges=tuple(float(e) for e in edges),
        histogram_counts=tuple(int(c) for c in counts),
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
    rejection rate at level alpha and its Monte-Carlo deviation.  That
    rate is at most ``floor(alpha M) / M`` for M null values, with
    equality when none tie, whatever the pipeline and data: it states
    the omnibus test's exactness rather than measuring an error rate.
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
