"""Learning-pipeline composition: extractor, reducer, classifier stages.

A :class:`PipelineSpec` names the stages; fitting produces a
:class:`FittedPipeline` that predicts labels through calibrated
probabilities.  Feature columns may be split into disjoint region
blocks: each block trains its own sub-pipeline, per-sample class
probabilities are averaged across blocks, and the arg-max class wins
(ties to the lowest index).  With a single block this reduces exactly
to the plain pipeline.

Fits take a :class:`~permsig.dataset.Batch` of labelings as well as a
single dataset, which is fitted as a batch of one.  Every stage then
handles all columns at once, but a column's arithmetic stays its own, so
its fit does not depend on the batch it is in; see :class:`FittedBatch`.
The classifier stage goes further: the pair problems of every block and
class pair with the same row count, +1 count and width are stacked along
the column axis, and each stack's SVMs and calibrations are fitted in one
call apiece.  A column that fails carries the ``FitError`` of its first
failing block and pair, and within those of its first failing stage:
reducer, SVM, then calibration.

Two fitting modes exist:

* :meth:`PipelineSpec.fit` refits every stage on the data it is given
  (the usual mode; used inside every fold and permutation replicate).
* :func:`fit_feature_maps` + :class:`AltPipeline` freeze the extractor
  and reducer on the original data, so only the classifier and its
  calibration are refit afterwards — the cheap alternative scheme for
  permutation nulls.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations, product

import numpy as np

from .autoenc import AeArchitecture, AeModel, ae_encode, ae_fit
from .dataset import Batch, Dataset, as_batch
from .dimred import LinearReducer, pca_fit, pls1_fit, reduce
from .errors import BatchFitError, ConfigError, FitError, check, is_int, is_real
from .linclass import (
    Calibration,
    LinearSvm,
    calibrate,
    calibrated_probability,
    decision_values,
    svm_fit,
)
from .rng import PermutationPlan

_REDUCERS = ("pls", "pca", "none")


@dataclass(frozen=True)
class PipelineSpec:
    """Declarative description of a learning pipeline.

    Parameters
    ----------
    ae : AeArchitecture or None
        Optional autoencoder feature extractor, trained per block.
    reducer : str
        ``pls`` (single supervised component, fit per class pair),
        ``pca`` (unsupervised, ``pca_components`` directions), or
        ``none``.
    pca_components : int
        Component count when ``reducer == "pca"``.
    svm_c : float
        Soft-margin cost of the linear SVM.  It cannot affect the output
        when the classifier sees one feature (``pls``, ``pca`` with one
        component, or one-wide blocks or codes); see :mod:`permsig.linclass`.
    region_blocks : tuple of tuple of int, optional
        Disjoint, non-empty groups of feature columns; one sub-pipeline
        per block.  ``None`` means one block of all columns.
    """

    ae: AeArchitecture | None = None
    reducer: str = "pls"
    pca_components: int = 1
    svm_c: float = 1.0
    region_blocks: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        check(self.reducer in _REDUCERS, "reducer", f"unknown reducer {self.reducer!r}")
        r, c = self.pca_components, self.svm_c
        check(is_int(r) and r >= 1, "pca_components", "must be a positive integer")
        check(is_real(c) and 0 < c < np.inf, "svm_c", "must be a positive finite number")
        object.__setattr__(self, "svm_c", float(c))
        if self.region_blocks is None:
            return
        blocks = self.region_blocks
        check(
            isinstance(blocks, (list, tuple)) and len(blocks) > 0
            and all(isinstance(b, (list, tuple)) and all(is_int(i) for i in b) for b in blocks),
            "region_blocks",
            "must be a non-empty list of lists of integer column indices",
        )
        blocks = tuple(tuple(int(i) for i in blk) for blk in blocks)
        seen: set[int] = set()
        for bi, blk in enumerate(blocks):
            check(len(blk) > 0, "region_blocks", f"block {bi} is empty")
            for col in blk:
                if col in seen:
                    raise ConfigError("region_blocks",
                                      f"column {col} appears in more than one block")
                seen.add(col)
        object.__setattr__(self, "region_blocks", blocks)

    def resolve_blocks(self, n_features: int) -> tuple[tuple[int, ...], ...]:
        """Column blocks of ``n_features``-wide data; one full block when unset.

        Raises ``ConfigError`` when a block names a column the data lacks,
        when the autoencoder's code is wider than the narrowest block, or
        when ``pca_components`` exceeds the width a block's reducer sees.
        """
        blocks = self.region_blocks or (tuple(range(n_features)),)
        for bi, blk in enumerate(blocks):
            for col in blk:
                if not 0 <= col < n_features:
                    raise ConfigError("region_blocks", f"block {bi} references column {col}, "
                                      f"valid range is [0, {n_features})")
        width = min(map(len, blocks))
        if self.ae is not None:
            if self.ae.z_dim > width:
                raise ConfigError("ae.layer_widths_encoder", f"code width {self.ae.z_dim} "
                                  f"exceeds the {width} columns of the narrowest block")
            width = self.ae.z_dim
        if self.reducer == "pca" and self.pca_components > width:
            raise ConfigError("pca_components", f"{self.pca_components} exceeds the {width} "
                              "features a block's reducer sees")
        return blocks

    def classifier_input_dim(self, n_features: int) -> int:
        """Dimension of the feature vector the final classifier sees."""
        if self.reducer == "pls":
            return 1
        if self.reducer == "pca":
            return self.pca_components
        if self.ae is not None:
            return self.ae.z_dim
        return max(len(blk) for blk in self.resolve_blocks(n_features))

    def fit(self, d: Dataset | Batch, plan: PermutationPlan | None = None,
            tag: str = "fit") -> "FittedPipeline | FittedBatch":
        """Fit one dataset under ``plan``, or every column of a batch; see
        :func:`fit_pipeline`."""
        return fit_pipeline(self, d, plan, tag)


@dataclass
class PairModel:
    """Calibrated pairwise classifier for classes ``(a, b)``; +1 = b.

    In a :class:`FittedBatch` the reducer, SVM and calibration hold one
    model per fitted column along a leading axis; a frozen reducer is a
    single one that every column shares.
    """

    a: int
    b: int
    reducer: LinearReducer | None
    svm: LinearSvm
    calibration: Calibration

    def probability(self, z: np.ndarray) -> np.ndarray:
        feats = reduce(self.reducer, z) if self.reducer is not None else z
        return calibrated_probability(self.calibration, decision_values(self.svm, feats))

    def column(self, j: int) -> "PairModel":
        reducer = self.reducer.column(j) if self.reducer is not None else None
        return PairModel(self.a, self.b, reducer, self.svm.column(j), self.calibration.column(j))


def _votes(pairs: list[PairModel], z: np.ndarray, class_count: int) -> np.ndarray:
    """Per-row class probabilities from summed pairwise votes."""
    probs = [pair.probability(z) for pair in pairs]
    scores = np.zeros(probs[0].shape + (class_count,))
    for pair, p in zip(pairs, probs):
        scores[..., pair.b] += p
        scores[..., pair.a] += 1.0 - p
    return scores / len(pairs)


@dataclass
class FittedBlock:
    columns: tuple[int, ...]
    ae_model: AeModel | None
    pairs: list[PairModel]
    class_count: int

    def encode(self, x: np.ndarray) -> np.ndarray:
        return _encode(self.ae_model, x[:, self.columns])

    def probability(self, x: np.ndarray) -> np.ndarray:
        """Per-sample class probabilities from summed pairwise votes."""
        return _votes(self.pairs, self.encode(x), self.class_count)


@dataclass
class FittedPipeline:
    """Trained pipeline: per-block models plus the aggregation rule."""

    blocks: list[FittedBlock]
    class_count: int
    n_features: int

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.n_features:
            raise ValueError(f"x must be (n, {self.n_features})")
        stacked = np.stack([blk.probability(x) for blk in self.blocks])
        return stacked.mean(axis=0)

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(x), axis=1).astype(np.int64)

    def error(self, x: np.ndarray, labels: np.ndarray) -> float:
        """Misclassified fraction."""
        return float(np.mean(self.predict(x) != np.asarray(labels)))


@dataclass
class FittedBatch:
    """A pipeline fitted on every column of a batch.

    ``columns`` lists the batch columns that were fitted, in the order of
    the models' leading axis, and ``failures`` maps every other column to
    the ``FitError`` that stopped its fit.  Each block holds its feature
    columns, the autoencoder of each fitted column (or None), and its pair
    models.  ``codes`` keeps the encoded features already computed.
    """

    blocks: list[tuple[tuple[int, ...], tuple[AeModel | None, ...], list[PairModel]]]
    class_count: int
    n_features: int
    columns: list[int]
    failures: dict[int, FitError]
    codes: dict = field(default_factory=dict, repr=False)

    def errors(self, batch: Batch) -> list[float | FitError]:
        """Each column's misclassified fraction of its rows in ``batch``.

        ``batch`` has the columns of the fitted batch, with any of their
        rows.  A column that was not fitted gets its ``FitError`` instead.
        """
        out: list = [self.failures.get(j) for j in range(batch.size)]
        if not self.columns:
            return out
        live = batch.select(self.columns)
        votes = [_votes(pairs, _codes(live, cols, models, self.codes), self.class_count)
                 for cols, models, pairs in self.blocks]
        predicted = np.argmax(np.stack(votes).mean(axis=0), axis=-1)
        wrong = np.count_nonzero(predicted != live.labels, axis=1)
        for j, count in zip(self.columns, wrong):
            out[j] = float(count / live.n)
        return out

    def column(self, j: int) -> FittedPipeline:
        """The fit of batch column ``j``; raises its ``FitError`` if it failed."""
        if j in self.failures:
            raise self.failures[j]
        k = self.columns.index(j)
        blocks = [FittedBlock(cols, models[k], [pair.column(k) for pair in pairs], self.class_count)
                  for cols, models, pairs in self.blocks]
        return FittedPipeline(blocks, self.class_count, self.n_features)


def _encode(ae_model: AeModel | None, xb: np.ndarray) -> np.ndarray:
    return ae_encode(ae_model, xb) if ae_model is not None else xb


def _codes(batch: Batch, cols: tuple[int, ...], models, cache: dict) -> np.ndarray:
    """Each column's rows of one block, encoded.

    A features array is encoded once per model, and the result kept in
    ``cache``.  When every column has all rows of the same codes, those
    (n, width) codes serve them all; otherwise each column gathers its
    rows into an (R, n, width) array.
    """
    codes = []
    for feats, model in zip(batch.features, models):
        key = (id(feats), id(model), cols)
        if key not in cache:  # the entry holds its keys' objects, so their ids stay unique
            block = feats if cols == tuple(range(feats.shape[1])) else feats[:, cols]
            cache[key] = (feats, model, _encode(model, block))
        codes.append(cache[key][2])
    shared = all(z is codes[0] for z in codes)
    if batch.rows is None:
        return codes[0] if shared else np.stack(codes)
    if shared:
        return codes[0][batch.rows]
    return np.stack([z[rows] for z, rows in zip(codes, batch.rows)])


def _pair_data(z: np.ndarray, labels: np.ndarray, a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Each column's rows of classes ``a`` and ``b``, with signed targets, +1 = ``b``.

    ``z`` holds each column's rows, (R, n, width), or rows shared by all
    columns, (n, width); ``labels`` is (R, n).  Every column must hold as
    many rows of ``a``, and of ``b``, as every other.
    """
    n_a, n_b = (labels == a).sum(axis=1), (labels == b).sum(axis=1)
    if np.any(n_a != n_a[0]) or np.any(n_b != n_b[0]):
        raise ValueError("columns of a batch need equal class counts")
    if n_a[0] == 0 or n_b[0] == 0:
        raise FitError(f"class pair ({a}, {b}) is empty or single-class in training data")
    if n_a[0] + n_b[0] == labels.shape[1]:
        return z, np.where(labels == b, 1.0, -1.0)
    rows = np.nonzero((labels == a) | (labels == b))[1].reshape(len(labels), -1)
    y = np.where(np.take_along_axis(labels, rows, axis=1) == b, 1.0, -1.0)
    if z.ndim == 2:
        return z[rows], y
    return np.take_along_axis(z, rows[:, :, None], axis=1), y


def _fit_extractors(spec: PipelineSpec, batch: Batch, tag: str):
    """Each block's columns and each column's trained autoencoder (when
    configured), plus the ``FitError`` of every column whose training failed."""
    blocks = spec.resolve_blocks(batch.n_features)
    if spec.ae is None:
        return [(cols, (None,) * batch.size) for cols in blocks], {}
    failures: dict[int, FitError] = {}
    out = []
    for bi, cols in enumerate(blocks):
        models = []
        for j, plan in enumerate(batch.plans):
            model = None
            if j not in failures:
                try:
                    feats = batch.column_rows(j)[:, cols]
                    model = ae_fit(feats, spec.ae, plan, tag=f"{tag}.b{bi}.ae")
                except FitError as exc:
                    failures[j] = exc
            models.append(model)
        out.append((cols, tuple(models)))
    return out, failures


def _fit_reducer(spec: PipelineSpec, feats: np.ndarray, y: np.ndarray) -> LinearReducer | None:
    if spec.reducer == "pls":
        return pls1_fit(feats, y)
    if spec.reducer == "pca":
        # resolve_blocks has checked the width, so only the row count caps the rank here.
        cap = feats.shape[-2] - 1
        if spec.pca_components > cap:
            raise FitError(
                f"pca_components={spec.pca_components} exceeds rank cap {cap} "
                f"of {feats.shape[-2]} rows"
            )
        return pca_fit(feats, spec.pca_components)
    return None


def _fit_classifiers(spec: PipelineSpec, batch: Batch, extractors, reducer_for,
                     failures: dict | None = None) -> FittedBatch:
    """The one pairwise fit path of full and frozen pipelines.

    Every block and class pair is a pair problem: each column's rows of
    the pair, reduced by ``reducer_for(block_index, pair, feats, y)``
    (fitted on those rows, or looked up in frozen maps).  The problems'
    scores are stacked along the column axis, one stack per row count,
    +1 count and width, and :func:`_fit_pairs` fits each stack's SVMs and
    calibrations in one call apiece.

    A column fails with the ``FitError`` of its first failing problem, in
    block and then pair order, and within a problem of its first failing
    stage: reducer, SVM, calibration.  That is the error a fit of the
    column alone raises.  Each stage fits every column not yet known to
    have failed, so a column that fails late may still be fitted on
    problems after its first failing one; those results are dropped.
    """
    if batch.class_count < 2:
        raise ValueError("fitting requires at least two classes")
    failures = dict(failures or {})
    columns = [j for j in range(batch.size) if j not in failures]
    live = batch.select(columns)
    codes: dict = {}
    first: dict[int, tuple[tuple[int, int], FitError]] = {}  # live position -> (problem, stage)

    def record(k: int, order: tuple[int, int], exc: FitError) -> None:
        if k not in first or order < first[k][0]:
            first[k] = (order, exc)

    problems, stacks, standing = _stack_pairs(live, columns, extractors, reducer_for, codes,
                                              record)
    for stack in stacks:
        _fit_pairs(spec, stack, record)
    survivors = [k for k in standing if k not in first]
    for k, (_, exc) in first.items():
        failures[columns[k]] = exc
    fitted: list[list[PairModel]] = [[] for _ in extractors]
    for bi, (a, b), positions, red, stack, offset in problems if survivors else ():
        own = np.searchsorted(positions, survivors)
        fitted[bi].append(PairModel(
            a, b, _part(red, own, len(positions)),
            _part(stack.svm, stack.svm_at[offset + own], len(stack.svm.weights)),
            _part(stack.cal, stack.cal_at[offset + own], len(stack.cal.slope))))
    blocks = [(cols, tuple(models[columns[k]] for k in survivors), pairs)
              for (cols, models), pairs in zip(extractors, fitted)] if survivors else []
    columns = [columns[k] for k in survivors]
    return FittedBatch(blocks, batch.class_count, batch.n_features, columns, failures, codes)


def _stack_pairs(live: Batch, columns: list[int], extractors, reducer_for, codes: dict, record):
    """The reduced scores of every pair problem, stacked.

    ``live`` holds the batch ``columns`` still to be fitted.  Returns the
    problems, in block and then pair order, each as (block, pair, live
    positions fitted, reducer, stack, index of its first column in the
    stack); the stacks; and the live positions whose reducers all fitted.
    A reducer's failures go to ``record`` as stage 0 of their problem, and
    the problem is reduced again without those columns.
    """
    class_count = live.class_count
    pairs = list(combinations(range(class_count), 2))
    # Class counts, the same in every column; they fix each problem's
    # rows and +1 count, so each stack is sized before it is filled.
    counts = np.bincount(live.labels[0], minlength=class_count).tolist() \
        if columns else [0] * class_count
    demand = Counter((counts[a] + counts[b], counts[b]) for _ in extractors for a, b in pairs)
    problems = []
    stacks: dict[tuple[int, int, int], _Stack] = {}
    standing = list(range(len(columns)))
    z_for = z = None
    for p, (bi, (a, b)) in enumerate(product(range(len(extractors)), pairs)):
        while standing:
            sub = live if len(standing) == live.size else live.select(standing)
            try:
                if z_for != (bi, standing):
                    cols, models = extractors[bi]
                    z = _codes(sub, cols, tuple(models[columns[k]] for k in standing), codes)
                    z_for = (bi, standing)
                feats, y = _pair_data(z, sub.labels, a, b)
                red = reducer_for(bi, (a, b), feats, y)
                scores = reduce(red, feats) if red is not None else feats
                break
            except BatchFitError as exc:
                failed = {standing[k]: err for k, err in exc.failures.items()}
            except FitError as exc:  # one that every column shares
                failed = dict.fromkeys(standing, exc)
            for k, exc in failed.items():
                record(k, (p, 0), exc)
            standing = [k for k in standing if k not in failed]
        else:
            break  # every column has failed
        shape = (counts[a] + counts[b], counts[b])
        key = shape + (scores.shape[-1],)
        if key not in stacks:
            stacks[key] = _Stack(scores, y, demand[shape] * len(standing))
        demand[shape] -= 1
        offset = stacks[key].add(p, standing, scores, y)
        problems.append((bi, (a, b), standing, red, stacks[key], offset))
    return problems, list(stacks.values()), standing


class _Stack:
    """Pair problems of equal row count, +1 count and score width, stacked
    along the column axis, and the fits of the stacked columns.

    ``owners`` names the problem and live position of each stacked column.
    A stack made for a single problem holds that problem's own arrays, so
    nothing is copied, and scores that every column shares stay (n, width).
    """

    def __init__(self, scores: np.ndarray, y: np.ndarray, capacity: int):
        if capacity == len(y):
            self.x, self.y = scores, y
        else:
            self.x = np.empty((capacity,) + scores.shape[-2:])
            self.y = np.empty((capacity, y.shape[1]))
        self.owners: list[tuple[int, int]] = []
        # Set by _fit_pairs: the fits, and each stacked column's index in them.
        self.svm: LinearSvm | None = None
        self.cal: Calibration | None = None
        self.svm_at = self.cal_at = np.empty(0, dtype=np.intp)

    def add(self, problem: int, positions: list[int], scores: np.ndarray, y: np.ndarray) -> int:
        """Stack a problem's columns; returns the index of its first."""
        lo = len(self.owners)
        if self.x is not scores:
            self.x[lo:lo + len(y)] = scores
            self.y[lo:lo + len(y)] = y
        self.owners += [(problem, k) for k in positions]
        return lo


def _fit_pairs(spec: PipelineSpec, stack: _Stack, record) -> None:
    """The SVMs and calibrations of a stack's columns, one call apiece.

    The stacked columns that a fit fails on are passed to
    ``record(live_position, (problem, stage), error)``, stage 1 for the
    SVM and 2 for the calibration, and the fit is repeated without them.
    Leaves in ``stack`` the SVMs and calibrations of the columns fitted,
    and ``svm_at`` and ``cal_at``, each stacked column's index in them.
    """
    n = len(stack.owners)
    x, y = stack.x[:n] if stack.x.ndim == 3 else stack.x, stack.y[:n]

    def some(a, cols):  # the listed columns of a per-column array
        return a if len(cols) == len(a) else a[cols]

    def fit(stage, owners, run):
        cols = np.arange(len(owners))
        while cols.size:
            try:
                return cols, run(cols)
            except BatchFitError as exc:
                for k, err in exc.failures.items():
                    problem, position = owners[cols[k]]
                    record(position, (problem, stage), err)
                cols = np.delete(cols, list(exc.failures))
        return cols, None

    def scores(cols):  # scores that every column shares stay shared
        return x if x.ndim == 2 else some(x, cols)

    svm_cols, stack.svm = fit(1, stack.owners,
                              lambda cols: svm_fit(scores(cols), some(y, cols), spec.svm_c))
    stack.svm_at = np.full(n, -1)
    stack.svm_at[svm_cols] = np.arange(len(svm_cols))
    stack.cal_at = np.full(n, -1)
    if stack.svm is None:
        return
    margins, labels = decision_values(stack.svm, scores(svm_cols)), some(y, svm_cols)
    stack.x = x = None  # the calibrations need only the margins
    cal_cols, stack.cal = fit(2, [stack.owners[i] for i in svm_cols],
                              lambda cols: calibrate(some(margins, cols), some(labels, cols)))
    stack.cal_at[svm_cols[cal_cols]] = np.arange(len(cal_cols))


def _part(model, cols: np.ndarray, size: int):
    """Columns ``cols``, increasing, of a batched model of ``size`` columns;
    the model itself when they are all of them, or when it is None."""
    return model if model is None or len(cols) == size else model.select(cols)


def fit_pipeline(
    spec: PipelineSpec, d: Dataset | Batch, plan: PermutationPlan | None = None,
    tag: str = "fit",
) -> FittedPipeline | FittedBatch:
    """Fit every stage of the pipeline on ``d``.

    A dataset is fitted as a batch of one column, under ``plan``, and
    comes back as a :class:`FittedPipeline`.  A :class:`Batch` is fitted
    column by column in arithmetic, but every stage handles all its
    columns at once; it comes back as a :class:`FittedBatch`, with the
    ``FitError`` of each column that could not be fitted.

    Raises
    ------
    ValueError
        On invalid region blocks or fewer than two classes.
    FitError
        On data-dependent failures of a dataset's fit (degenerate
        reduction, single-class pair, calibration non-convergence,
        training divergence).
    """
    batch = as_batch(d, plan)
    extractors, failures = _fit_extractors(spec, batch, tag)
    fitted = _fit_classifiers(
        spec, batch, extractors,
        lambda bi, pair, feats, y: _fit_reducer(spec, feats, y),
        failures,
    )
    return fitted if isinstance(d, Batch) else fitted.column(0)


@dataclass
class BlockMaps:
    """Frozen extractor state of one block for the alternative scheme.

    ``reducers`` maps each class pair to its frozen reducer; a shared
    (``pca``) reducer is the same object under every key, and ``none``
    maps every pair to ``None``.
    """

    columns: tuple[int, ...]
    ae_model: AeModel | None
    reducers: dict[tuple[int, int], LinearReducer | None]


@dataclass
class FixedMaps:
    blocks: list[BlockMaps]
    n_features: int


def fit_feature_maps(
    spec: PipelineSpec, d: Dataset, plan: PermutationPlan, tag: str = "extract"
) -> FixedMaps:
    """Fit extractor and reducer once, on unpermuted data.

    With two or more classes, a ``pls`` reducer is fit per class pair on
    the original labels.  One-condition data cannot drive a supervised
    reduction, so ``pca`` (or ``none``) must be used there; its maps
    cover the pair ``(0, 1)`` of the two pseudo-groups a type-1 replicate
    splits it into.
    """
    if spec.reducer == "pls" and d.class_count < 2:
        raise ValueError(
            "pls cannot be frozen on one-condition data; use reducer='pca' or 'none'"
        )
    pairs = list(combinations(range(max(d.class_count, 2)), 2))
    out = []
    extractors, failures = _fit_extractors(spec, Batch.of([d], [plan]), tag)
    if failures:
        raise failures[0]
    for cols, (ae_model,) in extractors:
        z = _encode(ae_model, d.features[:, cols])
        if spec.reducer == "pls":
            reducers = {}
            for pair in pairs:
                feats, y = _pair_data(z[None], d.labels[None], *pair)
                reducers[pair] = _fit_reducer(spec, feats[0], y[0])
        else:
            reducers = dict.fromkeys(pairs, _fit_reducer(spec, z, None))
        out.append(BlockMaps(cols, ae_model, reducers))
    return FixedMaps(out, d.n_features)


@dataclass
class AltPipeline:
    """Pipeline whose extractor/reducer are frozen; classifier refits.

    Exposes the same ``fit`` interface as :class:`PipelineSpec`, so the
    validation estimators accept either.  Fitting is deterministic given
    the data, so the plan argument is accepted but unused.
    """

    maps: FixedMaps
    spec: PipelineSpec

    def classifier_input_dim(self, n_features: int) -> int:
        return self.spec.classifier_input_dim(n_features)

    def fit(self, d: Dataset | Batch, plan: PermutationPlan | None = None,
            tag: str = "fit") -> FittedPipeline | FittedBatch:
        batch = as_batch(d, plan)
        if batch.n_features != self.maps.n_features:
            raise ValueError("dataset width differs from the mapped width")
        blocks = self.maps.blocks

        def frozen(bi, pair, feats, y):
            if pair not in blocks[bi].reducers:
                raise FitError(f"no frozen reducer for class pair {pair}")
            return blocks[bi].reducers[pair]

        extractors = [(bm.columns, (bm.ae_model,) * batch.size) for bm in blocks]
        fitted = _fit_classifiers(self.spec, batch, extractors, frozen)
        return fitted if isinstance(d, Batch) else fitted.column(0)
