"""Learning-pipeline composition: extractor, reducer, classifier stages.

A :class:`PipelineSpec` names the stages.  Fits take only a
:class:`~permsig.dataset.Batch`, columns of one dataset (``Batch.of(d,
[plan])`` for the dataset alone), and produce a :class:`FittedBatch`: the only fitted
type, which holds each failed column's ``FitError``.  Its calibrated class
probabilities of any rows of the batch's columns give their predicted
labels, and its errors.  Feature columns may be split into disjoint
region blocks: each block trains its own sub-pipeline, per-sample class
probabilities are averaged across blocks, and the arg-max class wins
(ties to the lowest index).  With a single block this reduces exactly
to the plain pipeline.

Every stage handles all columns of a batch at once, but a column's
arithmetic stays its own, so its fit and its probabilities do not depend
on the batch it is in.  The autoencoders of every column and block of
equal width and output activation train in one ``ae_fit`` call.  Each
autoencoder encodes the batch's one features array once, and each column
gathers its rows of the codes (a row shuffle or a fold subset).  The
classifier stage goes further: the pair problems of every block and
class pair with the same row count, +1 count and width are stacked along
the column axis, and each stack's SVMs and calibrations are fitted in
one call apiece.  The stage fits return ``(model, failures)``: a model
for every column and the ``FitError`` of each column that failed.
Failed columns are fitted alongside the others, so each stage runs once
per batch, and each stage gives a column that fails in it that stage's
zero model (see :class:`FittedBatch`), which it keeps to the end.  Only
:meth:`FittedBatch.errors` reads a failed column's ``FitError``.  A column
whose autoencoder fails carries the ``DivergenceError`` of its first
failing block.  Any other column that fails carries the ``FitError`` of
its first failing block and pair, and within those of its first failing
stage: reducer, SVM, then calibration.

Two fitting modes share that one pairwise fit path:

* :meth:`PipelineSpec.fit` refits every stage on the data it is given
  (the usual mode; used inside every fold and permutation replicate).
* :func:`fit_feature_maps` fits the extractor and reducer once, on the
  original data, and returns an :class:`AltPipeline` that holds them and
  their codes frozen, so its fits refit only the classifier and its
  calibration — the cheap alternative scheme for permutation nulls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product

import numpy as np

from .autoenc import AeArchitecture, AeModel, ae_encode, ae_fit
from .dataset import Batch, Dataset
from .dimred import LinearReducer, pca_fit, pls1_fit, reduce
from .errors import ConfigError, FitError, check, is_int, is_real
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
        Soft-margin cost of the linear SVM, unused when the classifier sees
        one feature (``pls``, ``pca`` with one component, or one-wide blocks
        or codes): no SVM is fitted there; see :mod:`permsig.linclass`.
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
            for i, col in enumerate(blk):
                if col in seen:
                    where = f"twice in block {bi}" if col in blk[:i] else "in more than one block"
                    raise ConfigError("region_blocks", f"column {col} appears {where}")
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

    def fit(self, batch: Batch, tag: str = "fit") -> "FittedBatch":
        """Fit every stage of the pipeline on each column of ``batch``.

        The result holds the ``FitError`` of each column that could not be
        fitted.  Invalid region blocks or fewer than two classes raise
        ``ValueError``.
        """
        extractors, failures = _fit_extractors(self, batch, tag)
        return _fit_classifiers(self, batch, extractors, failures=failures)


@dataclass
class PairModel:
    """Calibrated pairwise classifier for classes ``(a, b)``; +1 = b.

    In a :class:`FittedBatch` the reducer, SVM and calibration hold one
    model per column along a leading axis; a frozen reducer is a
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


def _choose(votes: np.ndarray) -> np.ndarray:
    """Each row's class, the first maximum of its (C, R, n) votes: one
    comparison per class plane is ``np.argmax`` on votes that are not NaN."""
    index, best = np.zeros(votes.shape[1:], dtype=np.intp), votes[0]
    for c in range(1, len(votes)):
        index += (votes[c] > best) * (c - index)
        best = np.maximum(best, votes[c])
    return index


@dataclass
class FittedBatch:
    """A pipeline fitted on every column of a batch; a dataset's fit is a
    batch of one.

    ``batch`` is the batch it was fitted on, and ``failures`` maps each
    column that failed to the ``FitError`` that stopped its fit.  Every
    stage gives a column that fails in it the zero model: autoencoder
    weights and biases of zero, a zero PLS direction, the SVM ``(0, 0)``,
    a calibration of slope 0.  Only :meth:`errors` reads its ``FitError``.
    Each block holds its feature columns, each column's autoencoder (or
    None), and its pair models, every one of which holds one model per
    column along a leading axis.  ``codes`` keeps the encoded features
    already computed of the batch's own features array (another array's
    codes last one call), and ``margins`` the (R, n) margins the fit
    computed, by block and pair index, of each pair of all the rows of
    ``batch`` when those are all the rows of its features.
    """

    blocks: list[tuple[tuple[int, ...], tuple[AeModel | None, ...], list[PairModel]]]
    batch: Batch = field(repr=False)
    failures: dict[int, FitError]
    codes: dict = field(repr=False)
    margins: dict = field(repr=False, compare=False)

    def probabilities(self, batch: Batch) -> np.ndarray:
        """Each column's class probabilities of its rows in ``batch``.

        ``batch`` has the columns of the fitted batch, with any of their
        rows.  The result is (R, n, class_count), failed columns included:
        the pairwise votes of each block, averaged over the blocks, or all
        zero when every column failed.  Each is a probability in [0, 1],
        never NaN.  The array is a view of one contiguous (R, n) plane per
        class.  On the batch object the fit was given, a pair fitted on all
        its rows takes the margins its fit computed, the bits of margins
        computed again.
        """
        own = self.batch
        if batch.n_features != own.n_features:
            raise ValueError(f"batch must have {own.n_features} features, "
                             f"got {batch.n_features}")
        if batch.size != own.size:
            raise ValueError(f"batch must have the fit's {own.size} columns, got {batch.size}")
        if len(self.failures) == batch.size:
            return np.zeros((batch.size, batch.n, own.class_count))
        votes, kept = [], self.margins if batch is own else {}
        cache = self.codes if batch.features is own.features else {}  # keep no foreign codes
        for bi, (cols, models, pairs) in enumerate(self.blocks):
            scores, z = np.zeros((own.class_count, batch.size, batch.n)), None
            for pi, pair in enumerate(pairs):
                margins = kept.get((bi, pi))
                if margins is None:
                    z = _codes(batch, cols, models, cache) if z is None else z
                    p = pair.probability(z)
                else:
                    p = calibrated_probability(pair.calibration, margins)
                scores[pair.b] += p
                scores[pair.a] += 1.0 - p
            votes.append(scores / len(pairs))
        return np.moveaxis(np.stack(votes).mean(axis=0), 0, -1)

    def errors(self, batch: Batch) -> list[float | FitError]:
        """Each column's misclassified fraction of its rows in ``batch``.

        A row goes to its most probable class, ties to the lowest index
        (see :func:`_choose`).  A column that failed gets its ``FitError``
        instead.
        """
        predicted = _choose(np.moveaxis(self.probabilities(batch), -1, 0))
        out: list = [float(count / batch.n)
                     for count in np.count_nonzero(predicted != batch.labels, axis=1)]
        for j, exc in self.failures.items():
            out[j] = exc
        return out


def _codes(batch: Batch, cols: tuple[int, ...], models, cache: dict) -> np.ndarray:
    """Each column's rows of one block, encoded.

    Features are encoded here alone, once per model, and kept in
    ``cache``.  When every column has all rows of the same codes, those
    (n, width) codes serve them all; otherwise each column gathers its
    rows into an (R, n, width) array.
    """
    feats, codes = batch.features, []
    for model in models:
        key = (id(feats), id(model), cols)
        if key not in cache:  # the entry holds its keys' objects, so their ids stay unique
            # a block of some columns is a copy in C order, whose layout the reducers' bits need
            block = feats if cols == tuple(range(feats.shape[1])) else feats.take(cols, axis=1)
            cache[key] = (feats, model, block if model is None else ae_encode(model, block))
        codes.append(cache[key][2])
    shared = all(z is codes[0] for z in codes)
    if batch.rows is None:
        return codes[0] if shared else np.stack(codes)
    if shared:
        return codes[0][batch.rows]
    return np.stack([z[rows] for z, rows in zip(codes, batch.rows)])


def _pair_rows(labels: np.ndarray, a: int, b: int) -> tuple[np.ndarray | None, np.ndarray]:
    """Each column's rows of classes ``a`` and ``b`` in the (R, n) ``labels``
    (None when they are all its rows), with signed targets, +1 = ``b``.  Every
    column must hold as many rows of ``a``, and of ``b``, as every other."""
    n_a, n_b = (labels == a).sum(axis=1), (labels == b).sum(axis=1)
    if np.any(n_a != n_a[0]) or np.any(n_b != n_b[0]):
        raise ValueError("columns of a batch need equal class counts")
    if n_a[0] == 0 or n_b[0] == 0:
        raise FitError(f"class pair ({a}, {b}) is empty or single-class in training data")
    if n_a[0] + n_b[0] == labels.shape[1]:
        return None, np.where(labels == b, 1.0, -1.0)
    rows = np.nonzero((labels == a) | (labels == b))[1].reshape(len(labels), -1)
    return rows, np.where(np.take_along_axis(labels, rows, axis=1) == b, 1.0, -1.0)


def _pair_data(z: np.ndarray, rows: np.ndarray | None, y: np.ndarray):
    """The ``rows`` and targets ``y`` of :func:`_pair_rows`, with ``z`` each
    column's rows, (R, n, width), or rows shared by all columns, (n, width)."""
    if rows is not None:
        z = z[rows] if z.ndim == 2 else np.take_along_axis(z, rows[:, :, None], axis=1)
    return z, y


def _fit_extractors(spec: PipelineSpec, batch: Batch, tag: str):
    """Each block's columns and each column's trained autoencoder (when
    configured), plus the ``FitError`` of every column whose training failed.

    The autoencoders of every column and block with the same width and
    output activation train in one ``ae_fit`` call.  A column that fails
    keeps the ``DivergenceError`` of its first failing block; each block
    it fails in holds the zero model ``ae_fit`` gives it, so its codes
    are finite constants.
    """
    blocks = spec.resolve_blocks(batch.n_features)
    if spec.ae is None:
        return [(cols, (None,) * batch.size) for cols in blocks], {}
    stacks: dict[tuple[int, str], list] = {}  # (width, activation) -> [((block, column), rows)]
    for (bi, cols), j in product(enumerate(blocks), range(batch.size)):
        rows = batch.column_rows(j)[:, cols]
        stacks.setdefault((len(cols), spec.ae.output_for(rows)), []).append(((bi, j), rows))
    models = [[None] * batch.size for _ in blocks]
    first: dict[int, tuple[int, FitError]] = {}  # column -> (block, error)
    for key in list(stacks):
        members, rows = zip(*stacks.pop(key))
        x, rows = np.stack(rows), None
        keys = [(batch.plans[j], f"{tag}.b{bi}.ae") for bi, j in members]
        fitted, failed = ae_fit(x, spec.ae, keys)
        for k, (bi, j) in enumerate(members):
            models[bi][j] = fitted[k]
            if k in failed and (j not in first or bi < first[j][0]):
                first[j] = (bi, failed[k])
    return ([(cols, tuple(ms)) for cols, ms in zip(blocks, models)],
            {j: first[j][1] for j in sorted(first)})


def _fit_reducer(spec: PipelineSpec, feats: np.ndarray, y: np.ndarray):
    """The reducer of ``feats``, or None, and the ``FitError`` of each
    column it failed on; ``y`` holds each column's signed targets."""
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
        return pca_fit(feats, spec.pca_components), {}
    return None, {}


def _fit_classifiers(spec: PipelineSpec, batch: Batch, extractors, reducers: dict | None = None,
                     failures: dict | None = None, codes: dict | None = None) -> FittedBatch:
    """The one pairwise fit path of full and frozen pipelines.

    Every block and class pair is a pair problem: each column's rows of
    the pair, reduced by the frozen reducer ``reducers[block_index,
    pair]``, or, when ``reducers`` is None, by a reducer fitted on those
    rows, which records the ``FitError`` of each column it failed on.
    Blocks are encoded through ``codes`` (a new cache when None).  The
    problems' scores are stacked along the column axis, one stack per row
    count, +1 count and width, and each stack's SVMs and calibrations are
    fitted in one call apiece.

    Every stage fits every column, the failed ones too, whose models stay
    finite, and the result holds them all.  A column fails with the
    ``FitError`` of ``failures`` (its extractor's) when it has one, else
    with that of its first failing problem, in block and then pair order,
    and within a problem of its first failing stage: reducer, SVM,
    calibration.  That is the error a batch of the column alone records.
    A ``FitError`` that every column shares ends the problems; the stacks
    of the problems before it are still fitted, as their errors come first.
    """
    if batch.class_count < 2:
        raise ValueError("fitting requires at least two classes")
    size, codes = batch.size, {} if codes is None else codes
    first: dict[int, tuple[tuple[int, int], FitError]] = {}  # column -> (problem, stage)
    selected = {}  # each class pair's rows and targets, chosen once for every block

    def record(owners, stage: int, errors: dict) -> None:
        """Keep each column's earliest error.  ``errors`` are keyed by the
        index of a column in a stack of the problems ``owners``."""
        for i, exc in errors.items():
            k, order = i % size, (owners[i // size], stage)
            if k not in first or order < first[k][0]:
                first[k] = (order, exc)

    problems = []  # (block, pair, reducer, stack key), in block and then pair order
    stacks: dict[tuple[int, int, int], list] = {}  # key -> [(problem, scores, targets)]
    block = None
    for p, (bi, (a, b)) in enumerate(product(range(len(extractors)),
                                             combinations(range(batch.class_count), 2))):
        if block != bi:
            cols, models = extractors[bi]
            z, block = _codes(batch, cols, models, codes), bi
        try:
            if (a, b) not in selected:
                selected[a, b] = _pair_rows(batch.labels, a, b)
            feats, y = _pair_data(z, *selected[a, b])
            if reducers is None:
                red, failed = _fit_reducer(spec, feats, y)
            else:
                red, failed = reducers[bi, (a, b)], {}
        except FitError as exc:  # one that every column shares
            record([p], 0, dict.fromkeys(range(size), exc))
            break
        record([p], 0, failed)
        scores = reduce(red, feats) if red is not None else feats
        key = (y.shape[1], int(np.count_nonzero(y[0] > 0)), scores.shape[-1])
        problems.append((bi, (a, b), red, key))
        stacks.setdefault(key, []).append((p, scores, y))
    z = feats = scores = selected = None  # the stacks alone hold the scores and targets now

    fits = {}
    for key in list(stacks):
        owners, scores, targets = zip(*stacks.pop(key))
        if len(owners) == 1:  # a lone problem keeps its own arrays, (n, w) scores too
            x, y = scores[0], targets[0]
        else:
            x = np.concatenate([np.broadcast_to(s, (size,) + s.shape[-2:]) for s in scores])
            y = np.concatenate(targets)
        scores = targets = None
        svm, failed = svm_fit(x, y, spec.svm_c)
        record(owners, 1, failed)
        margins = decision_values(svm, x)
        x = None  # the calibrations need only the margins
        cal, failed = calibrate(margins, y)
        record(owners, 2, failed)
        whole = key[0] == batch.n == batch.features.shape[0]  # a resubstitution batch, not a fold
        fits[key] = (owners, svm, cal, margins if whole else None)

    failures = {k: exc for k, (_, exc) in first.items()} | (failures or {})
    fitted: list[list[PairModel]] = [[] for _ in extractors]
    kept = {}  # the margins of each pair of all the batch's rows
    for p, (bi, (a, b), red, key) in enumerate(problems):
        owners, svm, cal, margins = fits[key]
        if len(owners) > 1:  # the problem's columns of its stack
            at = owners.index(p) * size
            at = slice(at, at + size)
            svm, cal = svm.select(at), cal.select(at)
            margins = None if margins is None else margins[at]
        if margins is not None:
            kept[bi, len(fitted[bi])] = margins
        fitted[bi].append(PairModel(a, b, red, svm, cal))
    blocks = [(cols, models, pairs) for (cols, models), pairs in zip(extractors, fitted)]
    return FittedBatch(blocks, batch, failures, codes, kept)


def fit_feature_maps(spec: PipelineSpec, d: Dataset, plan: PermutationPlan) -> "AltPipeline":
    """The pipeline of ``spec`` with its extractor and reducer frozen on ``d``.

    The autoencoders train once, on unpermuted data, from the streams of
    ``plan`` under the tag ``extract``.  A ``pls`` reducer is fit per class
    pair on the original labels, by the same reducer fit as a full
    pipeline's; ``pca`` is fit once per block on all rows and shared by
    every pair.  One-condition data cannot drive a supervised reduction, so
    ``pca`` (or ``none``) must be used there; its reducers cover the pair
    ``(0, 1)`` of the two pseudo-groups a type-1 replicate splits it into.
    A failed fit raises its ``FitError``.  The pipeline keeps the codes.
    """
    if spec.reducer == "pls" and d.class_count < 2:
        raise ValueError(
            "pls cannot be frozen on one-condition data; use reducer='pca' or 'none'"
        )
    pairs = list(combinations(range(max(d.class_count, 2)), 2))
    batch, codes = Batch.of(d, [plan]), {}
    extractors, failures = _fit_extractors(spec, batch, "extract")
    if failures:
        raise failures[0]
    frozen = [(cols, model) for cols, (model,) in extractors]
    reducers = {}
    for bi, (cols, model) in enumerate(frozen):
        z = _codes(batch, cols, (model,), codes)
        if spec.reducer == "pls":
            for pair in pairs:
                pair_rows = _pair_rows(d.labels[None], *pair)
                red, failed = _fit_reducer(spec, *_pair_data(z[None], *pair_rows))
                if failed:
                    raise failed[0]
                reducers[bi, pair] = red.select(0)
        else:
            shared = _fit_reducer(spec, z, None)[0]
            reducers.update({(bi, pair): shared for pair in pairs})
    return AltPipeline(spec, frozen, reducers, d.n_features, codes)


@dataclass
class AltPipeline:
    """A pipeline whose extractor and reducer are frozen; only the
    classifier and its calibration refit.

    ``extractors`` holds each block's columns and frozen autoencoder (or
    None), and ``reducers`` maps each block index and class pair to its
    frozen reducer (None for ``none``); a ``pca`` reducer is one object
    under every pair of its block; ``codes`` holds the codes they were
    fitted on, which each fit copies.  Built by :func:`fit_feature_maps`.
    It has the ``fit(batch, tag)`` of :class:`PipelineSpec`, so the
    validation estimators accept either.  Fitting is deterministic given
    the data, so the columns' plans go unused.
    """

    spec: PipelineSpec
    extractors: list[tuple[tuple[int, ...], AeModel | None]]
    reducers: dict[tuple[int, tuple[int, int]], LinearReducer | None]
    n_features: int
    codes: dict = field(repr=False, compare=False)

    def classifier_input_dim(self, n_features: int) -> int:
        return self.spec.classifier_input_dim(n_features)

    def fit(self, batch: Batch, tag: str = "fit") -> FittedBatch:
        """Fit the classifier stage on each column of ``batch``.

        A batch of another width, or with a class pair that has no frozen
        reducer, raises ``ValueError``.
        """
        if batch.n_features != self.n_features:
            raise ValueError("dataset width differs from the mapped width")
        for pair in combinations(range(batch.class_count), 2):
            if (0, pair) not in self.reducers:
                raise ValueError(f"no frozen reducer for class pair {pair}")
        extractors = [(cols, (model,) * batch.size) for cols, model in self.extractors]
        return _fit_classifiers(self.spec, batch, extractors, self.reducers, codes=dict(self.codes))
