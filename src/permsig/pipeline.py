"""Learning-pipeline composition: extractor, reducer, classifier stages.

A :class:`PipelineSpec` names the stages; fitting produces a
:class:`FittedPipeline` that predicts labels through calibrated
probabilities.  Feature columns may be split into disjoint region
blocks: each block trains its own sub-pipeline, per-sample class
probabilities are averaged across blocks, and the arg-max class wins
(ties to the lowest index).  With a single block this reduces exactly
to the plain pipeline.

Two fitting modes exist:

* :meth:`PipelineSpec.fit` refits every stage on the data it is given
  (the usual mode; used inside every fold and permutation replicate).
* :func:`fit_feature_maps` + :class:`AltPipeline` freeze the extractor
  and reducer on the original data, so only the classifier and its
  calibration are refit afterwards — the cheap alternative scheme for
  permutation nulls.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .autoenc import AeArchitecture, AeModel, ae_encode, ae_fit
from .dataset import Dataset
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
        check(is_real(c) and c > 0, "svm_c", "must be a positive number")
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
        or when ``pca_components`` exceeds the width a block's reducer sees.
        """
        blocks = self.region_blocks or (tuple(range(n_features)),)
        for bi, blk in enumerate(blocks):
            for col in blk:
                if not 0 <= col < n_features:
                    raise ConfigError("region_blocks", f"block {bi} references column {col}, "
                                      f"valid range is [0, {n_features})")
        width = self.ae.z_dim if self.ae is not None else min(map(len, blocks))
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

    def fit(self, d: Dataset, plan: PermutationPlan, tag: str = "fit") -> "FittedPipeline":
        return fit_pipeline(self, d, plan, tag)


@dataclass
class PairModel:
    """Calibrated pairwise classifier for classes ``(a, b)``; +1 = b."""

    a: int
    b: int
    reducer: LinearReducer | None
    svm: LinearSvm
    calibration: Calibration

    def probability(self, z: np.ndarray) -> np.ndarray:
        feats = reduce(self.reducer, z) if self.reducer is not None else z
        return calibrated_probability(self.calibration, decision_values(self.svm, feats))


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
        z = self.encode(x)
        scores = np.zeros((x.shape[0], self.class_count))
        for pair in self.pairs:
            p = pair.probability(z)
            scores[:, pair.b] += p
            scores[:, pair.a] += 1.0 - p
        return scores / len(self.pairs)


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


def _pair_data(z: np.ndarray, labels: np.ndarray, a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows of classes ``a`` and ``b`` with signed targets, +1 = ``b``."""
    rows = np.flatnonzero((labels == a) | (labels == b))
    y = np.where(labels[rows] == b, 1.0, -1.0)
    if np.unique(y).size < 2:
        raise FitError(f"class pair ({a}, {b}) is empty or single-class in training data")
    return z[rows], y


def _encode(ae_model: AeModel | None, xb: np.ndarray) -> np.ndarray:
    return ae_encode(ae_model, xb) if ae_model is not None else xb


def _fit_extractors(
    spec: PipelineSpec, d: Dataset, plan: PermutationPlan, tag: str
) -> list[tuple[tuple[int, ...], AeModel | None]]:
    """Columns and (when configured) a trained autoencoder per block."""
    blocks = spec.resolve_blocks(d.n_features)
    if spec.ae is None:
        return [(cols, None) for cols in blocks]
    return [
        (cols, ae_fit(d.features[:, cols], spec.ae, plan, tag=f"{tag}.b{bi}.ae"))
        for bi, cols in enumerate(blocks)
    ]


def _fit_reducer(spec: PipelineSpec, feats: np.ndarray, y: np.ndarray) -> LinearReducer | None:
    if spec.reducer == "pls":
        return pls1_fit(feats, y)
    if spec.reducer == "pca":
        # resolve_blocks has checked the width, so only the row count caps the rank here.
        cap = feats.shape[0] - 1
        if spec.pca_components > cap:
            raise FitError(
                f"pca_components={spec.pca_components} exceeds rank cap {cap} "
                f"of {feats.shape[0]} rows"
            )
        return pca_fit(feats, spec.pca_components)
    return None


def _fit_classifiers(spec: PipelineSpec, d: Dataset, extractors, reducer_for) -> FittedPipeline:
    """The one pairwise fit path of full and frozen pipelines.

    For every block and class pair, selects the pair's rows, takes the
    reducer from ``reducer_for(block_index, pair, feats, y)`` (fitted on
    those rows, or looked up in frozen maps), and fits the SVM and its
    calibration on the reduced scores.
    """
    if d.class_count < 2:
        raise ValueError("fitting requires at least two classes")
    fitted = []
    for bi, (cols, ae_model) in enumerate(extractors):
        z = _encode(ae_model, d.features[:, cols])
        pairs = []
        for a, b in combinations(range(d.class_count), 2):
            feats, y = _pair_data(z, d.labels, a, b)
            red = reducer_for(bi, (a, b), feats, y)
            scores = reduce(red, feats) if red is not None else feats
            svm = svm_fit(scores, y, spec.svm_c)
            cal = calibrate(decision_values(svm, scores), y)
            pairs.append(PairModel(a, b, red, svm, cal))
        fitted.append(FittedBlock(cols, ae_model, pairs, d.class_count))
    return FittedPipeline(fitted, d.class_count, d.n_features)


def fit_pipeline(
    spec: PipelineSpec, d: Dataset, plan: PermutationPlan, tag: str = "fit"
) -> FittedPipeline:
    """Fit every stage of the pipeline on ``d``.

    Raises
    ------
    ValueError
        On invalid region blocks or fewer than two classes.
    FitError
        On data-dependent failures (degenerate reduction, single-class
        pair, calibration non-convergence, training divergence).
    """
    return _fit_classifiers(
        spec,
        d,
        _fit_extractors(spec, d, plan, tag),
        lambda bi, pair, feats, y: _fit_reducer(spec, feats, y),
    )


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
    for cols, ae_model in _fit_extractors(spec, d, plan, tag):
        z = _encode(ae_model, d.features[:, cols])
        if spec.reducer == "pls":
            reducers = {pair: _fit_reducer(spec, *_pair_data(z, d.labels, *pair)) for pair in pairs}
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

    def fit(self, d: Dataset, plan: PermutationPlan, tag: str = "fit") -> FittedPipeline:
        if d.n_features != self.maps.n_features:
            raise ValueError("dataset width differs from the mapped width")
        blocks = self.maps.blocks

        def frozen(bi, pair, feats, y):
            if pair not in blocks[bi].reducers:
                raise FitError(f"no frozen reducer for class pair {pair}")
            return blocks[bi].reducers[pair]

        return _fit_classifiers(
            self.spec, d, [(bm.columns, bm.ae_model) for bm in blocks], frozen
        )
