"""Error estimation schemes and the generalization diagnostic.

Three estimators of a pipeline's error share one interface:

* resubstitution — train and evaluate on the same rows,
* upper-bound-corrected resubstitution — resubstitution plus an
  analytic deviation bound ``mu`` (scheme ``rub``),
* k-fold cross-validation — the K per-fold test errors, kept separate
  rather than averaged, plus the matching per-fold training errors.

Each takes one dataset or a :class:`~permsig.dataset.Batch` of
labelings, whose columns it fits together.

The generalization diagnostic is the relative optimism
``actual / empirical - 1`` of an empirical error estimate.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bounds import BoundSpec, empirical_bound
from .dataset import Batch, Dataset, FoldAssignment, as_batch
from .errors import FitError
from .rng import PermutationPlan


class Scheme(str, Enum):
    RESUB = "resub"
    RUB = "rub"
    KFOLD = "kfold"


@dataclass(frozen=True)
class ErrorEstimate:
    """One error value with its provenance.

    ``value`` lies in [0, 1] except for the ``rub`` scheme, where it is
    the resubstitution error plus the bound and may reach ``1 + bound``.
    Bound-corrected estimates also keep the uncorrected error in
    ``base_value``; the accuracy view then subtracts the bound from the
    uncorrected accuracy directly, so it matches a caller doing the same
    subtraction bit for bit (``1 - (e + mu)`` and ``(1 - e) - mu`` can
    differ in the last place).
    """

    value: float
    scheme: Scheme
    fold: int | None = None
    iteration: int = 0
    bound: float | None = None
    base_value: float | None = None

    def __post_init__(self):
        ceiling = 1.0 + (self.bound or 0.0)
        if not 0.0 <= self.value <= ceiling + 1e-12:
            raise ValueError(f"error value {self.value} outside [0, {ceiling}]")

    @property
    def accuracy(self) -> float:
        """Complementary accuracy view, ``1 - value``."""
        if self.base_value is not None and self.bound is not None:
            return (1.0 - self.base_value) - self.bound
        return 1.0 - self.value


@dataclass(frozen=True)
class GeneralizationDiagnostic:
    """Relative optimism of an empirical error estimate."""

    empirical: float
    actual: float
    ratio: float


def resub_error(pipeline, d: Dataset | Batch, plan: PermutationPlan | None = None):
    """Train on all rows and evaluate on the same rows.

    ``d`` is one dataset, fitted under ``plan``, or a :class:`Batch`
    whose columns are fitted together, each under its own plan.  A batch
    gives one entry per column: its ``ErrorEstimate``, or the
    ``FitError`` that stopped its fit.
    """
    batch = as_batch(d, plan)
    fitted = pipeline.fit(batch, tag="resub")
    out = [_estimate(value, Scheme.RESUB, p) for value, p in zip(fitted.errors(batch), batch.plans)]
    return out if isinstance(d, Batch) else _only(out)


def _estimate(value, scheme: Scheme, plan: PermutationPlan, fold: int | None = None):
    if isinstance(value, FitError):
        return value
    return ErrorEstimate(value, scheme, fold=fold, iteration=plan.replicate_index)


def _only(out: list):
    """The one column's result; its ``FitError`` is raised."""
    if isinstance(out[0], FitError):
        raise out[0]
    return out[0]


def rub_error(
    pipeline, d: Dataset, plan: PermutationPlan, bound_spec: BoundSpec
) -> ErrorEstimate:
    """Resubstitution error plus the empirical deviation bound.

    The value is exactly ``resub.value + mu`` — a single addition — and
    the accuracy view is exactly ``resub.accuracy - mu``; both
    identities are bit-exact.
    """
    base = resub_error(pipeline, d, plan)
    mu = empirical_bound(bound_spec)
    return ErrorEstimate(
        base.value + mu,
        Scheme.RUB,
        iteration=plan.replicate_index,
        bound=mu,
        base_value=base.value,
    )


def kfold_errors(
    pipeline,
    d: Dataset | Batch,
    folds: FoldAssignment | Sequence[FoldAssignment],
    plan: PermutationPlan | None = None,
):
    """Per-fold test errors and matching training errors.

    Returns the K fold-wise test-error estimates (not their mean) and
    the K training errors of the same fitted models, for the
    generalization diagnostic.  A :class:`Batch` takes one fold
    assignment per column, all with the same fold sizes, and gives one
    entry per column: its ``(tests, trains)``, or the ``FitError`` of the
    first fold it could not be fitted on.  Each fold is fitted for every
    column still standing at once.

    Raises
    ------
    ValueError
        If a fold assignment's length does not match the row count.
    FitError
        When a dataset's fold cannot be fitted (for example its training
        rows are single-class); the message names the fold.
    """
    batch = as_batch(d, plan)
    folds = [folds] if isinstance(folds, FoldAssignment) else list(folds)
    if len(folds) != batch.size or any(fa.fold_of.shape[0] != batch.n for fa in folds):
        raise ValueError("fold assignment length must equal the row count")
    out: list = [([], []) for _ in range(batch.size)]
    for f in range(folds[0].k):
        standing = [j for j in range(batch.size) if not isinstance(out[j], FitError)]
        if not standing:
            break
        live = batch.select(standing)
        train = _fold_rows([folds[j].train_rows(f) for j in standing])
        test = _fold_rows([folds[j].test_rows(f) for j in standing])
        fitted = pipeline.fit(live.subset(train), tag=f"fold{f}")
        tests = fitted.errors(live.subset(test))
        trains = fitted.errors(live.subset(train))
        for j, test_error, train_error in zip(standing, tests, trains):
            if isinstance(test_error, FitError):
                error = FitError(f"fold {f}: {test_error}")
                error.__cause__ = test_error
                out[j] = error
            else:
                out[j][0].append(_estimate(test_error, Scheme.KFOLD, batch.plans[j], fold=f))
                out[j][1].append(train_error)
    return out if isinstance(d, Batch) else _only(out)


def _fold_rows(rows: list[np.ndarray]) -> np.ndarray:
    if any(r.shape != rows[0].shape for r in rows):
        raise ValueError("the folds of a batch's columns must have equal sizes")
    return np.stack(rows)


def generalization_ratio(e_emp: float, e_act: float) -> GeneralizationDiagnostic:
    """Relative optimism ``e_act / e_emp - 1``.

    A zero empirical error gives 0 when the actual error is also zero
    and ``+inf`` otherwise.
    """
    if e_emp < 0 or e_act < 0:
        raise ValueError("error rates must be non-negative")
    if e_emp == 0.0:
        ratio = 0.0 if e_act == 0.0 else math.inf
    else:
        ratio = e_act / e_emp - 1.0
    return GeneralizationDiagnostic(e_emp, e_act, ratio)
