"""Error estimation schemes and the generalization diagnostic.

Three estimators of a pipeline's error share one interface:

* resubstitution — train and evaluate on the same rows,
* upper-bound-corrected resubstitution — resubstitution plus an
  analytic deviation bound ``mu`` (scheme ``rub``),
* k-fold cross-validation — the K per-fold test errors, kept separate
  rather than averaged.

Each takes a :class:`~permsig.dataset.Batch` of labelings, fits its
columns together, and gives each column its result or its ``FitError``;
:func:`rub_error` alone fits one dataset and raises.

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
from .dataset import Batch, Dataset, FoldAssignment
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


def resub_error(pipeline, batch: Batch) -> list[ErrorEstimate | FitError]:
    """Train on all rows and evaluate on the same rows.

    The columns of ``batch`` are fitted together, each under its own
    plan.  Gives one entry per column: its ``ErrorEstimate``, or the
    ``FitError`` that stopped its fit.
    """
    fitted = pipeline.fit(batch, tag="resub")
    return [_estimate(value, Scheme.RESUB, plan)
            for value, plan in zip(fitted.errors(batch), batch.plans)]


def _estimate(value, scheme: Scheme, plan: PermutationPlan, fold: int | None = None):
    if isinstance(value, FitError):
        return value
    return ErrorEstimate(value, scheme, fold=fold, iteration=plan.replicate_index)


def rub_error(
    pipeline, d: Dataset, plan: PermutationPlan, bound_spec: BoundSpec
) -> ErrorEstimate:
    """Resubstitution error plus the empirical deviation bound.

    The value is exactly ``resub.value + mu`` — a single addition — and
    the accuracy view is exactly ``resub.accuracy - mu``; both
    identities are bit-exact.  A failed fit of ``d`` raises its ``FitError``.
    """
    (base,) = resub_error(pipeline, Batch.of(d, [plan]))
    if isinstance(base, FitError):
        raise base
    mu = empirical_bound(bound_spec)
    return ErrorEstimate(
        base.value + mu,
        Scheme.RUB,
        iteration=plan.replicate_index,
        bound=mu,
        base_value=base.value,
    )


def kfold_errors(
    pipeline, batch: Batch, folds: Sequence[FoldAssignment]
) -> list[list[ErrorEstimate] | FitError]:
    """Per-fold test errors.

    ``folds`` holds one fold assignment per column of ``batch``, all with
    the same fold sizes.  Gives one entry per column: the list of its K
    fold-wise test-error estimates (not their mean), or the ``FitError``
    of the first fold it could not be fitted on (for example because its
    training rows are single-class), whose message names the fold.  Each
    fold is fitted for every column still standing at once.

    Raises
    ------
    ValueError
        If there is not one fold assignment per column, or an
        assignment's length does not match the row count.
    """
    folds = list(folds)
    if len(folds) != batch.size or any(fa.fold_of.shape[0] != batch.n for fa in folds):
        raise ValueError("need one fold assignment per column, each of the row count's length")
    out: list = [[] for _ in range(batch.size)]
    for f in range(folds[0].k):
        standing = [j for j in range(batch.size) if not isinstance(out[j], FitError)]
        if not standing:
            break
        live = batch.select(standing)
        train = _fold_rows([folds[j].train_rows(f) for j in standing])
        test = _fold_rows([folds[j].test_rows(f) for j in standing])
        fitted = pipeline.fit(live.subset(train), tag=f"fold{f}")
        for j, test_error in zip(standing, fitted.errors(live.subset(test))):
            if isinstance(test_error, FitError):
                error = FitError(f"fold {f}: {test_error}")
                error.__cause__ = test_error
                out[j] = error
            else:
                out[j].append(_estimate(test_error, Scheme.KFOLD, batch.plans[j], fold=f))
    return out


def _fold_rows(rows: list[np.ndarray]) -> np.ndarray:
    if any(r.shape != rows[0].shape for r in rows):
        raise ValueError("the folds of a batch's columns must have equal sizes")
    return np.stack(rows)


def generalization_ratio(e_emp: float, e_act: float) -> float:
    """Relative optimism ``e_act / e_emp - 1``.

    A zero empirical error gives 0 when the actual error is also zero
    and ``+inf`` otherwise.
    """
    if e_emp < 0 or e_act < 0:
        raise ValueError("error rates must be non-negative")
    if e_emp == 0.0:
        return 0.0 if e_act == 0.0 else math.inf
    return e_act / e_emp - 1.0
