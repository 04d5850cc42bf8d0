"""Error estimation schemes and the generalization diagnostic.

Three estimators of a pipeline's error share one interface:

* resubstitution — train and evaluate on the same rows,
* upper-bound-corrected resubstitution — resubstitution plus an
  analytic deviation bound ``mu`` (scheme ``rub``),
* k-fold cross-validation — the K per-fold test errors, kept separate
  rather than averaged.

Each takes a :class:`~permsig.dataset.Batch` of labelings, fits its
columns together, and gives each column, in order, its result or its
``FitError``; :func:`rub_error` alone fits one dataset and raises.

The generalization diagnostic is the relative optimism
``actual / empirical - 1`` of an empirical error estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bounds import BoundSpec, empirical_bound
from .dataset import Batch, Dataset
from .errors import FitError
from .rng import PermutationPlan


class Scheme(str, Enum):
    RESUB = "resub"
    RUB = "rub"
    KFOLD = "kfold"


@dataclass(frozen=True)
class ErrorEstimate:
    """One error value and the scheme that estimated it.

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
    return [value if isinstance(value, FitError) else ErrorEstimate(value, Scheme.RESUB)
            for value in fitted.errors(batch)]


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
    return ErrorEstimate(base.value + mu, Scheme.RUB, bound=mu, base_value=base.value)


def kfold_errors(
    pipeline, batch: Batch, folds: np.ndarray
) -> list[list[ErrorEstimate] | FitError]:
    """Per-fold test errors.

    ``folds`` is an (R, n) array of each column's fold for each of its
    rows, as :func:`~permsig.dataset.stratified_folds` gives; the folds
    are ``0 .. k-1``, and each holds rows in every column, the same
    number in all of them.  Gives one entry per column: the list of its
    K fold-wise test-error estimates (not their mean), or the
    ``FitError`` of the first fold it could not be fitted on (for example
    because its training rows are single-class), whose message names the
    fold.  Each fold is fitted for every column at once, on its rows in
    ascending order; a failed column is fitted on to the last fold, and
    its later folds' results are not read.

    Raises
    ------
    ValueError
        If ``folds`` is not of shape (R, n), holds a negative fold, or
        has a fold with no rows or with sizes that differ between columns.
    """
    folds = np.asarray(folds)
    if folds.shape != batch.labels.shape:
        raise ValueError(f"folds must have shape {batch.labels.shape}, one row per column")
    if folds.min() < 0:
        raise ValueError("fold ids must be non-negative")
    k = int(folds.max()) + 1
    sizes = np.array([np.bincount(fold_of, minlength=k) for fold_of in folds])
    if np.any(sizes == 0):
        raise ValueError("every fold must contain at least one row")
    if np.any(sizes != sizes[0]):
        raise ValueError("the folds of a batch's columns must have equal sizes")
    out: list = [[] for _ in range(batch.size)]
    for f in range(k):
        test = folds == f
        train_rows = np.nonzero(~test)[1].reshape(batch.size, -1)
        test_rows = np.nonzero(test)[1].reshape(batch.size, -1)
        fitted = pipeline.fit(batch.subset(train_rows), tag=f"fold{f}")
        for j, test_error in enumerate(fitted.errors(batch.subset(test_rows))):
            if isinstance(out[j], FitError):
                continue
            if isinstance(test_error, FitError):
                error = FitError(f"fold {f}: {test_error}")
                error.__cause__ = test_error
                out[j] = error
            else:
                out[j].append(ErrorEstimate(test_error, Scheme.KFOLD))
    return out


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
