"""Distribution-free confidence bounds on the resubstitution optimism.

Both bounds give a deviation term ``mu`` such that, with probability at
least ``1 - eta``, the actual error of a linear classifier trained on
``n`` samples of dimension ``d`` exceeds its resubstitution error by at
most ``mu``:

* :func:`empirical_bound` counts the labelings a ``d``-dimensional linear
  rule can realize on ``n - 1`` points (a sum of binomial coefficients)
  and applies a union bound,
* :func:`vapnik_bound` is the classical VC-dimension bound with
  ``h = d + 1`` for linear classifiers.

The binomial sum is evaluated in the log domain (log-gamma plus
log-sum-exp) so large ``n`` never overflows. Both are computed here with
the same floating-point steps as ``scipy.special.gammaln`` and
``scipy.special.logsumexp`` (scipy 1.17), so ``mu`` has the bits those
give, without importing scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import check, is_int, is_real


@dataclass(frozen=True)
class BoundSpec:
    """Inputs of a bound computation.

    Parameters
    ----------
    n : int
        Training-set size, at least 2.
    d : int
        Dimension of the classifier input, at least 1 and below ``n``.
    eta : float
        Confidence level parameter in (0, 1); the bound holds with
        probability at least ``1 - eta``.

    A value out of range or of the wrong type raises ``ConfigError``
    naming its field.
    """

    n: int
    d: int
    eta: float

    def __post_init__(self):
        n, d, eta = self.n, self.d, self.eta
        check(is_int(n) and n >= 2, "n", "must be an integer of at least 2")
        check(is_int(d) and d >= 1, "d", "must be a positive integer")
        check(d < n, "d", "must be smaller than n")
        check(is_real(eta) and 0.0 < eta < 1.0, "eta", "must lie strictly between 0 and 1")


def _log_gamma(k: int) -> float:
    """Return ``ln Gamma(k)`` for a positive integer ``k``.

    These are the steps and constants of cephes ``lgam`` (scipy's
    ``gammaln``) for integer arguments. Below 13 cephes multiplies
    ``(k-1)!`` out in floats, which is exact, and its rational
    approximation on [2, 3) is never reached; from 13 on it uses the
    Stirling series, to fewer terms as ``k`` grows.
    """
    if k < 13:
        return math.log(math.factorial(k - 1))
    x = float(k)
    q = (x - 0.5) * math.log(x) - x + 0.91893853320467274178  # ln sqrt(2 pi)
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        series = (7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p \
            + 0.0833333333333333333333
    else:
        series = (((8.11614167470508450300e-4 * p - 5.95061904284301438324e-4) * p
                   + 7.93650340457716943945e-4) * p - 2.77777777730099687205e-3) * p \
            + 8.33333333333331927722e-2
    return q + series / x


def _logsumexp(terms: list[float]) -> float:
    """Return ``ln(sum(exp(terms)))`` for finite terms.

    These are the steps of scipy 1.17's ``logsumexp``, on the same
    one-element arrays: the tied maxima are taken out of the sum and
    counted, the rest is summed shifted by the maximum, and the count
    comes back as ``log(m)``.
    """
    a = np.asarray(terms, dtype=np.float64)
    a_max = a.max(keepdims=True)
    at_max = a == a_max
    m = at_max.sum(keepdims=True, dtype=np.float64)
    s = np.exp(np.where(at_max, -np.inf, a) - a_max).sum(keepdims=True)
    s = np.where(s == 0, s, s / m)
    return float((np.log1p(s) + np.log(m) + a_max)[0])


def log_binomial_sum(n: int, k_max: int) -> float:
    """Return ``ln(sum_{k=0}^{k_max} C(n, k))`` computed in log space.

    ``k_max`` is clipped to ``n``; ``k_max = 0`` gives ``ln 1 = 0``.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if k_max < 0:
        raise ValueError("k_max must be non-negative")
    k_max = min(k_max, n)
    log_n_fact = _log_gamma(n + 1)
    terms = [
        log_n_fact - _log_gamma(k + 1) - _log_gamma(n - k + 1)
        for k in range(k_max + 1)
    ]
    return _logsumexp(terms)


def empirical_bound(spec: BoundSpec) -> float:
    """Deviation bound from the number of realizable linear labelings.

    Computes ``sqrt((ln 2 + ln sum_{k=0}^{d-1} C(n-1, k) - ln eta) / (2 n))``.
    For ``d = 1`` this reduces to ``sqrt(ln(2 / eta) / (2 n))``.
    """
    log_count = log_binomial_sum(spec.n - 1, spec.d - 1)
    return math.sqrt(
        (math.log(2.0) + log_count - math.log(spec.eta)) / (2.0 * spec.n)
    )


def vapnik_bound(spec: BoundSpec) -> float:
    """Classical VC deviation bound with ``h = d + 1``.

    Computes ``sqrt((h (ln(2 n / h) + 1) - ln(eta / 4)) / n)``.
    """
    h = spec.d + 1
    return math.sqrt(
        (h * (math.log(2.0 * spec.n / h) + 1.0) - math.log(spec.eta / 4.0)) / spec.n
    )
