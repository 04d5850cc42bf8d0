"""Linear soft-margin classification with calibrated probabilities.

The pieces here are deliberately self-contained:

* :func:`svm_fit` trains a linear soft-margin SVM, a minimizer of
  ``0.5 * ||w||^2 + c * sum(max(0, 1 - y * (w @ x + b)))``: exactly, in
  closed form, on one feature, and by sequential minimal optimization on
  the dual, to a duality-gap tolerance, on more.  With balanced classes
  the dual corner ``alpha = c`` is tested first; when it is certified
  optimal no SMO step runs, so ``tol`` and ``max_passes`` go unused and no
  ``FitError`` can occur.
* :func:`calibrate` fits a sigmoid ``p = sigma(slope * margin + intercept)``
  to training margins by damped Newton iterations on the Bernoulli
  log-likelihood with the usual smoothed targets, so separable margins
  still yield a finite optimum.

On one feature the cost ``c`` cannot change the calibrated probabilities:
for any ``w != 0`` the sigmoids of ``w * s + b`` are the sigmoids of ``s``
itself, so calibration reaches the same maximum-likelihood fit (Platt
1999; Lin, Lin & Weng 2007) whatever the SVM's weight.  Only an optimum of
``w = 0`` differs, where the margin is constant, and whether the optimum
is ``w = 0`` does not depend on ``c``: with ``k`` minority rows of mean
score ``mu``, it is exactly when ``mu`` lies between the means of the
``k`` smallest and the ``k`` largest majority scores.

One-vs-one voting over class pairs and the region-block average live in
:mod:`permsig.pipeline`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FitError

_TAU = 1e-12  # curvature floor in the SMO subproblem


@dataclass(frozen=True)
class LinearSvm:
    """Fitted linear decision function ``f(x) = weights @ x + bias``."""

    weights: np.ndarray
    bias: float
    c: float

    def __post_init__(self):
        w = np.array(self.weights, dtype=np.float64, copy=True)
        if w.ndim != 1:
            raise ValueError("weights must be 1-D")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True)
class Calibration:
    """Sigmoid map from margins to probabilities of the +1 class."""

    slope: float
    intercept: float


def decision_values(m: LinearSvm, x: np.ndarray) -> np.ndarray:
    """Signed margins ``x @ weights + bias`` for each row of ``x``."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != m.weights.shape[0]:
        raise ValueError("x has the wrong number of columns")
    return x @ m.weights + m.bias


def svm_objective(x: np.ndarray, y: np.ndarray, w: np.ndarray, b: float, c: float) -> float:
    """Primal soft-margin objective at ``(w, b)``."""
    margins = x @ w + b
    hinge = np.maximum(0.0, 1.0 - y * margins)
    return 0.5 * float(w @ w) + c * float(hinge.sum())


def svm_fit(
    x: np.ndarray,
    y: np.ndarray,
    c: float = 1.0,
    tol: float = 1e-6,
    max_passes: int = 10_000,
) -> LinearSvm:
    """Train a linear soft-margin SVM.

    On one feature the optimum is found exactly (see :func:`_svm_1d`) and
    ``tol`` and ``max_passes`` are unused.  Otherwise solves the dual
    box-constrained problem by pairwise coordinate updates with
    second-order working-set selection, stopping when the duality gap
    falls below ``tol`` relative to the primal.  With balanced classes the
    corner ``alpha = c`` is tried first, under the same stopping tests;
    when it is certified optimal, as for heavily overlapping classes, no
    update runs, ``tol`` and ``max_passes`` go unused and no ``FitError``
    can occur.

    Parameters
    ----------
    x : ndarray, shape (n, d)
    y : ndarray, shape (n,)
        Signed labels; both of ``-1`` and ``+1`` must be present.
    c : float
        Misclassification cost, positive.

    Raises
    ------
    ValueError
        On malformed input, non-positive ``c``, or a single-class ``y``.
    FitError
        If the duality gap is still above ``tol`` after ``max_passes``
        passes.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2 or y.ndim != 1 or y.shape[0] != x.shape[0]:
        raise ValueError("x must be (n, d) and y (n,)")
    if not np.all(np.isin(np.unique(y), (-1.0, 1.0))):
        raise ValueError("y must contain only -1 and +1")
    if c <= 0:
        raise ValueError("c must be positive")
    pos = y > 0
    n_pos = int(pos.sum())
    n = y.shape[0]
    if n_pos == 0 or n_pos == n:
        raise ValueError("both label signs must be present")
    if x.shape[1] == 1:
        w, b = _svm_1d(x[:, 0], y, float(c))
        return LinearSvm(np.array([w]), b, float(c))

    # The dual's Hessian Q_kl = y_k y_l x_k . x_l is never formed: a step
    # needs only the kernel columns x @ x_i and x @ x_j, so memory stays
    # O(n * d).  ``myg`` is -y * (dual gradient), which equals y - x @ w.
    if 2 * n_pos == n:
        # Balanced classes make alpha = c feasible.  Where permuted labels
        # overlap it is often the optimum, which SMO would reach only after
        # n / 2 capped steps from the warm start below.  It is returned when
        # it passes the same KKT and duality-gap tests that end an SMO pass.
        alpha = np.full(n, float(c))
        myg = y - x @ (x.T @ (alpha * y))
        if myg[~pos].max() - myg[pos].min() < 1e-10:
            w, b, gap_ok = _gap_test(x, y, alpha, myg, pos, c, tol)
            if gap_ok:
                return LinearSvm(w, b, float(c))

    sq = np.einsum("ij,ij->i", x, x)
    # Feasible warm start near the typical non-separable solution.
    nu = 0.9 * c * min(n_pos, n - n_pos)
    alpha = np.where(pos, nu / n_pos, nu / (n - n_pos))
    myg = y - x @ (x.T @ (alpha * y))
    # Indices that may move up or down; a step changes only i's and j's.
    up = (pos & (alpha < c)) | (~pos & (alpha > 0.0))
    low = (pos & (alpha > 0.0)) | (~pos & (alpha < c))

    for _ in range(max_passes):
        for _ in range(n):
            up_vals = np.where(up, myg, -np.inf)
            i = int(np.argmax(up_vals))
            m_up = up_vals[i]
            if m_up - np.where(low, myg, np.inf).min() < 1e-10:
                break
            diff = m_up - myg
            k_i = x @ x[i]
            curv = np.maximum(sq[i] + sq - 2.0 * k_i, _TAU)
            gain = np.where(low & (diff > 0.0), diff * diff / curv, -np.inf)
            j = int(np.argmax(gain))
            step = diff[j] / curv[j]
            cap_i = (c - alpha[i]) if y[i] > 0 else alpha[i]
            cap_j = alpha[j] if y[j] > 0 else (c - alpha[j])
            step = min(step, cap_i, cap_j)
            alpha[i] += y[i] * step
            alpha[j] -= y[j] * step
            myg -= step * (k_i - x @ x[j])
            for t in (i, j):
                up[t] = alpha[t] < c if pos[t] else alpha[t] > 0.0
                low[t] = alpha[t] > 0.0 if pos[t] else alpha[t] < c

        w, b, gap_ok = _gap_test(x, y, alpha, myg, pos, c, tol)
        if gap_ok:
            return LinearSvm(w, b, float(c))
    raise FitError(f"SVM duality gap still above tol {tol} after {max_passes} passes")


def _gap_test(x, y, alpha, myg, pos, c, tol) -> tuple[np.ndarray, float, bool]:
    """Primal ``(w, b)`` of a dual point, and whether its duality gap is
    below ``tol`` relative to the primal objective."""
    w = x.T @ (alpha * y)
    b = _bias_from_kkt(alpha, myg, pos, c)
    primal = svm_objective(x, y, w, b, c)
    dual = float(alpha.sum() - 0.5 * (w @ w))
    return w, b, primal - dual < tol * max(1.0, abs(primal))


def _svm_1d(s: np.ndarray, y: np.ndarray, c: float) -> tuple[float, float]:
    """Exact primal minimizer ``(w, b)`` on one feature, in O(n log n).

    The dual maximizes ``sum(alpha) - 0.5 * w**2`` with
    ``w = sum(alpha * y * s)``, ``0 <= alpha <= c`` and equal alpha totals
    ``a`` on both classes.  For a given ``a`` the reachable ``w`` form an
    interval ``[u(a), v(a)]``, whose ends fill each class's smallest or
    largest scores first, so the best dual value is
    ``2 * a - 0.5 * dist(0, [u, v])**2``: concave and piecewise quadratic
    in ``a``, with ``u`` and ``v`` linear between multiples of ``c``.  Its
    maximum is at one of those multiples, at a zero of ``u`` or ``v``, or
    at a stationary point of a quadratic piece; every candidate of every
    piece is evaluated.  ``w`` is then the point of ``[u, v]`` nearest 0,
    and ``b`` the midpoint of the interval minimizing the hinge sum.
    """
    p = np.sort(s[y > 0])
    q = np.sort(s[y < 0])
    k = min(p.size, q.size)
    p_lo, p_hi, q_lo, q_hi = p[:k], p[::-1][:k], q[:k], q[::-1][:k]

    def starts(v):  # c times the sums of the first 0..k-1 entries
        return c * np.concatenate(([0.0], np.cumsum(v)[:-1]))

    # Piece j covers a = j * c + t for t in [0, c].
    u0, du = starts(p_lo) - starts(q_hi), p_lo - q_hi
    v0, dv = starts(p_hi) - starts(q_lo), p_hi - q_lo
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.column_stack([
            np.zeros(k), np.full(k, c), -u0 / du, -v0 / dv,
            (2.0 / du - u0) / du, (2.0 / dv - v0) / dv,
        ])
    t = np.where(np.isfinite(t), np.clip(t, 0.0, c), 0.0)
    u = np.maximum(u0[:, None] + t * du[:, None], 0.0)
    v = np.minimum(v0[:, None] + t * dv[:, None], 0.0)
    a = c * np.arange(k)[:, None] + t
    best = np.unravel_index(np.argmax(2.0 * a - 0.5 * (u * u + v * v)), t.shape)
    w = float(u[best] + v[best])

    # The hinge sum is convex and piecewise linear in b, with slope
    # #{y_i = -1 and -1 - w * s_i <= b} - #{y_i = +1 and 1 - w * s_i > b}
    # just right of b (strict and non-strict swapped just left of it).
    # Its minimizers run from the first breakpoint whose right slope is
    # >= 0 to the last whose left slope is <= 0.
    t_pos = np.sort(1.0 - w * s[y > 0])
    t_neg = np.sort(-1.0 - w * s[y < 0])
    cand = np.concatenate((t_pos, t_neg))

    def slope(side):
        return np.searchsorted(t_neg, cand, side) + np.searchsorted(t_pos, cand, side) - t_pos.size

    b = 0.5 * (cand[slope("right") >= 0].min() + cand[slope("left") <= 0].max())
    return w, float(b)


def _bias_from_kkt(alpha, myg, pos, c) -> float:
    """Bias from free support vectors, or the KKT interval midpoint."""
    free = (alpha > 1e-9 * c) & (alpha < c * (1.0 - 1e-9))
    if free.any():
        return float(myg[free].mean())
    up = (pos & (alpha < c)) | (~pos & (alpha > 0.0))
    low = (pos & (alpha > 0.0)) | (~pos & (alpha < c))
    hi = np.where(up, myg, -np.inf).max()
    lo = np.where(low, myg, np.inf).min()
    if not np.isfinite(hi):
        hi = lo
    if not np.isfinite(lo):
        lo = hi
    return float(0.5 * (hi + lo))


def calibrate(
    margins: np.ndarray,
    y: np.ndarray,
    tol: float = 1e-8,
    max_iter: int = 100,
) -> Calibration:
    """Fit a sigmoid probability map on training margins.

    Maximizes the Bernoulli log-likelihood of the labels under
    ``p = sigma(slope * margin + intercept)`` with damped Newton steps.
    Labels are smoothed to ``(n_pos + 1) / (n_pos + 2)`` and
    ``1 / (n_neg + 2)`` so the optimum stays finite even when margins
    separate the classes perfectly.

    Raises
    ------
    ValueError
        On malformed input or a single-class ``y``.
    FitError
        If Newton fails to converge within ``max_iter`` iterations.
    """
    margins = np.asarray(margins, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if margins.shape != y.shape:
        raise ValueError("margins and y must have the same length")
    if not np.all(np.isin(np.unique(y), (-1.0, 1.0))):
        raise ValueError("y must contain only -1 and +1")
    n_pos = int((y > 0).sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("both label signs must be present")

    hi = (n_pos + 1.0) / (n_pos + 2.0)
    lo = 1.0 / (n_neg + 2.0)
    target = np.where(y > 0, hi, lo)

    mean_t = float(target.mean())
    slope = 0.0
    intercept = float(np.log(mean_t / (1.0 - mean_t)))

    def nll(a: float, b: float) -> tuple[float, np.ndarray]:
        """Negative log-likelihood at ``(a, b)``, and its logits ``z``."""
        z = a * margins + b
        # log(1 + e^z) - t*z, computed stably
        return float(np.sum(np.logaddexp(0.0, z) - target * z)), z

    sq = margins * margins
    current, z = nll(slope, intercept)
    for _ in range(max_iter):
        p = 1.0 / (1.0 + np.exp(-z))
        resid = p - target
        ga, gb = float(resid @ margins), float(resid.sum())
        if abs(ga) < tol and abs(gb) < tol:  # a NaN gradient never passes
            return Calibration(slope, intercept)
        wgt = p * (1.0 - p)
        h11 = float(wgt @ sq) + 1e-12
        h12 = float(wgt @ margins)
        h22 = float(wgt.sum()) + 1e-12
        det = h11 * h22 - h12 * h12
        if det <= 0:
            raise FitError("calibration Hessian is singular")
        da = -(h22 * ga - h12 * gb) / det
        db = -(-h12 * ga + h11 * gb) / det
        factor = 1.0
        for _ in range(40):
            cand, z = nll(slope + factor * da, intercept + factor * db)
            if cand <= current:
                break
            factor *= 0.5
        else:
            raise FitError("calibration line search failed")
        slope += factor * da
        intercept += factor * db
        if max(abs(factor * da), abs(factor * db)) < tol:
            return Calibration(slope, intercept)
        current = cand
    raise FitError(f"calibration did not converge in {max_iter} iterations")


def calibrated_probability(cal: Calibration, margins: np.ndarray) -> np.ndarray:
    """Probability of the +1 class for each margin."""
    z = cal.slope * np.asarray(margins, dtype=np.float64) + cal.intercept
    return 1.0 / (1.0 + np.exp(-z))

