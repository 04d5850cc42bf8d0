"""Linear soft-margin classification with calibrated probabilities.

The pieces here are deliberately self-contained:

* :func:`svm_fit` trains a linear soft-margin SVM by sequential minimal
  optimization on the dual, to an approximate minimizer of
  ``0.5 * ||w||^2 + c * sum(max(0, 1 - y * (w @ x + b)))``.
* :func:`calibrate` fits a sigmoid ``p = sigma(slope * margin + intercept)``
  to training margins by damped Newton iterations on the Bernoulli
  log-likelihood with the usual smoothed targets, so separable margins
  still yield a finite optimum.

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

    Solves the dual box-constrained problem by pairwise coordinate
    updates with second-order working-set selection, stopping when the
    duality gap or the per-pass objective decrease falls below ``tol``.

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

    g_mat = x * y[:, None]
    q = g_mat @ g_mat.T
    dq = np.ascontiguousarray(np.diag(q))

    # Feasible warm start near the typical non-separable solution.
    nu = 0.9 * c * min(n_pos, n - n_pos)
    alpha = np.where(pos, nu / n_pos, nu / (n - n_pos))
    grad = q @ alpha - 1.0

    prev_primal = np.inf
    w = g_mat.T @ alpha
    b = 0.0
    for _ in range(max_passes):
        for _ in range(n):
            up = (pos & (alpha < c)) | (~pos & (alpha > 0.0))
            low = (pos & (alpha > 0.0)) | (~pos & (alpha < c))
            myg = -y * grad
            up_vals = np.where(up, myg, -np.inf)
            i = int(np.argmax(up_vals))
            m_up = up_vals[i]
            low_vals = np.where(low, myg, np.inf)
            if m_up - low_vals.min() < 1e-10:
                break
            diff = m_up - myg
            curv = np.maximum(dq[i] + dq - 2.0 * y[i] * y * q[:, i], _TAU)
            gain = np.where(low & (diff > 0.0), diff * diff / curv, -np.inf)
            j = int(np.argmax(gain))
            step = diff[j] / curv[j]
            cap_i = (c - alpha[i]) if y[i] > 0 else alpha[i]
            cap_j = alpha[j] if y[j] > 0 else (c - alpha[j])
            step = min(step, cap_i, cap_j)
            alpha[i] += y[i] * step
            alpha[j] -= y[j] * step
            grad += step * (y[i] * q[:, i] - y[j] * q[:, j])

        w = g_mat.T @ alpha
        b = _bias_from_kkt(alpha, grad, y, pos, c)
        primal = svm_objective(x, y, w, b, c)
        dual = float(alpha.sum() - 0.5 * (w @ w))
        if primal - dual < tol * max(1.0, abs(primal)):
            break
        if prev_primal - primal < tol:
            break
        prev_primal = primal
    return LinearSvm(w, float(b), float(c))


def _bias_from_kkt(alpha, grad, y, pos, c) -> float:
    """Bias from free support vectors, or the KKT interval midpoint."""
    myg = -y * grad
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

    def nll(a: float, b: float) -> float:
        z = a * margins + b
        # log(1 + e^z) - t*z, computed stably
        return float(np.sum(np.logaddexp(0.0, z) - target * z))

    current = nll(slope, intercept)
    for _ in range(max_iter):
        z = slope * margins + intercept
        p = 1.0 / (1.0 + np.exp(-z))
        resid = p - target
        g = np.array([float(resid @ margins), float(resid.sum())])
        if np.max(np.abs(g)) < tol:
            return Calibration(slope, intercept)
        wgt = p * (1.0 - p)
        h11 = float(wgt @ (margins * margins)) + 1e-12
        h12 = float(wgt @ margins)
        h22 = float(wgt.sum()) + 1e-12
        det = h11 * h22 - h12 * h12
        if det <= 0:
            raise FitError("calibration Hessian is singular")
        da = -(h22 * g[0] - h12 * g[1]) / det
        db = -(-h12 * g[0] + h11 * g[1]) / det
        factor = 1.0
        for _ in range(40):
            cand = nll(slope + factor * da, intercept + factor * db)
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

