"""Linear soft-margin classification with calibrated probabilities.

The pieces here are deliberately self-contained:

* :func:`svm_fit` trains a linear soft-margin SVM, a minimizer of
  ``0.5 * ||w||^2 + c * sum(max(0, 1 - y * (w @ x + b)))``: exactly, in
  closed form, on one feature, and by sequential minimal optimization on
  the dual, to a duality-gap tolerance, on more.  With balanced classes
  the dual corner ``alpha = c`` is tested first, for all columns of a
  batch at once; where it is certified optimal no SMO step runs, so
  ``tol`` and ``max_passes`` go unused and no ``FitError`` can occur.
  Only the other columns run SMO, one at a time, each with a FIFO cache
  of kernel columns ``x @ x_t`` held to a fixed byte budget.
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

Both fits take only a batch of columns along a leading axis; each
column's arithmetic uses only its own rows, so its result is the one a
batch of that column alone gives, bit for bit.  A fit returns
``(model, failures)``: a finite model for every column, and the
``FitError`` of each column that failed, which the caller drops.

One-vs-one voting over class pairs and the region-block average live in
:mod:`permsig.pipeline`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FitError

_TAU = 1e-12  # curvature floor in the SMO subproblem
_CACHE_BYTES = 512 * 1024  # kernel and curvature rows cached per SMO fit


@dataclass(frozen=True)
class LinearSvm:
    """Fitted linear decision functions ``f(x) = weights[j] @ x + bias[j]``,
    one per column of a batch: (R, d) weights and (R,) biases."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        w = np.array(self.weights, dtype=np.float64, copy=True)
        b = np.asarray(self.bias, dtype=np.float64)
        if w.ndim != 2 or b.shape != w.shape[:1]:
            raise ValueError("weights must be (R, d) and bias (R,)")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)

    def select(self, columns) -> "LinearSvm":
        """The batch of the listed columns, in that order."""
        return LinearSvm(self.weights[columns], self.bias[columns])


@dataclass(frozen=True)
class Calibration:
    """Sigmoid maps from margins to probabilities of the +1 class, one per
    column of a batch: (R,) slopes and intercepts."""

    slope: np.ndarray
    intercept: np.ndarray

    def __post_init__(self):
        slope = np.asarray(self.slope, dtype=np.float64)
        intercept = np.asarray(self.intercept, dtype=np.float64)
        if slope.ndim != 1 or intercept.shape != slope.shape:
            raise ValueError("slope and intercept must be (R,)")
        object.__setattr__(self, "slope", slope)
        object.__setattr__(self, "intercept", intercept)

    def select(self, columns) -> "Calibration":
        """The batch of the listed columns, in that order."""
        return Calibration(self.slope[columns], self.intercept[columns])


def decision_values(m: LinearSvm, x: np.ndarray) -> np.ndarray:
    """Each column's signed margins ``x @ weights[j] + bias[j]``, (R, n).

    ``x`` holds each column's (R, n, d) rows, or the same (n, d) rows for
    every column; each column takes one product.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (2, 3) or x.shape[-1] != m.weights.shape[-1]:
        raise ValueError("x has the wrong number of columns")
    x = np.ascontiguousarray(x)  # see dimred.reduce: the layout sets the rounding
    return np.matmul(x, m.weights[..., None])[..., 0] + m.bias[:, None]


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
):
    """Train a linear soft-margin SVM on each column of a batch.

    On one feature the optimum is found exactly (see :func:`_svm_1d`),
    for all columns at once, and ``tol`` and ``max_passes`` are unused.
    Otherwise the corner ``alpha = c`` of the dual is tried first, for
    every column at once (see :func:`_corner`), under the stopping tests
    of SMO.  Balanced classes make it feasible; for the columns where it
    is certified optimal, as for heavily overlapping classes, no update
    runs, ``tol`` and ``max_passes`` go unused and no ``FitError`` can
    occur.  Each other column solves the dual box-constrained problem on
    its own by pairwise coordinate updates with second-order working-set
    selection, stopping when the duality gap falls below ``tol`` relative
    to the primal.  A pass that ends with no KKT violation left, its gap
    still above ``tol``, leaves no step for another pass, so the column
    fails then rather than after ``max_passes`` identical passes.

    Parameters
    ----------
    x : ndarray, shape (R, n, d) for a batch of R columns, or (n, d)
        rows that every column shares
    y : ndarray, shape (R, n)
        Signed labels; both of ``-1`` and ``+1`` must be present in every
        column.  On one feature every column needs the same class counts.
    c : float
        Misclassification cost, positive and finite.

    Returns
    -------
    ``(svm, failures)``: ``failures`` maps each column whose duality gap
    is still above ``tol`` after ``max_passes`` passes, or after a pass
    that left no step to take, to its ``FitError``, and that column keeps
    the corner's finite ``(w, b)``.  On one feature, scores near the float
    limit can overflow to a non-finite ``(w, b)``; such a column gets its
    ``FitError`` and keeps ``(0, 0)``.

    Raises
    ------
    ValueError
        On other shapes (a single (n,) ``y`` included), non-finite ``x``,
        ``c`` not positive and finite, or a single-class column.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim not in (2, 3) or y.ndim != 2 or x.shape[-2] != y.shape[1] \
            or (x.ndim == 3 and x.shape[0] != y.shape[0]):
        raise ValueError("x must be (R, n, d) or shared (n, d), and y (R, n)")
    if not np.all((y == 1.0) | (y == -1.0)):
        raise ValueError("y must contain only -1 and +1")
    if not 0.0 < c < np.inf:
        raise ValueError("c must be positive and finite")
    if not np.isfinite(x).all():
        raise ValueError("x must be finite")
    n_pos = (y > 0).sum(axis=1)
    if np.any(n_pos == 0) or np.any(n_pos == y.shape[1]):
        raise ValueError("both label signs must be present")
    c = float(c)
    if x.shape[-1] == 1:
        if np.any(n_pos != n_pos[0]):
            raise ValueError("one-feature columns of a batch need equal class counts")
        with np.errstate(over="ignore", invalid="ignore"):
            w, b = _svm_1d(np.broadcast_to(x[..., 0], y.shape), y, c)
        bad = np.flatnonzero(~(np.isfinite(w) & np.isfinite(b)))
        w[bad] = b[bad] = 0.0
        return LinearSvm(w[:, None], b), {
            int(j): FitError("one-feature SVM overflowed to a non-finite (w, b)") for j in bad}

    x = np.ascontiguousarray(x)  # see decision_values: the layout sets the rounding
    weights, bias, certified = _corner(x, y, c, tol)
    x = np.broadcast_to(x, y.shape + x.shape[-1:])
    failures = {}
    for j in np.flatnonzero(~certified):
        try:
            weights[j], bias[j] = _svm_smo(x[j], y[j], c, tol, max_passes)
        except FitError as exc:
            failures[int(j)] = exc
    return LinearSvm(weights, bias), failures


def _corner(x, y, c, tol) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The dual corner ``alpha = c`` of every column, and whether it is optimal.

    Balanced classes make the corner feasible.  Where permuted labels
    overlap it is often the optimum, which SMO would reach only after
    ``n / 2`` capped steps from its warm start.  A column's corner is
    certified when it passes the tests that end an SMO pass: no KKT
    violation above 1e-10, then a duality gap below ``tol`` relative to
    the primal (see :func:`_gap_test`).  Returns the corner's ``(w, b)``
    of every column, (R, d) and (R,), and the (R,) certified mask.

    Each product is a stacked ``np.matmul``, which takes every column's
    product on its own, and every reduction runs over one column's rows:
    a column's values are those a fit of that column alone computes.
    """
    pos = y > 0
    w = np.matmul(np.swapaxes(x, -1, -2), (c * y)[..., None])[..., 0]
    xw = np.matmul(x, w[..., None])[..., 0]
    # -y * (dual gradient); with no alpha free, the KKT interval of the
    # bias runs from the largest over the negatives to the smallest over
    # the positives, and the bias is its midpoint as in _bias_from_kkt.
    myg = y - xw
    hi = np.where(pos, -np.inf, myg).max(axis=1)
    lo = np.where(pos, myg, np.inf).min(axis=1)
    end = np.where(np.isfinite(hi), hi, lo)
    b = 0.5 * (end + np.where(np.isfinite(lo), lo, end))
    del myg
    hinge = xw + b[:, None]  # then max(0, 1 - y * margin), in place
    hinge *= y
    np.subtract(1.0, hinge, out=hinge)
    np.maximum(0.0, hinge, out=hinge)
    ww = np.matmul(w[:, None, :], w[:, :, None])[:, 0, 0]
    primal = 0.5 * ww + c * hinge.sum(axis=1)
    dual = np.full(y.shape[1], c).sum() - 0.5 * ww
    certified = (2 * pos.sum(axis=1) == y.shape[1]) & (hi - lo < 1e-10) \
        & (primal - dual < tol * np.maximum(1.0, np.abs(primal)))
    return w, b, certified


def _svm_smo(x, y, c, tol, max_passes) -> tuple[np.ndarray, float]:
    """SMO on one column of more than one feature; returns ``(w, b)``.

    A step takes the first index ``i`` of the up set with the largest
    ``myg``, the second ``j`` by the second-order rule of Fan, Chen & Lin
    (2005; see :func:`_second_index`), and takes the pair's Newton step,
    clipped to the box.  Kernel columns and curvature rows come from a FIFO cache
    (Joachims 1999; LIBSVM), which changes no bit of the result.
    """
    pos = y > 0
    n_pos = int(pos.sum())
    n = y.shape[0]
    # The dual's Hessian Q_kl = y_k y_l x_k . x_l is never formed: a step
    # needs only the kernel columns x @ x_i and x @ x_j, so memory stays
    # O(n * d).  ``myg`` is -y * (dual gradient), which equals y - x @ w.
    sq = np.einsum("ij,ij->i", x, x)
    # Feasible warm start near the typical non-separable solution.
    nu = 0.9 * c * min(n_pos, n - n_pos)
    alpha = np.where(pos, nu / n_pos, nu / (n - n_pos))
    myg = y - x @ (x.T @ (alpha * y))
    # Indices that may move up or down, as additive masks: 0 where an index
    # may move, -inf where it may not.  A step changes only i's and j's.
    up_mask = np.where((pos & (alpha < c)) | (~pos & (alpha > 0.0)), 0.0, -np.inf)
    low_mask = np.where((pos & (alpha > 0.0)) | (~pos & (alpha < c)), 0.0, -np.inf)
    # A step is a few passes over these n-buffers and at most two new
    # kernel columns, with no array allocated; the scalar bookkeeping
    # runs on Python floats.
    diff, gain, upd = (np.empty(n) for _ in range(3))
    ineligible = np.empty(n, dtype=bool)
    alpha, signs, is_pos = alpha.tolist(), y.tolist(), pos.tolist()

    # About half of a step's i and j were an i or j a few steps before, so
    # kernel columns x @ x_t are kept in a FIFO cache of ``slots`` rows
    # within a byte budget, memory O(n), each with the curvature row
    # max(sq_t + sq - 2 x @ x_t, _TAU) filled the first time t is an i.
    # A row comes from the same matmul on the same operands as a fresh
    # one, so a hit gives the same bits.  j's lookup never evicts i's slot.
    slots = max(2, min(n, _CACHE_BYTES // (16 * n)))
    kernel, curvature = list(np.empty((slots, n))), list(np.empty((slots, n)))
    slot_of, held, curved = {}, [-1] * slots, [False] * slots
    clock = 0

    def column(t, keep):
        """The slot that holds x @ x_t, filled on a miss; never ``keep``."""
        nonlocal clock
        s = slot_of.get(t)
        if s is None:
            s = clock if clock != keep else (clock + 1) % slots
            clock = (s + 1) % slots
            slot_of.pop(held[s], None)
            held[s], slot_of[t], curved[s] = t, s, False
            np.matmul(x, x[t], out=kernel[s])
        return s

    for _ in range(max_passes):
        stuck = False
        for _ in range(n):
            np.add(myg, up_mask, out=gain)
            i = int(gain.argmax())
            m_up = gain[i]  # -inf when no index may move up
            # max over low of (m_up - myg) is m_up - (min over low of myg):
            # rounding is monotone, so the two are equal bit for bit.
            np.subtract(m_up, myg, out=diff)
            diff += low_mask
            if diff[diff.argmax()] < 1e-10:  # argmax is the faster reduction
                stuck = True  # no step moves: every later pass ends here too
                break
            s_i = column(i, -1)
            k_i, curv = kernel[s_i], curvature[s_i]
            if not curved[s_i]:
                np.add(sq[i], sq, out=curv)
                np.subtract(curv, np.multiply(2.0, k_i, out=gain), out=curv)
                np.maximum(curv, _TAU, out=curv)
                curved[s_i] = True
            j = _second_index(diff, curv, gain, ineligible)
            step = float(diff[j]) / float(curv[j])
            cap_i = (c - alpha[i]) if signs[i] > 0 else alpha[i]
            cap_j = alpha[j] if signs[j] > 0 else (c - alpha[j])
            step = min(step, cap_i, cap_j)
            alpha[i] += signs[i] * step
            alpha[j] -= signs[j] * step
            np.subtract(k_i, kernel[column(j, s_i)], out=upd)
            upd *= step
            myg -= upd
            for t in (i, j):
                a = alpha[t]
                up_mask[t] = 0.0 if (a < c if is_pos[t] else a > 0.0) else -np.inf
                low_mask[t] = 0.0 if (a > 0.0 if is_pos[t] else a < c) else -np.inf

        w, b, gap_ok = _gap_test(x, y, np.array(alpha), myg, pos, c, tol)
        if gap_ok:
            return w, b
        if stuck:
            break
    raise FitError(f"SVM duality gap still above tol {tol} after {max_passes} passes")


def _second_index(diff, curv, gain, ineligible) -> int:
    """SMO's second index: the first maximizer of ``diff**2 / curv`` over
    the indices with ``diff > 0``.  ``gain`` and ``ineligible`` are
    scratch buffers.

    ``diff * |diff|`` is ``diff * diff`` where ``diff > 0`` and at most 0
    elsewhere, so a positive maximum of ``diff * |diff| / curv`` is first
    reached at the same index.  Only when it is not positive (every
    eligible gain underflows to 0, or a NaN) are the ineligible indices
    masked to -inf, below any gain that underflows to 0.
    """
    np.abs(diff, out=gain)
    gain *= diff
    gain /= curv
    j = int(gain.argmax())
    if gain[j] > 0.0:
        return j
    np.less_equal(diff, 0.0, out=ineligible)
    np.putmask(gain, ineligible, -np.inf)
    return int(gain.argmax())


def _gap_test(x, y, alpha, myg, pos, c, tol) -> tuple[np.ndarray, float, bool]:
    """Primal ``(w, b)`` of a dual point, and whether its duality gap is
    below ``tol`` relative to the primal objective."""
    w = x.T @ (alpha * y)
    b = _bias_from_kkt(alpha, myg, pos, c)
    primal = svm_objective(x, y, w, b, c)
    dual = float(alpha.sum() - 0.5 * (w @ w))
    return w, b, primal - dual < tol * max(1.0, abs(primal))


def _svm_1d(s: np.ndarray, y: np.ndarray, c: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact primal minimizers ``(w, b)`` on one feature, in O(n log n).

    ``s`` and ``y`` hold one column per row; every column has the same
    class counts, so each class's scores form a rectangular array.  The
    dual maximizes ``sum(alpha) - 0.5 * w**2`` with
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
    cols, n = s.shape
    pos = y > 0
    n_pos = int(pos[0].sum())
    s_pos = s[pos].reshape(cols, n_pos)
    s_neg = s[~pos].reshape(cols, n - n_pos)
    p, q = np.sort(s_pos, axis=1), np.sort(s_neg, axis=1)
    k = min(n_pos, n - n_pos)
    p_lo, p_hi, q_lo, q_hi = p[:, :k], p[:, ::-1][:, :k], q[:, :k], q[:, ::-1][:, :k]

    def starts(v):  # c times the sums of the first 0..k-1 entries
        return c * np.concatenate((np.zeros((cols, 1)), np.cumsum(v, axis=1)[:, :-1]), axis=1)

    # Piece j covers a = j * c + t for t in [0, c].
    u0, du = starts(p_lo) - starts(q_hi), p_lo - q_hi
    v0, dv = starts(p_hi) - starts(q_lo), p_hi - q_lo
    candidates = (
        lambda: np.zeros((cols, k)), lambda: np.full((cols, k), c),
        lambda: -u0 / du, lambda: -v0 / dv,
        lambda: (2.0 / du - u0) / du, lambda: (2.0 / dv - v0) / dv,
    )
    # Each piece keeps its best candidate so far, then the best piece
    # wins: ties go to the first piece, and within it to the first
    # candidate, as in an argmax over all of them, where a NaN (from
    # scores that overflow) counts as the largest value.
    for i, candidate in enumerate(candidates):
        with np.errstate(divide="ignore", invalid="ignore"):
            t = candidate()
        t = np.where(np.isfinite(t), np.clip(t, 0.0, c), 0.0)
        u = np.maximum(u0 + t * du, 0.0)
        v = np.minimum(v0 + t * dv, 0.0)
        dual = 2.0 * (c * np.arange(k) + t) - 0.5 * (u * u + v * v)
        if i == 0:
            best, w_at = dual, u + v
            continue
        better = (dual > best) | (np.isnan(dual) & ~np.isnan(best))
        np.copyto(best, dual, where=better)
        np.copyto(w_at, u + v, where=better)
    w = w_at[np.arange(cols), np.argmax(best, axis=1)]

    # The hinge sum is convex and piecewise linear in b, with breakpoints
    # 1 - w * s_i on the positives and -1 - w * s_i on the negatives.  Its
    # slope just right of b is #{breakpoints <= b} - n_pos, and just left
    # #{breakpoints < b} - n_pos, so its minimizers run from the n_pos-th
    # smallest breakpoint to the next one.
    breaks = np.sort(np.concatenate(
        (1.0 - w[:, None] * s_pos, -1.0 - w[:, None] * s_neg), axis=1), axis=1)
    return w, 0.5 * (breaks[:, n_pos - 1] + breaks[:, n_pos])


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
):
    """Fit a sigmoid probability map on training margins.

    Maximizes the Bernoulli log-likelihood of the labels under
    ``p = sigma(slope * margin + intercept)`` with damped Newton steps.
    Labels are smoothed to ``(n_pos + 1) / (n_pos + 2)`` and
    ``1 / (n_neg + 2)`` so the optimum stays finite even when margins
    separate the classes perfectly.  ``margins`` and ``y`` of shape (R, n)
    fit R columns at once: each column keeps its own Newton iterate, step
    length and stopping test, and every sum runs over its own row alone.

    Returns
    -------
    ``(calibration, failures)``: ``failures`` maps each column where
    Newton failed to converge within ``max_iter`` iterations to its
    ``FitError``, and that column keeps its starting sigmoid.

    Raises
    ------
    ValueError
        On other shapes (a single (n,) ``y`` included) or a single-class
        column.
    """
    margins = np.asarray(margins, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if margins.ndim != 2 or margins.shape != y.shape:
        raise ValueError("margins and y must both be (R, n)")
    if not np.all((y == 1.0) | (y == -1.0)):
        raise ValueError("y must contain only -1 and +1")
    n_pos = (y > 0).sum(axis=1)
    n_neg = y.shape[1] - n_pos
    if np.any(n_pos == 0) or np.any(n_neg == 0):
        raise ValueError("both label signs must be present")

    hi = (n_pos + 1.0) / (n_pos + 2.0)
    lo = 1.0 / (n_neg + 2.0)
    t = np.where(y > 0, hi[:, None], lo[:, None])  # the smoothed targets
    mean_t = t.mean(axis=1)
    slope = np.zeros(len(y))
    intercept = np.log(mean_t / (1.0 - mean_t))
    failures = {}

    # The (R, n) temporaries of a batch are as large as its margins, so
    # they are updated in place where that keeps the arithmetic the same.
    def nll(a, b, m, t):
        """Negative log-likelihoods at ``(a, b)``, and their logits ``z``."""
        z = a[:, None] * m
        z += b[:, None]
        loss = _softplus(z)  # log(1 + e^z) - t*z
        loss -= t * z
        return np.sum(loss, axis=1), z

    # The columns still iterating: their indices, data and Newton state.
    live = np.arange(len(y))
    m, sq = margins, margins * margins
    a, b = slope.copy(), intercept.copy()
    current, z = nll(a, b, m, t)

    def settle(done, message=None):
        """Take the ``done`` columns out: with their result, or as failed."""
        nonlocal live, m, t, sq, a, b, current, z
        if not done.any():
            return ~done
        for j in np.flatnonzero(done):
            if message is None:
                slope[live[j]], intercept[live[j]] = a[j], b[j]
            else:
                failures[int(live[j])] = FitError(message)
        keep = ~done
        live, a, b, current = live[keep], a[keep], b[keep], current[keep]
        m = m[keep]  # one at a time, so no two copies of the state coexist
        t = t[keep]
        sq = sq[keep]
        z = z[keep]
        return keep

    for _ in range(max_iter):
        if not live.size:
            break
        p = np.exp(-z)
        p += 1.0
        np.divide(1.0, p, out=p)  # sigma(z) = 1 / (1 + e^-z)
        resid = p - t
        gb = np.sum(resid, axis=1)
        resid *= m
        ga = np.sum(resid, axis=1)
        del resid
        keep = settle((np.abs(ga) < tol) & (np.abs(gb) < tol))  # a NaN gradient never passes
        p, ga, gb = p[keep], ga[keep], gb[keep]
        wgt = 1.0 - p
        wgt *= p
        del p
        h22 = np.sum(wgt, axis=1) + 1e-12
        h12 = np.sum(wgt * m, axis=1)
        wgt *= sq
        h11 = np.sum(wgt, axis=1) + 1e-12
        del wgt
        det = h11 * h22 - h12 * h12
        keep = settle(det <= 0, "calibration Hessian is singular")
        ga, gb, h11, h12, h22, det = (v[keep] for v in (ga, gb, h11, h12, h22, det))
        da = -(h22 * ga - h12 * gb) / det
        db = -(-h12 * ga + h11 * gb) / det

        factor = np.ones(live.size)
        cand = np.empty(live.size)
        searching = np.ones(live.size, dtype=bool)
        for _ in range(40):
            rows = np.flatnonzero(searching)
            if not rows.size:
                break
            every = rows.size == live.size
            value, z_new = nll(a[rows] + factor[rows] * da[rows],
                               b[rows] + factor[rows] * db[rows],
                               m if every else m[rows], t if every else t[rows])
            ok = value <= current[rows]
            cand[rows[ok]], z[rows[ok]] = value[ok], z_new[ok]
            searching[rows[ok]] = False
            factor[rows[~ok]] *= 0.5
        keep = settle(searching, "calibration line search failed")
        factor, da, db = factor[keep], da[keep], db[keep]
        a, b, current = a + factor * da, b + factor * db, cand[keep]
        settle(np.maximum(np.abs(factor * da), np.abs(factor * db)) < tol)
    for j in live:
        failures[int(j)] = FitError(f"calibration did not converge in {max_iter} iterations")
    return Calibration(slope, intercept), failures


def _softplus(z: np.ndarray) -> np.ndarray:
    """``log(1 + e^z)``, stably, as ``max(z, 0) + log1p(e^-|z|)``.

    Within two ulps of ``np.logaddexp(0, z)``, which calls the scalar libm
    for each element and is several times slower on large arrays.
    """
    out = np.abs(z)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out += np.maximum(z, 0.0)
    return out


def calibrated_probability(cal: Calibration, margins: np.ndarray) -> np.ndarray:
    """Each column's probability of the +1 class for its (R, n) margins."""
    z = cal.slope[:, None] * np.asarray(margins, dtype=np.float64) + cal.intercept[:, None]
    return 1.0 / (1.0 + np.exp(-z))

