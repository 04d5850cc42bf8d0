"""Linear soft-margin classification with calibrated probabilities.

The pieces here are deliberately self-contained:

* :func:`svm_fit` trains a linear soft-margin SVM, a minimizer of
  ``0.5 * ||w||^2 + c * sum(max(0, 1 - y * (w @ x + b)))``, by sequential
  minimal optimization on the dual, to the duality-gap tolerance
  ``_SVM_TOL`` (one feature: see below).  With balanced classes the dual
  corner ``alpha = c`` is tested first, for all columns of a batch at
  once; where it is certified optimal no SMO step runs and no ``FitError``
  can occur.  Only the other columns run SMO, one at a time and for at
  most ``_MAX_PASSES`` passes; see :func:`_svm_smo` for its gradient in
  two masked copies, its stop test and its cache of kernel columns.
* :func:`calibrate` fits a sigmoid ``p = sigma(slope * margin + intercept)``
  to training margins by damped Newton iterations on the Bernoulli
  log-likelihood with the usual smoothed targets, so separable margins
  still yield a finite optimum; it stops below ``_CAL_TOL``, within
  ``_MAX_ITER`` iterations.

The stop rules are module constants, not arguments, so every fit of a
study, observed or null, runs under the same ones.

On one feature the cost ``c`` cannot change the calibrated probabilities:
for any ``w != 0`` the sigmoids of ``w * s + b`` are the sigmoids of ``s``
itself, so calibration reaches the same maximum-likelihood fit (Platt
1999; Lin, Lin & Weng 2007) whatever the SVM's weight.  So :func:`svm_fit`
returns the centred score ``w * (s - mean(s))`` with ``w = 2**-e``, ``e``
the exponent of the score spread: margins in [-1, 1] at any spread.  Only
an optimum of ``w = 0`` differs, and it does not depend on ``c``: with
``k`` rows in the smaller class, it is exactly when their score sum lies
between the sums of the ``k`` smallest and the ``k`` largest scores of
the other class.  There the margin is ``sign(n_pos - n_neg)``, the
midpoint of the biases that minimize the hinge sum.

Both fits take only a batch of columns along a leading axis; each
column's arithmetic uses only its own rows, so its result is the one a
batch of that column alone gives, bit for bit.  A fit returns
``(model, failures)``: a model for every column, and the ``FitError`` of
each column that failed, whose model is the zero one: the SVM ``(0, 0)``,
and the calibration of slope 0 it starts from.

One-vs-one voting over class pairs and the region-block average live in
:mod:`permsig.pipeline`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FitError, signed_counts

_TAU = 1e-12  # curvature floor in the SMO subproblem
_CACHE_BYTES = 512 * 1024  # kernel and curvature rows cached per SMO fit
_SVM_TOL = 1e-6  # duality gap, relative to the primal, at which an SVM fit stops
_MAX_PASSES = 10_000  # SMO passes before a column fails
_CAL_TOL = 1e-8  # gradient and step size at which a calibration stops
_MAX_ITER = 100  # Newton iterations before a calibration fails
_OVERFLOW = "SVM objective overflows the float range"


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


def svm_fit(x: np.ndarray, y: np.ndarray, c: float = 1.0):
    """Train a linear soft-margin SVM on each column of a batch.

    On one feature no SVM is solved: each column gets the margin map of
    the module docstring, a constant where the SVM optimum is ``w = 0``
    and the centred score elsewhere; ``c`` goes unused.  Otherwise the
    corner ``alpha = c`` of the dual is tried first, for every column at
    once (see :func:`_corner`), under the stopping tests of SMO.  Balanced
    classes make it feasible; for the columns where it is certified
    optimal, as for heavily overlapping classes, no update runs and no
    ``FitError`` can occur.  Each other column solves the dual
    box-constrained problem on its own by pairwise coordinate updates with
    second-order working-set selection, stopping when the duality gap falls
    below ``_SVM_TOL`` relative to the primal.  A pass that ends with no KKT
    violation left, its gap still above ``_SVM_TOL``, leaves no step for
    another pass, so the column fails then rather than after
    ``_MAX_PASSES`` identical passes.

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
    is still above ``_SVM_TOL`` after ``_MAX_PASSES`` passes, or after a pass
    that left no step to take, to its ``FitError``.  A column whose corner
    or SMO duality gap overflows fails at once, with no warning, as on one
    feature does a column whose scores near the float limit overflow their
    sum of magnitudes, their spread or the centred map.  Every failed
    column gets the zero model ``(0, 0)``.

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
    n_pos = signed_counts(y)
    if not 0.0 < c < np.inf:
        raise ValueError("c must be positive and finite")
    if not np.isfinite(x).all():
        raise ValueError("x must be finite")
    c = float(c)
    if x.shape[-1] == 1:  # the margin map of the module docstring
        if np.any(n_pos != n_pos[0]):
            raise ValueError("one-feature columns of a batch need equal class counts")
        s, n = np.broadcast_to(x[..., 0], y.shape), y.shape[1]
        few = y > 0 if 2 * n_pos[0] <= n else y < 0  # the k rows of the smaller class
        k = int(few[0].sum())
        mine, other = s[few].reshape(-1, k), s[~few].reshape(-1, n - k)
        if n > 2 * k:  # the k smallest scores first and the k largest last
            other = np.partition(other, (k - 1, n - 2 * k), axis=1)
        low, high = other[:, :k], other[:, n - 2 * k:]
        with np.errstate(over="ignore", invalid="ignore"):
            total = np.abs(s).sum(axis=1)
            spread = s.max(axis=1) - s.min(axis=1)
            w = np.ldexp(1.0, -np.frexp(spread)[1])
            b = -w * s.mean(axis=1)
            gaps = (mine.sum(axis=1) - low.sum(axis=1), high.sum(axis=1) - mine.sum(axis=1))
            zero = (gaps[0] >= 0.0) & (gaps[1] >= 0.0)
            # A float sum of k scores is within (k - 1) * 2**-53 * total of the exact one:
            # a gap beyond twice that, widened for rounding and underflow, has the exact sign.
            slack = k * 2.0**-51 * total + np.finfo(np.float64).tiny
            unsure = (np.minimum(np.abs(gaps[0]), np.abs(gaps[1])) <= slack) & np.isfinite(total)
        for j in np.flatnonzero(unsure):  # a correctly rounded sum has the exact sign
            zero[j] = math.fsum(mine[j].tolist() + (-low[j]).tolist()) >= 0.0 \
                and math.fsum(high[j].tolist() + (-mine[j]).tolist()) >= 0.0
        w[zero], b[zero] = 0.0, np.sign(2 * n_pos[0] - n)
        bad = np.flatnonzero(~(np.isfinite(total) & np.isfinite(spread) & np.isfinite(b)))
        w[bad] = b[bad] = 0.0
        return LinearSvm(w[:, None], b), {
            int(j): FitError("one-feature scores overflow the margin map") for j in bad}

    x = np.ascontiguousarray(x)  # see decision_values: the layout sets the rounding
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails its column
        weights, bias, certified, finite = _corner(x, y, c)
        x = np.broadcast_to(x, y.shape + x.shape[-1:])
        failures = {int(j): FitError(_OVERFLOW) for j in np.flatnonzero(~finite)}
        for j in np.flatnonzero(~certified & finite):
            try:
                weights[j], bias[j] = _svm_smo(x[j], y[j], c)
            except FitError as exc:
                failures[int(j)] = exc
    weights[list(failures)], bias[list(failures)] = 0.0, 0.0
    return LinearSvm(weights, bias), failures


def _corner(x, y, c) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The dual corner ``alpha = c`` of every column, and whether it is optimal.

    Balanced classes make the corner feasible.  Where permuted labels
    overlap it is often the optimum, which SMO would reach only after
    ``n / 2`` capped steps from its warm start.  A column's corner is
    certified when it passes the tests that end an SMO pass: no KKT
    violation above 1e-10, then a duality gap below ``_SVM_TOL`` relative
    to the primal (see :func:`_gap_test`).  Returns the corner's ``(w, b)``
    of every column, (R, d) and (R,), the (R,) certified mask, and the
    (R,) mask of the columns whose duality gap is finite.

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
    gap = primal - (np.full(y.shape[1], c).sum() - 0.5 * ww)
    certified = (2 * pos.sum(axis=1) == y.shape[1]) & (hi - lo < 1e-10) \
        & (gap < _SVM_TOL * np.maximum(1.0, np.abs(primal)))
    return w, b, certified, np.isfinite(gap)


def _svm_smo(x, y, c) -> tuple[np.ndarray, float]:
    """SMO on one column of more than one feature; returns ``(w, b)``.

    A step takes the first index ``i`` of the up set with the largest
    ``myg``, the second ``j`` by the second-order rule of Fan, Chen & Lin
    (2005; see :func:`_second_index`), and takes the pair's Newton step,
    clipped to the box.  ``myg`` is kept in two copies, ``gup`` -inf off
    the up set and ``glow`` +inf off the low set; for c > 0 every index is
    in one set at least, so a copy holds its ``myg``.  A pass ends when no
    pair gains 1e-10, which ``diff[j] >= 1e-10`` rules out.
    Kernel columns and curvature rows come from a FIFO cache (Joachims
    1999; LIBSVM), which changes no bit of the result.
    Curvature rows are kept halved, ``max((sqh_i + sqh) - x @ x_i, _TAU / 2)``
    with ``sqh = sq / 2``.  Halving is exact in the normal range and values
    below it are clamped, so a row is half the full one bit for bit unless
    a sum of two squared norms overflows.  The step is then the same, and
    so is the first maximizer of the gains ``diff * |diff| / curvh``, unless
    the largest overflows (only with ``||w||**2``) or is subnormal: then each
    eligible ``diff`` is below 1e-10, unless rows lie ~1e144 apart, and the
    pass stops whatever ``j`` is.
    """
    pos = y > 0
    n_pos = int(pos.sum())
    n = y.shape[0]
    # The dual's Hessian Q_kl = y_k y_l x_k . x_l is never formed: a step
    # needs only the kernel columns x @ x_i and x @ x_j, so memory stays
    # O(n * d).  ``myg`` is -y * (dual gradient), which equals y - x @ w.
    sqh = 0.5 * np.einsum("ij,ij->i", x, x)
    # Feasible warm start near the typical non-separable solution.
    nu = 0.9 * c * min(n_pos, n - n_pos)
    alpha = np.where(pos, nu / n_pos, nu / (n - n_pos))
    myg = y - x @ (x.T @ (alpha * y))
    # A step is a few passes over these n-buffers and at most two new kernel
    # columns, with no array allocated; scalar bookkeeping runs on Python floats.
    gup, glow, diff, gain, upd = _rows(5, n)
    gup[:] = np.where(np.where(pos, alpha < c, alpha > 0.0), myg, -np.inf)
    glow[:] = np.where(np.where(pos, alpha > 0.0, alpha < c), myg, np.inf)
    ineligible = np.empty(n, dtype=bool)
    alpha, signs, is_pos = alpha.tolist(), y.tolist(), pos.tolist()

    # About 40% of a step's i and j were an i or j a few steps before, so
    # kernel columns x @ x_t are kept in a FIFO cache of ``slots`` rows
    # within a byte budget, memory O(n), each with its half curvature row
    # filled the first time t is an i.  A row comes from the same dgemv on
    # the same operands as a fresh one, so a hit gives the same bits; np.dot
    # calls it without matmul's ufunc layer.  j's lookup never evicts i's slot.
    slots = max(2, min(n, _CACHE_BYTES // (16 * n)))
    kernel, curvature = _rows(slots, n), _rows(slots, n)
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
            np.dot(x, x[t], out=kernel[s])
        return s

    for passes in range(1, _MAX_PASSES + 1):
        for _ in range(n):  # n >= 2: a pass sets ``stuck``
            i = int(gup.argmax())
            # max(diff) is m_up - (min over low of myg): rounding is monotone
            np.subtract(gup.item(i), glow, out=diff)
            s_i = column(i, -1)
            k_i, curvh = kernel[s_i], curvature[s_i]
            if not curved[s_i]:
                np.add(sqh[i], sqh, out=curvh)
                curvh -= k_i
                np.maximum(curvh, 0.5 * _TAU, out=curvh)
                curved[s_i] = True
            j = _second_index(diff, curvh, gain, ineligible)
            d_j = diff.item(j)
            stuck = not d_j >= 1e-10 and diff[diff.argmax()] < 1e-10  # argmax is faster
            if stuck:  # no step moves: every later pass ends here too
                break
            step = min(d_j / (2.0 * curvh.item(j)), (c - alpha[i]) if signs[i] > 0 else alpha[i],
                       alpha[j] if signs[j] > 0 else (c - alpha[j]))
            alpha[i] += signs[i] * step
            alpha[j] -= signs[j] * step
            np.subtract(k_i, kernel[column(j, s_i)], out=upd)
            upd *= step
            gup -= upd
            glow -= upd
            for t, g in ((i, gup.item(i)), (j, glow.item(j))):  # i was up, j low
                a = alpha[t]
                gup[t] = g if (a < c if is_pos[t] else a > 0.0) else -np.inf
                glow[t] = g if (a > 0.0 if is_pos[t] else a < c) else np.inf

        w, b, gap_ok = _gap_test(x, y, np.array(alpha), gup, glow, c)
        if gap_ok:
            return w, b
        if stuck:
            raise FitError(f"SVM duality gap still above tol {_SVM_TOL} after {passes} passes, "
                           "with no step left")
    raise FitError(f"SVM duality gap still above tol {_SVM_TOL} after {_MAX_PASSES} passes")


def _rows(k, n) -> list[np.ndarray]:
    """``k`` rows of ``n`` floats, each on a 64-byte boundary, so that a
    pass's speed does not hang on where the heap put them."""
    m = -(-n // 8) * 8  # whole 64-byte lines per row
    buf = np.empty(k * m + 7)
    return list(buf[(-buf.ctypes.data % 64) // 8:][:k * m].reshape(k, m)[:, :n])


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


def _gap_test(x, y, alpha, gup, glow, c) -> tuple[np.ndarray, float, bool]:
    """Primal ``(w, b)`` of a dual point, and whether its duality gap is
    below ``_SVM_TOL`` relative to the primal objective; a gap past the
    float range raises."""
    w = x.T @ (alpha * y)
    b = _bias_from_kkt(alpha, gup, glow, c)
    primal = svm_objective(x, y, w, b, c)
    gap = primal - float(alpha.sum() - 0.5 * (w @ w))
    if not math.isfinite(gap):
        raise FitError(_OVERFLOW)
    return w, b, gap < _SVM_TOL * max(1.0, abs(primal))


def _bias_from_kkt(alpha, gup, glow, c) -> float:
    """Bias from free support vectors, or the KKT interval midpoint."""
    free = (alpha > 1e-9 * c) & (alpha < c * (1.0 - 1e-9))
    if free.any():
        return float(gup[free].mean())  # a free index is in both sets
    hi, lo = gup.max(), glow.min()
    if not np.isfinite(hi):
        hi = lo
    if not np.isfinite(lo):
        lo = hi
    return float(0.5 * (hi + lo))


def calibrate(margins: np.ndarray, y: np.ndarray):
    """Fit a sigmoid probability map on training margins.

    Maximizes the Bernoulli log-likelihood of the labels under
    ``p = sigma(slope * margin + intercept)`` with Newton steps, each
    halved until the likelihood does not fall, 40 tries at most; a column
    tries up to 8 halvings per call, with the bits of one try per call.
    Labels are smoothed to ``(n_pos + 1) / (n_pos + 2)`` and
    ``1 / (n_neg + 2)`` so the optimum stays finite even when margins
    separate the classes perfectly.  ``margins`` and ``y`` of shape (R, n)
    fit R columns at once: each column keeps its own Newton iterate, step
    length and stopping test, and every sum runs over its own row alone.

    Returns
    -------
    ``(calibration, failures)``: ``failures`` maps each column where
    Newton failed to converge within ``_MAX_ITER`` iterations to its
    ``FitError``, and that column keeps its starting sigmoid, of slope 0.

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
    n_pos = signed_counts(y)
    n_neg = y.shape[1] - n_pos

    hi = (n_pos + 1.0) / (n_pos + 2.0)
    lo = 1.0 / (n_neg + 2.0)
    t = np.where(y > 0, hi[:, None], lo[:, None])  # the smoothed targets
    mean_t = t.mean(axis=1)
    slope = np.zeros(len(y))
    intercept = np.log(mean_t / (1.0 - mean_t))
    failures = {}
    total = np.add.reduce  # np.sum's reduction, without its Python wrapper

    # The (R, n) temporaries of a batch are as large as its margins, so
    # they are updated in place where that keeps the arithmetic the same.
    def nll(a, b, m, t):
        """Negative log-likelihoods at ``(a, b)``, and their logits ``z``."""
        z = a[:, None] * m
        z += b[:, None]
        loss = _softplus(z)  # log(1 + e^z) - t*z
        loss -= t * z
        return total(loss, axis=1), z

    # The columns still iterating: their indices, data and Newton state.
    live = np.arange(len(y))
    m, sq = margins, margins * margins
    a, b = slope.copy(), intercept.copy()
    current, z = nll(a, b, m, t)

    def settle(done, message=None, *rest):
        """Take the ``done`` columns out, with their result or as failed,
        and give back the per-column arrays ``rest`` without them."""
        nonlocal live, m, t, sq, a, b, current, z
        if not done.any():
            return rest
        if message is None:
            slope[live[done]], intercept[live[done]] = a[done], b[done]
        else:
            failures.update((int(j), FitError(message)) for j in live[done])
        keep = ~done
        live, a, b, current = live[keep], a[keep], b[keep], current[keep]
        m = m[keep]  # one at a time, so no two copies of the state coexist
        t = t[keep]
        sq = sq[keep]
        z = z[keep]
        return tuple(v[keep] for v in rest)

    for _ in range(_MAX_ITER):
        if not live.size:
            break
        p = np.exp(-z)
        p += 1.0
        np.divide(1.0, p, out=p)  # sigma(z) = 1 / (1 + e^-z)
        resid = p - t
        gb = total(resid, axis=1)
        resid *= m
        ga = total(resid, axis=1)
        del resid
        done = (np.abs(ga) < _CAL_TOL) & (np.abs(gb) < _CAL_TOL)  # a NaN gradient never passes
        p, ga, gb = settle(done, None, p, ga, gb)
        wgt = 1.0 - p
        wgt *= p
        del p
        h22 = total(wgt, axis=1) + 1e-12
        h12 = total(wgt * m, axis=1)
        wgt *= sq
        h11 = total(wgt, axis=1) + 1e-12
        del wgt
        det = h11 * h22 - h12 * h12
        ga, gb, h11, h12, h22, det = settle(det <= 0, "calibration Hessian is singular",
                                            ga, gb, h11, h12, h22, det)
        da = -(h22 * ga - h12 * gb) / det
        db = -(-h12 * ga + h11 * gb) / det

        # The full step first (1.0 * d is d); the columns that reject it try up to 8
        # halvings per call, no more trial rows than the batch has columns.  A trial has
        # the bits of one made alone, so the first of (da, db) * 2**-i, i < 40, accepted wins.
        value, z_new = nll(a + da, b + db, m, t)
        searching, f, tried = ~(value <= current), 1.0, 1
        while tried < 40 and searching.any():
            rows = np.flatnonzero(searching)
            k = min(8, 40 - tried, len(y) // rows.size)
            fs = np.ldexp(f, -np.arange(1, k + 1))
            f, tried, at = fs[-1], tried + k, np.repeat(rows, k)
            ta, tb = (fs * da[rows, None]).ravel(), (fs * db[rows, None]).ravel()
            tv, tz = nll(a[at] + ta, b[at] + tb, m[at], t[at])
            ok = (tv <= current[at]).reshape(-1, k)
            hit = ok.any(axis=1)
            i, won = np.flatnonzero(hit) * k + ok.argmax(axis=1)[hit], rows[hit]
            da[won], db[won], value[won], z_new[won] = ta[i], tb[i], tv[i], tz[i]
            searching[won] = False
        a, b, current, z = a + da, b + db, value, z_new
        da, db = settle(searching, "calibration line search failed", da, db)
        settle(np.maximum(np.abs(da), np.abs(db)) < _CAL_TOL)
    for j in live:
        failures[int(j)] = FitError(f"calibration did not converge in {_MAX_ITER} iterations")
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
    with np.errstate(over="ignore"):  # e^-z = inf below z = -709 still gives 0.0
        return 1.0 / (1.0 + np.exp(-z))

