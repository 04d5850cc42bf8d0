"""Linear dimensionality reduction: single-component PLS and PCA.

Both reducers store a column mean and a set of unit-norm projection
directions, each one per column of a batch along a leading axis or one
that every column shares; :func:`reduce` applies them to new data.  PLS
extracts the single direction of maximal covariance with a signed binary
response and is refit wherever labels change (per training fold, per
class pair).  PCA is the unsupervised fallback for data without labels.
A PLS fit takes only a batch of columns along a leading axis and returns
``(reducer, failures)``: a direction for every column, zero for a
degenerate one, and the ``FitError`` of each degenerate column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FitError, signed_counts

_DEGENERATE_TOL = 1e-12


@dataclass(frozen=True)
class LinearReducer:
    """Fitted linear projection, or one per column of a batch.

    Parameters
    ----------
    mean : ndarray, shape (N,), or (R, N) with one mean per column
        Column mean subtracted before projecting.
    directions : ndarray, shape (N, r), or (R, N, r) with one set per column
        Unit-norm projection directions, one column per component.
    """

    mean: np.ndarray
    directions: np.ndarray

    def __post_init__(self):
        mean = np.array(self.mean, dtype=np.float64, copy=True)
        dirs = np.array(self.directions, dtype=np.float64, copy=True)
        if dirs.ndim not in (2, 3) or mean.shape not in (dirs.shape[-2:-1], dirs.shape[:-1]):
            raise ValueError("directions must be (N, r) or (R, N, r), and mean (N,) or (R, N)")
        mean.setflags(write=False)
        dirs.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "directions", dirs)

    def select(self, columns) -> "LinearReducer":
        """The batch of the listed columns, in that order, or the one
        column of an integer; a reducer with no column axis is every
        column's."""
        if self.directions.ndim == 2:
            return self
        mean = self.mean if self.mean.ndim == 1 else self.mean[columns]
        return LinearReducer(mean, self.directions[columns])


def pls1_fit(x: np.ndarray, y: np.ndarray):
    """Fit one partial-least-squares component per column of a batch.

    The direction is the unit-normalized covariance vector between the
    centered features and the centered signed response:
    ``w = X_c.T @ y_c / ||X_c.T @ y_c||``.  Every sum runs over one
    column's rows alone, so a column's fit does not depend on the batch
    it is in.

    Parameters
    ----------
    x : ndarray, shape (R, n, N) for a batch of R columns, or (n, N)
        rows that every column shares, which give one shared (N,) mean
    y : ndarray, shape (R, n)
        Signed labels of each column, both of ``-1`` and ``+1`` present.

    Returns
    -------
    ``(reducer, failures)``: ``failures`` maps each column whose
    covariance vector is numerically zero (degenerate direction, e.g.
    constant features) to its ``FitError``, and that column's direction
    is zero, so its scores stay finite.

    Raises
    ------
    ValueError
        On other shapes (a single (n,) ``y`` included), labels that are
        not signed binary, or a column missing one sign.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim not in (2, 3) or y.ndim != 2 or x.shape[-2] != y.shape[1] \
            or (x.ndim == 3 and x.shape[0] != y.shape[0]):
        raise ValueError("x must be (R, n, N) or shared (n, N), and y (R, n)")
    signed_counts(y)
    (cols, n), n_feat = y.shape, x.shape[-1]
    mean = x.mean(axis=-2)
    yc = y - y.mean(axis=1, keepdims=True)
    # Each feature's centered values are one C-ordered row, so each
    # covariance is a sum over one contiguous row, as a lone feature's is:
    # a sum's rounding depends on the layout it runs over.
    xc = np.subtract(np.swapaxes(x, -1, -2), mean[..., None],
                     out=np.empty(x.shape[:-2] + (n_feat, n)))
    peak = np.maximum(xc.max(axis=(-2, -1), initial=0.0), -xc.min(axis=(-2, -1), initial=0.0))
    scale = np.broadcast_to(peak * n, (cols,))
    # The products overwrite a batch's centered values; shared ones stay.
    prod = xc if xc.ndim == 3 else np.empty((cols, n_feat, n))
    w = np.multiply(xc, yc[:, None, :], out=prod).sum(axis=-1)
    del xc, prod
    norm = np.sqrt(np.sum(w * w, axis=1))
    degenerate = norm <= _DEGENERATE_TOL * np.maximum(np.where(scale == 0.0, 1.0, scale), 1.0)
    failures = {int(j): FitError("degenerate PLS direction: covariance with labels is zero")
                for j in np.flatnonzero(degenerate)}
    w[degenerate], norm[degenerate] = 0.0, 1.0
    return LinearReducer(mean, (w / norm[:, None])[:, :, None]), failures


def pca_fit(x: np.ndarray, r: int) -> LinearReducer:
    """Fit the top-``r`` principal directions of ``x``.

    Directions are eigenvectors of the sample covariance matrix, ordered
    by decreasing eigenvalue.  Each direction's sign is fixed so that its
    largest-magnitude entry is positive, making the result deterministic.
    ``x`` of shape (R, n, N) fits each of R columns on its own; (n, N), one.

    Raises
    ------
    ValueError
        If ``r`` is not in ``[1, min(n - 1, N)]`` or ``n < 2``.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 2:
        return pca_fit(x[None], r).select(0)
    if x.ndim != 3:
        raise ValueError("x must be (n, N) or (R, n, N)")
    _, n, n_feat = x.shape
    if n < 2:
        raise ValueError("PCA needs at least 2 rows")
    if not 1 <= r <= min(n - 1, n_feat):
        raise ValueError(f"r must lie in [1, {min(n - 1, n_feat)}]")
    mean = x.mean(axis=1)
    centered = x - mean[:, None, :]
    cov = np.matmul(centered.transpose(0, 2, 1), centered) / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals, axis=1)[:, ::-1][:, :r]
    dirs = np.take_along_axis(eigvecs, order[:, None, :], axis=2)
    lead = np.take_along_axis(dirs, np.argmax(np.abs(dirs), axis=1)[:, None, :], axis=1)
    dirs = np.where(lead < 0, -dirs, dirs)
    return LinearReducer(mean, dirs)


def reduce(m: LinearReducer, x: np.ndarray) -> np.ndarray:
    """Project rows of ``x`` onto the fitted directions.

    Returns the ``(..., n, r)`` scores ``(x - mean) @ directions``.  A
    batch of reducers projects a batch ``x`` of shape (R, n, N), or the
    same (n, N) rows for every column; the product is taken column by
    column.  Shared rows are centred once when the mean is shared too,
    as a ``pls1_fit`` on shared rows gives.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (2, 3) or x.shape[-1] != m.mean.shape[-1]:
        raise ValueError(f"x must have {m.mean.shape[-1]} columns, got "
                         f"{x.shape[-1] if x.ndim in (2, 3) else 'non-2D'}")
    # A product's rounding depends on its operands' memory layout, which
    # broadcasting may leave in any order; C order makes every column's
    # product the one a single reducer computes.
    mean = m.mean[..., None, :]
    centered = np.subtract(x, mean, out=np.empty(np.broadcast_shapes(x.shape, mean.shape)))
    return np.matmul(centered, m.directions)
