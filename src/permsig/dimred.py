"""Linear dimensionality reduction: single-component PLS and PCA.

Both reducers store a column mean and a set of unit-norm projection
directions; :func:`reduce` applies them to new data.  PLS extracts the
single direction of maximal covariance with a signed binary response and
is refit wherever labels change (per training fold, per class pair).
PCA is the unsupervised fallback for data without labels.  A PLS fit
takes only a batch of columns along a leading axis and returns
``(reducer, failures)``: a direction for every column, zero for a
degenerate one, and the ``FitError`` of each degenerate column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FitError

_DEGENERATE_TOL = 1e-12


@dataclass(frozen=True)
class LinearReducer:
    """Fitted linear projection, or one per column of a batch.

    Parameters
    ----------
    mean : ndarray, shape (N,) or (R, N)
        Column mean subtracted before projecting.
    directions : ndarray, shape (N, r) or (R, N, r)
        Unit-norm projection directions, one column per component.
    """

    mean: np.ndarray
    directions: np.ndarray

    def __post_init__(self):
        mean = np.array(self.mean, dtype=np.float64, copy=True)
        dirs = np.array(self.directions, dtype=np.float64, copy=True)
        if mean.ndim not in (1, 2) or dirs.ndim != mean.ndim + 1 or dirs.shape[:-1] != mean.shape:
            raise ValueError("mean must be (N,) and directions (N, r), or (R, N) and (R, N, r)")
        mean.setflags(write=False)
        dirs.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "directions", dirs)

    def column(self, j: int) -> "LinearReducer":
        """Column ``j`` of a batch; a single reducer is every column's."""
        if self.mean.ndim == 1:
            return self
        return LinearReducer(self.mean[j], self.directions[j])

    def select(self, columns) -> "LinearReducer":
        """The batch of the listed columns, in that order; a single
        reducer is every column's."""
        if self.mean.ndim == 1:
            return self
        return LinearReducer(self.mean[columns], self.directions[columns])


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
        rows that every column shares
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
    if not np.all((y == 1.0) | (y == -1.0)):
        raise ValueError("y must contain only -1 and +1")
    if not np.all((y > 0).any(axis=1) & (y < 0).any(axis=1)):
        raise ValueError("both label signs must be present")
    mean = x.mean(axis=-2)
    yc = y - y.mean(axis=1, keepdims=True)
    # One feature at a time, so no temporary is larger than y.
    w = np.empty((len(y), x.shape[-1]))
    scale = np.zeros(len(y))
    for j in range(x.shape[-1]):
        xc = x[..., j] - mean[..., j, None]
        w[:, j] = np.sum(xc * yc, axis=1)
        scale = np.maximum(scale, np.abs(xc).max(axis=-1))
    norm = np.sqrt(np.sum(w * w, axis=1))
    scale = scale * x.shape[-2]
    degenerate = norm <= _DEGENERATE_TOL * np.maximum(np.where(scale == 0.0, 1.0, scale), 1.0)
    failures = {int(j): FitError("degenerate PLS direction: covariance with labels is zero")
                for j in np.flatnonzero(degenerate)}
    w[degenerate], norm[degenerate] = 0.0, 1.0
    mean = np.broadcast_to(mean, w.shape)
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
        return pca_fit(x[None], r).column(0)
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
    column.
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
