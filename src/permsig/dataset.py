"""Labeled feature tables and the randomized operations studies need.

A :class:`Dataset` is an immutable ``(n, N)`` float matrix plus integer
labels in ``[0, class_count)``; a :class:`Batch` holds columns of one
dataset, each a labeling of its rows (or of a reordering or subset of
them), which studies fit together.  All randomized operations (label
permutation, row shuffling, fold assignment, null-group splitting,
synthetic generation) are pure functions of their inputs and each
column's :class:`~permsig.rng.PermutationPlan`, so rerunning with the
same plans reproduces the result bit for bit.
"""

from __future__ import annotations

import array
import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import check, is_int, is_real
from .rng import PermutationPlan


@dataclass(frozen=True)
class Dataset:
    """Immutable labeled dataset.

    Parameters
    ----------
    features : ndarray, shape (n, N)
        Finite float64 feature matrix.
    labels : ndarray, shape (n,)
        Integer class labels in ``[0, class_count)``.
    class_count : int
        Number of classes; 1 denotes an unlabeled one-condition set
        (all labels are then 0).
    feature_names : tuple of str, optional
        Column names; defaults to None.
    """

    features: np.ndarray
    labels: np.ndarray
    class_count: int
    feature_names: tuple[str, ...] | None = None

    def __post_init__(self):
        feats = np.array(self.features, dtype=np.float64, copy=True, order="C")
        if feats.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        labs = np.array(self.labels, dtype=np.int64, copy=True)
        if labs.ndim != 1 or labs.shape[0] != feats.shape[0]:
            raise ValueError("labels must be 1-D with one entry per feature row")
        if self.class_count < 1:
            raise ValueError("class_count must be at least 1")
        if labs.size and (labs.min() < 0 or labs.max() >= self.class_count):
            raise ValueError("every label must lie in [0, class_count)")
        if not np.all(np.isfinite(feats)):
            raise ValueError("features must be finite")
        if self.feature_names is not None:
            names = tuple(str(s) for s in self.feature_names)
            if len(names) != feats.shape[1]:
                raise ValueError("feature_names length must match column count")
            object.__setattr__(self, "feature_names", names)
        feats.setflags(write=False)
        labs.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class Batch:
    """Columns of one dataset that are fitted together.

    Column ``j`` is the dataset whose row ``i`` is row ``rows[j, i]`` of
    ``features``, an (n, N) array, with label ``labels[j, i]``, and whose
    random draws come from ``plans[j]``; ``rows`` is None when every
    column has all rows, in order.  A relabeling gives each column its own
    labels, a row shuffle or a fold subset its own rows, and the features
    are never copied, so work that depends only on them (an encoding, say)
    is done once for all columns.  Fits also need every column to hold the
    same number of rows of each class, which all of these keep.
    """

    features: np.ndarray
    rows: np.ndarray | None
    labels: np.ndarray
    class_count: int
    plans: tuple[PermutationPlan, ...]

    @classmethod
    def of(cls, d: Dataset, plans) -> "Batch":
        """Columns of ``d`` as it is, one fitted under each plan."""
        plans = tuple(plans)
        if not plans:
            raise ValueError("a batch needs at least one column")
        return cls(d.features, None, np.broadcast_to(d.labels, (len(plans), d.n)),
                   d.class_count, plans)

    @property
    def size(self) -> int:
        return len(self.plans)

    @property
    def n(self) -> int:
        return self.labels.shape[1]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def column_rows(self, j: int) -> np.ndarray:
        """Column ``j``'s rows of the features."""
        return self.features if self.rows is None else self.features[self.rows[j]]

    def subset(self, positions: np.ndarray) -> "Batch":
        """Each column's rows at ``positions[j]``, an (R, n') index array."""
        positions = np.asarray(positions)
        rows = positions if self.rows is None else np.take_along_axis(self.rows, positions, axis=1)
        labels = np.take_along_axis(self.labels, positions, axis=1)
        return Batch(self.features, rows, labels, self.class_count, self.plans)


def load_csv(path: str, label_column: str = "label") -> Dataset:
    """Load a dataset from a headed CSV file.

    The named label column may hold arbitrary strings; classes are encoded
    by order of first appearance.  Every other column must parse as a
    finite float.  Comma separator, ``.`` decimal point, UTF-8 with or
    without a byte-order mark.  Parsed cells go straight into one float64
    buffer, which ``Dataset`` copies once: a load peaks at about 2.3 times
    the features' bytes.

    Raises
    ------
    FileNotFoundError
        If the file does not exist.
    ValueError
        If a header name repeats (the message names its two 1-based
        columns), the label column or every feature column is missing, any
        cell fails to parse or a label cell is blank (the message names the
        1-based data row and the column), or fewer than 2 data rows are
        present.  A label column that is not a string raises ``ConfigError``.
    """
    check(isinstance(label_column, str), "label_column", "must be a string")
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, header row required") from None
        header = [h.strip() for h in header]
        first: dict[str, int] = {}
        for col, name in enumerate(header, start=1):
            if (at := first.setdefault(name, col)) != col:
                raise ValueError(f"{path}: header name '{name}' repeats, at columns {at} and {col}")
        if label_column not in header:
            raise ValueError(f"{path}: label column '{label_column}' not found in header")
        label_idx = header.index(label_column)
        feature_names = tuple(h for i, h in enumerate(header) if i != label_idx)
        if not feature_names:
            raise ValueError(f"{path}: no feature columns besides label column '{label_column}'")

        cells = array.array("d")
        raw_labels: list[str] = []
        for row_num, row in enumerate(reader, start=1):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(
                    f"{path}: row {row_num} has {len(row)} cells, expected {len(header)}"
                )
            if not (label := row.pop(label_idx).strip()):
                raise ValueError(f"{path}: blank label at row {row_num}, column '{label_column}'")
            raw_labels.append(label)
            try:
                values = list(map(float, row))
            except ValueError:
                values = None
            # A non-finite cell makes the sum non-finite; so, rarely, does an overflow.
            if values is None or not math.isfinite(sum(values)):
                _check_cells(path, row_num, row, feature_names)
            cells.extend(values)

    if len(raw_labels) < 2:
        raise ValueError(f"{path}: at least 2 data rows required, found {len(raw_labels)}")

    seen: dict[str, int] = {}
    labels = np.empty(len(raw_labels), dtype=np.int64)
    for i, name in enumerate(raw_labels):
        if name not in seen:
            seen[name] = len(seen)
        labels[i] = seen[name]
    return Dataset(np.frombuffer(cells).reshape(len(labels), -1), labels, len(seen), feature_names)


def _check_cells(path: str, row_num: int, cells: list[str], names: tuple[str, ...]) -> None:
    """Raise for the first of a row's feature cells that is not a finite float."""
    for cell, name in zip(cells, names):
        try:
            ok = math.isfinite(float(cell))
        except ValueError:
            ok = False
        if not ok:
            raise ValueError(
                f"{path}: non-numeric cell {cell!r} at row {row_num}, column '{name}'"
            )


def save_csv(d: Dataset, path: str) -> None:
    """Write a dataset as CSV with the label column named ``label``.

    Labels are written as their integer codes; reloading re-encodes them
    by first appearance, which preserves class structure up to a
    consistent renaming.
    """
    names = d.feature_names or tuple(f"f{i}" for i in range(d.n_features))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", *names])
        for y, x in zip(d.labels, d.features):
            writer.writerow([int(y), *(repr(float(v)) for v in x)])


def scale_unit_interval(d: Dataset) -> Dataset:
    """Min-max scale every feature column into ``[0, 1]``.

    Constant columns map to 0.  A column whose range passes the float
    maximum is scaled through the halves of its values, which halving
    keeps exact in the normal range; every other column keeps its bits.
    """
    lo, hi = d.features.min(axis=0), d.features.max(axis=0)
    with np.errstate(over="ignore"):  # the columns that overflow are redone below
        span = hi - lo
        scaled = d.features - lo
    wide = np.isinf(span)
    span[wide] = hi[wide] / 2 - lo[wide] / 2
    scaled /= np.where(span > 0, span, 1.0)
    scaled[:, wide] = (d.features[:, wide] / 2 - lo[wide] / 2) / span[wide]
    scaled[:, span == 0] = 0.0
    return Dataset(scaled, d.labels, d.class_count, d.feature_names)


def _orders(n: int, plans, tag: str) -> np.ndarray:
    """One permutation of ``range(n)`` per plan, each drawn from its ``tag`` stream."""
    if not plans:
        raise ValueError("a batch needs at least one column")
    # One generator, re-keyed per plan, shuffles each row as permutation(n) does.
    orders, gen = np.tile(np.arange(n), (len(plans), 1)), None
    for order, plan in zip(orders, plans):
        (gen := plan.rng(tag, gen)).shuffle(order)
    return orders


def permute_labels(d: Dataset, plans) -> Batch:
    """Columns of ``d`` with uniformly permuted labels, one under each plan.

    The features stay fixed, and every column keeps the label histogram
    exactly.
    """
    plans = tuple(plans)
    return Batch(d.features, None, d.labels[_orders(d.n, plans, "permute")], d.class_count, plans)


def shuffle_rows(d: Dataset, plans) -> Batch:
    """Columns of ``d``'s rows in a shuffled order, one under each plan;
    each row keeps its label."""
    plans = tuple(plans)
    orders = _orders(d.n, plans, "shuffle")
    return Batch(d.features, orders, d.labels[orders], d.class_count, plans)


def trim_to_even(d: Dataset, plan: PermutationPlan) -> Dataset:
    """Drop one row after a seeded shuffle so the row count becomes even.

    Returns the dataset unchanged when ``n`` is already even.
    """
    if d.n % 2 == 0:
        return d
    order = plan.rng("trim").permutation(d.n)[:-1]
    return Dataset(d.features[order], d.labels[order], d.class_count, d.feature_names)


def stratified_folds(batch: Batch, k: int) -> np.ndarray:
    """Assign each column's rows to ``k`` folds, stratified by its labels.

    Gives an (R, n) int64 array whose entry ``[j, i]`` is the fold of
    column ``j``'s row ``i``.  Column ``j``'s folds are drawn from
    ``plans[j]``, class by class.  Within every class the per-fold counts
    differ by at most one, and the extra rows of successive classes are
    dealt to the currently lightest folds so the overall fold sizes also
    differ by at most one.  Every column holds the same number of rows of
    each class, so every column gets the same fold sizes.

    Raises
    ------
    ValueError
        If ``k < 2``, the columns' class counts differ, or a class has
        fewer than ``k`` rows.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    counts = np.array([np.bincount(labels, minlength=batch.class_count)
                       for labels in batch.labels])
    if np.any(counts != counts[0]):
        raise ValueError("every column must hold the same number of rows of each class")
    lacking = np.flatnonzero(counts[0] < k)
    if lacking.size:
        raise ValueError(
            f"class {int(lacking[0])} has {int(counts[0, lacking[0]])} rows, "
            f"fewer than k={k}"
        )
    # Each class's fold ids, in the order its shuffled rows take them.
    class_folds = []
    load = np.zeros(k, dtype=np.int64)
    for count in counts[0]:
        base, extra = divmod(int(count), k)
        per_fold = np.full(k, base, dtype=np.int64)
        if extra:
            per_fold[np.argsort(load, kind="stable")[:extra]] += 1
        load += per_fold
        class_folds.append(np.repeat(np.arange(k, dtype=np.int64), per_fold))
    folds, gen = np.empty(batch.labels.shape, dtype=np.int64), None
    for fold_of, labels, plan in zip(folds, batch.labels, batch.plans):
        gen = plan.rng("folds", gen)
        for c, ids in enumerate(class_folds):
            rows = np.flatnonzero(labels == c)
            fold_of[rows[gen.permutation(rows.size)]] = ids
    return folds


def split_null_groups(d: Dataset, plans) -> Batch:
    """Columns of a one-condition dataset split into two equal
    pseudo-groups, one under each plan.

    In every column exactly ``n/2`` rows get label 0 and ``n/2`` get
    label 1, chosen uniformly at random, so its group difference is null
    by construction.

    Raises
    ------
    ValueError
        If the dataset has more than one class or an odd row count.
    """
    if d.class_count != 1:
        raise ValueError("split_null_groups requires a one-condition dataset")
    if d.n % 2 != 0:
        raise ValueError("split_null_groups requires an even row count")
    plans = tuple(plans)
    orders = _orders(d.n, plans, "split")
    labels = np.zeros(orders.shape, dtype=np.int64)
    np.put_along_axis(labels, orders[:, d.n // 2 :], 1, axis=1)
    return Batch(d.features, None, labels, 2, plans)


def synth_effect(
    n_per_class: int,
    dim: int,
    effect: float,
    plan: PermutationPlan,
    classes: int = 2,
) -> Dataset:
    """Generate Gaussian class blobs with a controlled mean separation.

    Class ``c`` is drawn from an isotropic unit-variance Gaussian whose
    mean is ``c * effect`` in the first ``min(5, dim)`` coordinates and 0
    elsewhere.  ``effect = 0`` makes all classes identically distributed.
    Rows are shuffled so class order carries no information.
    """
    for name, value in (("n_per_class", n_per_class), ("dim", dim), ("classes", classes)):
        check(is_int(value) and value >= 1, name, "must be a positive integer")
    check(is_real(effect) and 0 <= effect < np.inf, "effect",
          "must be a finite non-negative number")
    gen = plan.rng("synth")
    shifted = min(5, dim)
    n = n_per_class * classes
    x = gen.standard_normal((n, dim))
    y = np.repeat(np.arange(classes, dtype=np.int64), n_per_class)
    x[:, :shifted] += (y * effect)[:, None]
    order = gen.permutation(n)
    names = tuple(f"f{i}" for i in range(dim))
    return Dataset(x[order], y[order], classes, names)
