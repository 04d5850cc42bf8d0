import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest

from permsig.dataset import (
    Batch,
    Dataset,
    load_csv,
    permute_labels,
    save_csv,
    scale_unit_interval,
    shuffle_rows,
    split_null_groups,
    stratified_folds,
    synth_effect,
    trim_to_even,
)
from permsig.rng import PermutationPlan


def toy(n=6, n_feat=3, classes=2, seed=0):
    gen = np.random.Generator(np.random.Philox(seed))
    x = gen.standard_normal((n, n_feat))
    y = np.arange(n) % classes
    return Dataset(x, y, classes)


# ---------------------------------------------------------------- Dataset


def test_dataset_is_immutable_and_float64():
    d = toy()
    assert d.features.dtype == np.float64
    assert d.labels.dtype == np.int64
    with pytest.raises(ValueError):
        d.features[0, 0] = 99.0
    with pytest.raises(ValueError):
        d.labels[0] = 1


def test_dataset_copies_its_inputs():
    x = np.zeros((4, 2))
    y = np.zeros(4, dtype=int)
    d = Dataset(x, y, 1)
    x[0, 0] = 123.0
    y[0] = 1
    assert d.features[0, 0] == 0.0
    assert d.labels[0] == 0


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros(4), np.zeros(4, dtype=int), 1)  # 1-D features
    with pytest.raises(ValueError, match="one entry per feature row"):
        Dataset(np.zeros((4, 2)), np.zeros(3, dtype=int), 1)  # length mismatch
    with pytest.raises(ValueError, match="one entry per feature row"):
        Dataset(np.zeros((4, 2)), np.zeros((4, 1), dtype=int), 1)  # 2-D labels
    with pytest.raises(ValueError, match="class_count"):
        Dataset(np.zeros((4, 2)), np.zeros(4, dtype=int), 0)
    with pytest.raises(ValueError):
        Dataset(np.full((4, 2), np.nan), np.zeros(4, dtype=int), 1)
    with pytest.raises(ValueError, match="lie in"):
        Dataset(np.zeros((4, 2)), np.array([0, 0, 0, 2]), 2)  # label out of range
    with pytest.raises(ValueError, match="lie in"):
        Dataset(np.zeros((4, 2)), np.array([0, -1, 0, 1]), 2)
    with pytest.raises(ValueError):
        Dataset(np.zeros((4, 2)), np.zeros(4, dtype=int), 1, feature_names=("a",))


# ---------------------------------------------------------------- Batch


def test_batch_of_datasets_and_its_subsets():
    d = toy(n=6)
    plans = [PermutationPlan(2, r) for r in range(3)]
    batch = permute_labels(d, plans)
    assert (batch.size, batch.n, batch.n_features) == (3, 6, 3)
    assert batch.rows is None and batch.features is d.features
    sub = batch.subset(np.array([[0, 2], [1, 3], [4, 5]]))
    np.testing.assert_array_equal(sub.rows, [[0, 2], [1, 3], [4, 5]])
    np.testing.assert_array_equal(sub.labels[2], batch.labels[2, [4, 5]])
    np.testing.assert_array_equal(sub.column_rows(1), d.features[[1, 3]])
    np.testing.assert_array_equal(sub.subset(np.array([[1], [0], [1]])).rows, [[2], [1], [5]])
    own = Batch.of(d, plans[:2])
    assert (own.size, own.rows, own.class_count, own.plans) == (2, None, 2, tuple(plans[:2]))
    assert own.features is d.features
    np.testing.assert_array_equal(own.labels, [d.labels, d.labels])
    for make in (Batch.of, permute_labels, shuffle_rows):
        with pytest.raises(ValueError, match="at least one column"):
            make(d, [])


def test_column_makers_share_the_read_only_features():
    d = toy()
    one = Dataset(d.features, np.zeros(d.n, dtype=int), 1)
    plans = [PermutationPlan(1, r) for r in range(2)]
    for data, batch in ((d, permute_labels(d, plans)), (d, shuffle_rows(d, plans)),
                        (one, split_null_groups(one, plans)), (d, Batch.of(d, plans))):
        assert batch.features is data.features
        with pytest.raises(ValueError):
            batch.features[0, 0] = 1.0


# ---------------------------------------------------------------- CSV I/O


def test_csv_round_trip(tmp_path):
    d = synth_effect(5, 3, 1.0, PermutationPlan(3, 0))
    path = tmp_path / "data.csv"
    save_csv(d, str(path))
    back = load_csv(str(path))
    np.testing.assert_array_equal(back.features, d.features)
    # labels survive up to a consistent renaming: same partition into classes
    mapping = {}
    for orig, new in zip(d.labels, back.labels):
        assert mapping.setdefault(int(orig), int(new)) == int(new)
    assert len(set(mapping.values())) == d.class_count
    assert back.class_count == d.class_count
    assert back.feature_names == d.feature_names


def test_csv_with_byte_order_mark_loads_as_without(tmp_path):
    d = synth_effect(5, 3, 1.0, PermutationPlan(3, 0))
    plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
    save_csv(d, str(plain))
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    a, b = load_csv(str(marked)), load_csv(str(plain))
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)
    assert (a.class_count, a.feature_names) == (b.class_count, b.feature_names)


def test_csv_string_labels_first_appearance(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("label,f0\nctrl,1.0\ncase,2.0\nctrl,3.0\n")
    d = load_csv(str(path))
    np.testing.assert_array_equal(d.labels, [0, 1, 0])
    assert d.class_count == 2


def test_csv_label_column_position_free(tmp_path):
    path = tmp_path / "mid.csv"
    path.write_text("f0,label,f1\n1.0,a,2.0\n3.0,b,4.0\n")
    d = load_csv(str(path))
    np.testing.assert_array_equal(d.features, [[1.0, 2.0], [3.0, 4.0]])
    assert d.feature_names == ("f0", "f1")


def test_csv_errors_name_row_and_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("label,f0,f1\n0,1.0,2.0\n1,oops,4.0\n")
    with pytest.raises(ValueError, match=r"row 2.*column 'f0'"):
        load_csv(str(path))
    path.write_text("label,f0\n0,inf\n1,2.0\n")
    with pytest.raises(ValueError, match=r"row 1"):
        load_csv(str(path))


def test_csv_first_faulty_row_wins(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("label,f0,f1\n0,inf,1.0\n1,2.0,3.0\n0,4.0\n")
    with pytest.raises(ValueError, match=r"non-numeric cell 'inf' at row 1, column 'f0'"):
        load_csv(str(path))
    path.write_text("label,f0,f1\n0,1.0,2.0\n1,3.0\n0,x,4.0\n")
    with pytest.raises(ValueError, match=r"row 2 has 2 cells, expected 3"):
        load_csv(str(path))


@pytest.mark.parametrize("cell", ["", "  ", "\t"])
def test_csv_blank_label_names_row_and_column(tmp_path, cell):
    # A blank label is missing data, not a class of its own.
    path = tmp_path / "bad.csv"
    path.write_text(f"f0,group,f1\n1.0,a,2.0\n3.0,{cell},4.0\n5.0,b,oops\n")
    with pytest.raises(ValueError, match=r"blank label at row 2, column 'group'"):
        load_csv(str(path), label_column="group")


def test_csv_row_whose_sum_overflows_loads(tmp_path):
    path = tmp_path / "huge.csv"
    path.write_text("label,f0,f1\n0,1e308,1e308\n1,-1e308,-1e308\n")
    np.testing.assert_array_equal(load_csv(str(path)).features, [[1e308, 1e308], [-1e308, -1e308]])


# Each cell goes through float(): these are what it accepts, with the exact
# value (the sign of zero included), and what it rejects.
CSV_CELLS = {
    "underscore": ("1_000", 1000.0),
    "padded": (" 1.5 ", 1.5),
    "nbsp": ("\xa01", 1.0),
    "arabic_digits": ("\u0661\u0662", 12.0),
    "plus": ("+1", 1.0),
    "negative_zero": ("-0", -0.0),
    "underflow": ("1e-400", 0.0),
    "nan": ("nan", None),
    "infinity": ("infinity", None),
    "overflow": ("1e400", None),
    "hex": ("0x10", None),
    "empty": ("", None),
    "bad_exponent": ("1.5e", None),
}


@pytest.mark.parametrize("cell, value", list(CSV_CELLS.values()), ids=list(CSV_CELLS))
def test_csv_cell_parsing(tmp_path, cell, value):
    path = tmp_path / "cells.csv"
    path.write_text(f"label,f0\n0,{cell}\n1,2.0\n", encoding="utf-8")
    if value is None:
        message = f"non-numeric cell {cell!r} at row 1, column 'f0'"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_csv(str(path))
    else:
        assert repr(float(load_csv(str(path)).features[0, 0])) == repr(value)


# Cells that a float64 CSV may hold at its edges: signed zeros, the smallest
# subnormal and normal, the extremes (whose row sums overflow), and values
# whose shortest repr takes 16 or 17 digits.
EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
               1.7976931348623157e308, 0.1, -1 / 3)


def test_csv_cells_equal_a_float_per_cell_in_bits(tmp_path):
    """Random files with a byte-order mark or not, LF or CRLF line ends, blank
    rows, padded cells and the label column anywhere load to exactly the
    bits of ``float()`` on each cell, and their labels by first appearance."""
    gen = np.random.default_rng(20)
    for trial in range(50):
        n, width = int(gen.integers(2, 9)), int(gen.integers(1, 7))
        label_at = int(gen.integers(width + 1))
        bits = gen.integers(-(2**63), 2**63 - 1, size=(n, width), endpoint=True)
        values = bits.view(np.float64)
        edge = gen.random((n, width)) < 0.4
        values[edge] = gen.choice(EDGE_VALUES, size=int(edge.sum()))
        values[~np.isfinite(values)] = 1.5
        names = [f"f{i}" for i in range(width)]
        names.insert(label_at, "label")
        lines, cells, labels = [",".join(names)], [], []
        for row in values:
            row_cells = [gen.choice(["", " ", "\t"]) + repr(float(v)) + gen.choice(["", " "])
                         for v in row]
            label = str(gen.choice(["ctrl", "case", " pat "]))
            cells.append(row_cells)
            labels.append(label.strip())
            lines.append(",".join(row_cells[:label_at] + [label] + row_cells[label_at:]))
            if gen.random() < 0.3:
                lines.append("")
        end = "\r\n" if trial % 2 else "\n"
        path = tmp_path / f"random{trial}.csv"
        with open(path, "w", newline="", encoding="utf-8-sig" if trial % 3 == 0 else "utf-8") as fh:
            fh.write(end.join(lines) + end)

        d = load_csv(str(path))
        reference = np.array([[float(c) for c in row] for row in cells], dtype=np.float64)
        np.testing.assert_array_equal(d.features.view(np.int64), reference.view(np.int64))
        codes = {}
        np.testing.assert_array_equal(d.labels, [codes.setdefault(y, len(codes)) for y in labels])
        assert (d.class_count, d.feature_names) == (len(codes), tuple(f"f{i}" for i in range(width)))


def test_csv_load_peaks_near_twice_the_features(tmp_path):
    """The cells go into one float64 buffer that ``Dataset`` copies: with
    every cell held as a Python float until the end, a 300 x 2,000 load
    peaked at 6.2 times the features' bytes."""
    d = synth_effect(150, 2000, 0.0, PermutationPlan(4, 0))
    path = tmp_path / "wide.csv"
    save_csv(d, str(path))
    tracemalloc.start()
    try:
        back = load_csv(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(back.features, d.features)
    assert peak <= 3 * back.features.nbytes


@pytest.mark.parametrize("header, message", [
    ("label,f0,label", "header name 'label' repeats, at columns 1 and 3"),
    ("label,f0,f0", "header name 'f0' repeats, at columns 2 and 3"),
])
def test_csv_repeated_header_name(tmp_path, header, message):
    path = tmp_path / "repeat.csv"
    path.write_text(f"{header}\n0,1.0,2.0\n1,3.0,4.0\n")
    with pytest.raises(ValueError, match=re.escape(message)):
        load_csv(str(path))


def test_csv_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="empty file, header row required"):
        load_csv(str(path))


def test_csv_missing_label_column(tmp_path):
    path = tmp_path / "nolabel.csv"
    path.write_text("a,b\n1,2\n3,4\n")
    with pytest.raises(ValueError, match="label column"):
        load_csv(str(path))


def test_csv_without_feature_columns(tmp_path):
    path = tmp_path / "labels_only.csv"
    path.write_text("label\n0\n1\n")
    with pytest.raises(ValueError, match="no feature columns"):
        load_csv(str(path))


def test_csv_label_column_must_be_a_string(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("3,f0\n0,1.0\n1,2.0\n")
    with pytest.raises(ValueError, match="field 'label_column'"):
        load_csv(str(path), 3)


def test_csv_too_few_rows(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("label,f0\n0,1.0\n")
    with pytest.raises(ValueError, match="at least 2"):
        load_csv(str(path))


# ---------------------------------------------------------------- scaling


def test_scale_unit_interval_range_and_constants():
    x = np.array([[0.0, 5.0, -3.0], [10.0, 5.0, 7.0], [5.0, 5.0, 2.0]])
    d = Dataset(x, np.zeros(3, dtype=int), 1)
    s = scale_unit_interval(d)
    assert s.features.min() >= 0.0 and s.features.max() <= 1.0
    np.testing.assert_array_equal(s.features[:, 1], 0.0)  # constant column
    np.testing.assert_allclose(s.features[:, 0], [0.0, 1.0, 0.5])


def test_scale_unit_interval_takes_a_range_past_the_float_maximum():
    # 1e308 - (-1e308) overflows: the column used to scale to inf and nan.
    gen = np.random.Generator(np.random.Philox(8))
    x = gen.standard_normal((12, 3))
    x[3, 1], x[8, 1] = 1e308, -1e308
    d = Dataset(x, np.zeros(12, dtype=int), 1)
    s = scale_unit_interval(d).features
    assert s[:, 1].min() == 0.0 and s[:, 1].max() == 1.0
    assert s[3, 1] == 1.0 and s[8, 1] == 0.0
    rest = scale_unit_interval(Dataset(x[:, [0, 2]], d.labels, 1)).features
    assert np.array_equal(s[:, [0, 2]].view(np.int64), rest.view(np.int64))


# ---------------------------------------------------------------- shuffles


def test_permute_labels_preserves_histogram():
    d = toy(n=30, classes=3)
    p = permute_labels(d, [PermutationPlan(5, r) for r in range(4)])
    for labels in p.labels:
        np.testing.assert_array_equal(np.bincount(labels), np.bincount(d.labels))
    assert p.features is d.features and p.class_count == 3


def test_permute_labels_uniform_over_arrangements():
    # n=4 with labels [0,0,1,1]: all C(4,2)=6 distinguishable label vectors
    # should appear equally often; chi-square over 3000 replicates.
    d = Dataset(np.zeros((4, 1)), np.array([0, 0, 1, 1]), 2)
    reps = 3000
    counts: dict[tuple, int] = {}
    for labels in permute_labels(d, [PermutationPlan(11, r) for r in range(reps)]).labels:
        key = tuple(labels.tolist())
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 6
    expect = reps / 6
    chi2 = sum((c - expect) ** 2 / expect for c in counts.values())
    # chi-square with 5 dof: 0.999 quantile is 20.5
    assert chi2 < 20.5


def test_shuffle_rows_keeps_pairs_together():
    d = toy(n=12, classes=3)
    s = shuffle_rows(d, [PermutationPlan(2, 0), PermutationPlan(2, 1)])
    assert s.features is d.features
    orig = {(tuple(f), int(l)) for f, l in zip(d.features, d.labels)}
    for j in range(s.size):
        np.testing.assert_array_equal(np.sort(s.rows[j]), np.arange(d.n))
        assert not np.array_equal(s.column_rows(j), d.features)
        # every (row, label) pair must still exist
        new = {(tuple(f), int(l)) for f, l in zip(s.column_rows(j), s.labels[j])}
        assert orig == new


def test_trim_to_even():
    d = toy(n=7)
    t = trim_to_even(d, PermutationPlan(1, 0))
    assert t.n == 6
    even = toy(n=8)
    assert trim_to_even(even, PermutationPlan(1, 0)) is even


# ---------------------------------------------------------------- folds


def test_stratified_folds_cover_and_balance():
    d = toy(n=47, classes=3)
    batch = permute_labels(d, [PermutationPlan(4, r) for r in range(3)])
    folds = stratified_folds(batch, 5)
    assert folds.shape == (3, 47) and folds.dtype == np.int64
    for labels, fold_of in zip(batch.labels, folds):
        # exact partition
        all_rows = np.sort(np.concatenate([np.flatnonzero(fold_of == f) for f in range(5)]))
        np.testing.assert_array_equal(all_rows, np.arange(47))
        sizes = [int(np.sum(fold_of == f)) for f in range(5)]
        assert max(sizes) - min(sizes) <= 1
        # per-class balance within one
        for c in range(3):
            per = [int(np.sum(labels[fold_of == f] == c)) for f in range(5)]
            assert max(per) - min(per) <= 1


def test_stratified_folds_deterministic():
    d = toy(n=30, classes=2)
    plans = [PermutationPlan(9, 7), PermutationPlan(9, 8)]
    a = stratified_folds(Batch.of(d, plans), 3)
    b = stratified_folds(Batch.of(d, plans[:1]), 3)
    np.testing.assert_array_equal(a[0], b[0])
    assert not np.array_equal(a[0], a[1])


def test_stratified_folds_small_class_rejected():
    d = Dataset(np.zeros((5, 1)), np.array([0, 0, 0, 0, 1]), 2)
    with pytest.raises(ValueError, match="class 1"):
        stratified_folds(Batch.of(d, [PermutationPlan(0, 0)]), 2)
    with pytest.raises(ValueError, match="k must be"):
        stratified_folds(Batch.of(d, [PermutationPlan(0, 0)]), 1)


def test_stratified_folds_rejects_unequal_class_counts():
    d = toy(n=8, classes=2)
    labels = np.array([[0, 1] * 4, [0, 0, 0, 1, 1, 1, 1, 1]])
    batch = Batch(d.features, None, labels, 2, (PermutationPlan(0, 0), PermutationPlan(0, 1)))
    with pytest.raises(ValueError, match="same number of rows of each class"):
        stratified_folds(batch, 2)


# ---------------------------------------------------------------- null split


def test_split_null_groups_exact_halves():
    d = toy(n=20, classes=1)
    s = split_null_groups(d, [PermutationPlan(3, 1), PermutationPlan(3, 2)])
    assert s.class_count == 2 and s.rows is None and s.features is d.features
    np.testing.assert_array_equal(np.sum(s.labels == 0, axis=1), [10, 10])
    np.testing.assert_array_equal(np.sum(s.labels == 1, axis=1), [10, 10])


def test_split_null_groups_uniform():
    # n=4: all C(4,2)=6 splits equally likely
    d = Dataset(np.zeros((4, 1)), np.zeros(4, dtype=int), 1)
    reps = 3000
    counts: dict[tuple, int] = {}
    for labels in split_null_groups(d, [PermutationPlan(8, r) for r in range(reps)]).labels:
        key = tuple(labels.tolist())
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 6
    expect = reps / 6
    chi2 = sum((c - expect) ** 2 / expect for c in counts.values())
    assert chi2 < 20.5


def test_split_null_groups_preconditions():
    plans = [PermutationPlan(0, 0)]
    with pytest.raises(ValueError, match="one-condition"):
        split_null_groups(toy(classes=2), plans)
    with pytest.raises(ValueError, match="even"):
        split_null_groups(toy(n=5, classes=1), plans)
    with pytest.raises(ValueError, match="at least one column"):
        split_null_groups(toy(classes=1), [])


# Each column maker's draws over every plan of a case, by SHA-256 of their
# int64 bytes.  Recorded when every maker still took one plan and returned
# one dataset per call (a shuffle's order then read off a features column of
# 0..n-1), so the batch forms keep each stream's draws.  Class sizes are not
# multiples of k, so the lightest-fold rule deals extra rows.
DRAW_PLANS = [PermutationPlan(0, 0), PermutationPlan(5, 3), PermutationPlan(11, 2**48 + 1),
              PermutationPlan(2**40 + 3, 2**32 + 7)]
DRAW_CASES = {  # name: (class sizes, k)
    "2class": ((7, 5), 3),
    "3class": ((8, 6, 5), 4),
    "one": ((14,), 3),
}
DRAW_SHA256 = {
    ("2class", "permute"): "9cfe265ca853eeed3644031ab9ec5a14793c22f3efd64fdb2860351e68d87b0a",
    ("2class", "permute.folds"): "cb350dbd0660d5033208dca6f23cdf787eb8e5a2087ecdabe5d3cfde6fcd3aa3",
    ("2class", "shuffle"): "0b450acd137f23fb93ab8f781bddce30790d647c43081b1f335aed31a4d2a6d8",
    ("2class", "shuffle.labels"): "6ef37b7596d6fb0ee33bdf565a98150d3686b6bdf30056f1ca38d0c21c8ebdb5",
    ("2class", "shuffle.folds"): "fa4df63e6147de64ecd853dba25f878cb2305fb0dc32f1ceb8427fe70b322b7e",
    ("2class", "own.folds"): "18514eee1691e571d606c5f948d1710f70c6b7e8e50205fa7597aa9c76e1ef02",
    ("3class", "permute"): "a1fa8a60c77504e8c2a95faa2ff9d4e07de93f0af3d2f7612591123d0f3af0dd",
    ("3class", "permute.folds"): "31b68dfd56e9c2eeaae90f8083ddcf79c22f4d5bd9670c7cf80da892dc2f9b08",
    ("3class", "shuffle"): "7059c66dc63d34e3acfa50224cc6d777562f1634f56fb130ac2739084cebf5b4",
    ("3class", "shuffle.labels"): "ac5bc4ac3aceb5fbbc5d2e5fdd3964fbd8a628a392d235e3c977cfbb7491beea",
    ("3class", "shuffle.folds"): "b6b1914b560b993ca31d36412543ea927d3b57bf4002b60d386b46e21707a81f",
    ("3class", "own.folds"): "8c9db0d9dc0be32f3c4a6802e51391f1d0218238686da711cb5d620db80e4a0f",
    ("one", "split"): "194644444e2dec4dbfe3c97e504aceba8f9b28af2bb4df9671401f4694c244dd",
    ("one", "split.folds"): "e926722a3bcf3448af6ef671698d88f5f93139278bd2f7049c1866cdba9ef47d",
}


def _sha(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=np.int64).tobytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(DRAW_CASES))
def test_column_maker_draws_are_pinned(case):
    sizes, k = DRAW_CASES[case]
    labels = np.repeat(np.arange(len(sizes)), sizes)
    d = Dataset(np.arange(labels.size, dtype=float)[:, None], labels, len(sizes))
    got = {}
    if len(sizes) == 1:
        split = split_null_groups(d, DRAW_PLANS)
        got["split"] = _sha(split.labels)
        got["split.folds"] = _sha(stratified_folds(split, k))
    else:
        permuted, shuffled = permute_labels(d, DRAW_PLANS), shuffle_rows(d, DRAW_PLANS)
        got["permute"] = _sha(permuted.labels)
        got["permute.folds"] = _sha(stratified_folds(permuted, k))
        got["shuffle"] = _sha(shuffled.rows)
        got["shuffle.labels"] = _sha(shuffled.labels)
        got["shuffle.folds"] = _sha(stratified_folds(shuffled, k))
        got["own.folds"] = _sha(stratified_folds(Batch.of(d, DRAW_PLANS), k))
    assert got == {draw: sha for (name, draw), sha in DRAW_SHA256.items() if name == case}


# ---------------------------------------------------------------- synthesis


def test_synth_effect_shapes_and_determinism():
    d = synth_effect(25, 7, 1.5, PermutationPlan(6, 0), classes=3)
    assert d.n == 75 and d.n_features == 7 and d.class_count == 3
    np.testing.assert_array_equal(np.bincount(d.labels), [25, 25, 25])
    d2 = synth_effect(25, 7, 1.5, PermutationPlan(6, 0), classes=3)
    np.testing.assert_array_equal(d.features, d2.features)
    np.testing.assert_array_equal(d.labels, d2.labels)


@pytest.mark.parametrize("field, value", [
    ("n_per_class", True),
    ("dim", 2.0),
    ("classes", True),
    ("effect", "big"),
    ("effect", float("nan")),
    ("effect", float("inf")),
])
def test_synth_effect_rejects_wrong_types(field, value):
    args = {"n_per_class": 5, "dim": 3, "effect": 1.0, "classes": 2, field: value}
    with pytest.raises(ValueError, match=field):
        synth_effect(plan=PermutationPlan(0, 0), **args)


def test_synth_effect_mean_separation():
    d = synth_effect(4000, 8, 2.0, PermutationPlan(1, 0))
    m0 = d.features[d.labels == 0].mean(axis=0)
    m1 = d.features[d.labels == 1].mean(axis=0)
    gap = m1 - m0
    # first five coordinates shifted by ~2, the rest by ~0
    se = 1.0 / math.sqrt(4000)
    assert np.all(np.abs(gap[:5] - 2.0) < 5 * se * math.sqrt(2))
    assert np.all(np.abs(gap[5:]) < 5 * se * math.sqrt(2))


def test_synth_effect_zero_effect_is_exchangeable():
    d = synth_effect(50, 3, 0.0, PermutationPlan(2, 0))
    # with no effect the class means should be statistically identical
    m0 = d.features[d.labels == 0].mean(axis=0)
    m1 = d.features[d.labels == 1].mean(axis=0)
    assert np.all(np.abs(m0 - m1) < 1.0)


def test_synth_effect_validation():
    plan = PermutationPlan(0, 0)
    for bad in (
        lambda: synth_effect(0, 3, 1.0, plan),
        lambda: synth_effect(5, 0, 1.0, plan),
        lambda: synth_effect(5, 3, -1.0, plan),
        lambda: synth_effect(5, 3, 1.0, plan, classes=0),
    ):
        with pytest.raises(ValueError):
            bad()
