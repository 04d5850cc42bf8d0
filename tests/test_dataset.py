import math

import numpy as np
import pytest

from permsig.dataset import (
    Dataset,
    FoldAssignment,
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
    assert d.features[0, 0] == 0.0


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros(4), np.zeros(4, dtype=int), 1)  # 1-D features
    with pytest.raises(ValueError):
        Dataset(np.zeros((4, 2)), np.zeros(3, dtype=int), 1)  # length mismatch
    with pytest.raises(ValueError):
        Dataset(np.full((4, 2), np.nan), np.zeros(4, dtype=int), 1)
    with pytest.raises(ValueError):
        Dataset(np.zeros((4, 2)), np.array([0, 0, 0, 2]), 2)  # label out of range
    with pytest.raises(ValueError):
        Dataset(np.zeros((4, 2)), np.zeros(4, dtype=int), 1, feature_names=("a",))


def test_with_labels_keeps_features():
    d = toy()
    d2 = d.with_labels(np.zeros(d.n, dtype=int), class_count=1)
    np.testing.assert_array_equal(d2.features, d.features)
    assert d2.class_count == 1


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


# ---------------------------------------------------------------- shuffles


def test_permute_labels_preserves_histogram():
    d = toy(n=30, classes=3)
    p = permute_labels(d, PermutationPlan(5, 0))
    np.testing.assert_array_equal(np.bincount(p.labels), np.bincount(d.labels))
    np.testing.assert_array_equal(p.features, d.features)


def test_permute_labels_uniform_over_arrangements():
    # n=4 with labels [0,0,1,1]: all C(4,2)=6 distinguishable label vectors
    # should appear equally often; chi-square over 3000 replicates.
    d = Dataset(np.zeros((4, 1)), np.array([0, 0, 1, 1]), 2)
    reps = 3000
    counts: dict[tuple, int] = {}
    for r in range(reps):
        p = permute_labels(d, PermutationPlan(11, r))
        key = tuple(p.labels.tolist())
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 6
    expect = reps / 6
    chi2 = sum((c - expect) ** 2 / expect for c in counts.values())
    # chi-square with 5 dof: 0.999 quantile is 20.5
    assert chi2 < 20.5


def test_shuffle_rows_keeps_pairs_together():
    d = toy(n=12, classes=3)
    s = shuffle_rows(d, PermutationPlan(2, 0))
    assert not np.array_equal(s.features, d.features)
    # every (row, label) pair must still exist
    orig = {(tuple(f), int(l)) for f, l in zip(d.features, d.labels)}
    new = {(tuple(f), int(l)) for f, l in zip(s.features, s.labels)}
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
    folds = stratified_folds(d, 5, PermutationPlan(4, 0))
    # exact partition
    all_rows = np.sort(np.concatenate([folds.test_rows(f) for f in range(5)]))
    np.testing.assert_array_equal(all_rows, np.arange(47))
    sizes = [folds.test_rows(f).size for f in range(5)]
    assert max(sizes) - min(sizes) <= 1
    # per-class balance within one
    for c in range(3):
        per = [
            int(np.sum(d.labels[folds.test_rows(f)] == c)) for f in range(5)
        ]
        assert max(per) - min(per) <= 1


def test_stratified_folds_deterministic():
    d = toy(n=30, classes=2)
    a = stratified_folds(d, 3, PermutationPlan(9, 7))
    b = stratified_folds(d, 3, PermutationPlan(9, 7))
    np.testing.assert_array_equal(a.fold_of, b.fold_of)


def test_stratified_folds_small_class_rejected():
    d = Dataset(np.zeros((5, 1)), np.array([0, 0, 0, 0, 1]), 2)
    with pytest.raises(ValueError, match="class 1"):
        stratified_folds(d, 2, PermutationPlan(0, 0))


def test_fold_assignment_validation():
    with pytest.raises(ValueError):
        FoldAssignment(np.array([0, 0, 0]), 2)  # fold 1 empty
    with pytest.raises(ValueError):
        FoldAssignment(np.array([0, 2]), 2)  # index out of range
    fa = FoldAssignment(np.array([0, 1, 0, 1]), 2)
    np.testing.assert_array_equal(fa.train_rows(0), [1, 3])


# ---------------------------------------------------------------- null split


def test_split_null_groups_exact_halves():
    d = toy(n=20, classes=1)
    s = split_null_groups(d, PermutationPlan(3, 1))
    assert s.class_count == 2
    assert int(np.sum(s.labels == 0)) == 10
    assert int(np.sum(s.labels == 1)) == 10
    np.testing.assert_array_equal(s.features, d.features)


def test_split_null_groups_uniform():
    # n=4: all C(4,2)=6 splits equally likely
    d = Dataset(np.zeros((4, 1)), np.zeros(4, dtype=int), 1)
    reps = 3000
    counts: dict[tuple, int] = {}
    for r in range(reps):
        s = split_null_groups(d, PermutationPlan(8, r))
        key = tuple(s.labels.tolist())
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 6
    expect = reps / 6
    chi2 = sum((c - expect) ** 2 / expect for c in counts.values())
    assert chi2 < 20.5


def test_split_null_groups_preconditions():
    with pytest.raises(ValueError, match="one-condition"):
        split_null_groups(toy(classes=2), PermutationPlan(0, 0))
    with pytest.raises(ValueError, match="even"):
        split_null_groups(toy(n=5, classes=1), PermutationPlan(0, 0))


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
