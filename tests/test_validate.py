import math
import re

import numpy as np
import pytest

from permsig.bounds import BoundSpec, empirical_bound
from permsig.dataset import Batch, Dataset, stratified_folds, synth_effect
from permsig.errors import FitError
from permsig.pipeline import PipelineSpec
from permsig.rng import PermutationPlan
from permsig.validate import (
    ErrorEstimate,
    Scheme,
    generalization_ratio,
    kfold_errors,
    resub_error,
    rub_error,
)

PLAN = PermutationPlan(0, 0)


def blobs(n_per=20, dim=4, effect=3.0, seed=0):
    return synth_effect(n_per, dim, effect, PermutationPlan(seed, 0))


def one(d) -> Batch:
    """The batch of ``d`` alone, fitted under ``PLAN``."""
    return Batch.of(d, [PLAN])


def test_resub_error_zero_on_separable():
    d = blobs()
    (est,) = resub_error(PipelineSpec(reducer="pls"), one(d))
    assert est.value == 0.0
    assert est.scheme is Scheme.RESUB
    assert est.accuracy == 1.0


def test_rub_is_resub_plus_bound_bit_exact():
    d = blobs(effect=0.5)
    spec = BoundSpec(d.n, 1, 0.05)
    pipeline = PipelineSpec(reducer="pls")
    (base,) = resub_error(pipeline, one(d))
    rub = rub_error(pipeline, d, PLAN, spec)
    mu = empirical_bound(spec)
    assert rub.value == base.value + mu  # one addition, bit-exact
    assert rub.accuracy == base.accuracy - mu  # same subtraction, bit-exact
    assert rub.bound == mu
    assert rub.base_value == base.value
    assert rub.scheme is Scheme.RUB


def test_rub_value_may_exceed_one():
    # value ceiling is 1 + bound for the rub scheme
    ErrorEstimate(1.05, Scheme.RUB, bound=0.1)
    with pytest.raises(ValueError):
        ErrorEstimate(1.05, Scheme.RESUB)
    with pytest.raises(ValueError):
        ErrorEstimate(-0.01, Scheme.RESUB)


def test_kfold_returns_per_fold_estimates():
    d = blobs(n_per=25, effect=2.0)
    batch = one(d)
    (tests,) = kfold_errors(PipelineSpec(reducer="pls"), batch, stratified_folds(batch, 5))
    assert len(tests) == 5
    for est in tests:
        assert est.scheme is Scheme.KFOLD
        assert 0.0 <= est.value <= 1.0
    # strong effect: held-out error should be small on average
    assert float(np.mean([e.value for e in tests])) <= 0.2


def test_kfold_error_names_failing_fold():
    # hand-built folds where fold 0's training rows are single-class
    x = np.arange(8, dtype=np.float64).reshape(4, 2)
    d = Dataset(x, np.array([0, 0, 1, 1]), 2)
    (out,) = kfold_errors(PipelineSpec(reducer="none"), one(d), np.array([[0, 0, 1, 1]]))
    assert isinstance(out, FitError) and re.search("fold 0", str(out))


def test_kfold_fits_each_fold_on_its_rows_in_ascending_order():
    """Fold ``f`` trains every column on its rows outside ``f`` and tests on
    those in ``f``, each in ascending order."""

    class Recording:
        def __init__(self):
            self.rows = []

        def fit(self, batch, tag):
            self.rows.append(("train", batch.rows))
            return self

        def errors(self, batch):
            self.rows.append(("test", batch.rows))
            return [0.0] * batch.size

    batch = Batch.of(blobs(n_per=6), [PLAN, PermutationPlan(0, 1), PermutationPlan(0, 2)])
    folds = stratified_folds(batch, 3)
    pipeline = Recording()
    kfold_errors(pipeline, batch, folds)
    expected = []
    for f in range(3):
        expected.append(("train", np.stack([np.flatnonzero(row != f) for row in folds])))
        expected.append(("test", np.stack([np.flatnonzero(row == f) for row in folds])))
    assert [kind for kind, _ in pipeline.rows] == [kind for kind, _ in expected]
    for (_, got), (_, want) in zip(pipeline.rows, expected):
        np.testing.assert_array_equal(got, want)


def test_kfold_fits_a_failed_column_in_every_fold():
    """A column that fails in fold 0 is fitted with the others in every
    fold; it keeps its fold-0 error, and the other columns get the fold
    errors of a batch without it."""

    class FailsColumn0InFold0:
        def __init__(self):
            self.sizes, self.fitted, self.fold = [], None, None

        def fit(self, batch, tag):
            self.sizes.append(batch.size)
            self.fitted, self.fold = PipelineSpec(reducer="pls").fit(batch, tag), tag
            return self

        def errors(self, batch):
            out = list(self.fitted.errors(batch))
            if self.fold == "fold0":
                out[0] = FitError("no fit")
            return out

    d = blobs(n_per=10, effect=1.0)
    plans = [PermutationPlan(0, j) for j in range(4)]
    batch = Batch.of(d, plans)
    folds = stratified_folds(batch, 5)
    pipeline = FailsColumn0InFold0()
    out = kfold_errors(pipeline, batch, folds)
    assert pipeline.sizes == [4] * 5
    assert str(out[0]) == "fold 0: no fit" and str(out[0].__cause__) == "no fit"
    assert out[1:] == kfold_errors(PipelineSpec(reducer="pls"), Batch.of(d, plans[1:]), folds[1:])
    assert len(set(map(tuple, out[1:]))) > 1  # the columns' folds differ


@pytest.mark.parametrize("folds, message", [
    pytest.param(np.array([[0, 1] * 3]), "shape", id="short"),  # 6 rows for a 10-row set
    pytest.param(np.array([0, 1] * 5), "shape", id="no_column_axis"),
    pytest.param(np.zeros((0, 10), dtype=np.int64), "shape", id="no_column"),
    pytest.param(np.array([[0, 0, 0, 2, 2, 2, 0, 0, 2, 2]]), "at least one row", id="empty_fold"),
    pytest.param(np.array([[0, 1, -1, 0, 1, 0, 1, 0, 1, 0]]), "non-negative", id="negative"),
])
def test_kfold_rejects_malformed_folds(folds, message):
    with pytest.raises(ValueError, match=message):
        kfold_errors(PipelineSpec(), one(blobs(n_per=5)), folds)


def test_kfold_rejects_fold_sizes_that_differ_between_columns():
    d = blobs(n_per=5)
    batch = Batch.of(d, [PLAN, PermutationPlan(0, 1)])
    folds = np.array([[0, 1] * 5, [0, 0, 0, 0, 1, 1, 1, 1, 1, 1]])
    with pytest.raises(ValueError, match="equal sizes"):
        kfold_errors(PipelineSpec(), batch, folds)


def test_generalization_ratio_cases():
    np.testing.assert_allclose(generalization_ratio(0.1, 0.12), 0.2)
    assert generalization_ratio(0.0, 0.0) == 0.0
    assert generalization_ratio(0.0, 0.3) == math.inf
    assert generalization_ratio(0.2, 0.1) < 0  # pessimistic estimate
    with pytest.raises(ValueError):
        generalization_ratio(-0.1, 0.1)
    with pytest.raises(ValueError):
        generalization_ratio(0.1, -0.1)


def test_scheme_enum_round_trips_strings():
    assert Scheme("rub") is Scheme.RUB
    assert Scheme.KFOLD.value == "kfold"
    with pytest.raises(ValueError):
        Scheme("bootstrap")
