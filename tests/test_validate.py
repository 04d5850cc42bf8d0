import math
import re

import numpy as np
import pytest

from permsig.bounds import BoundSpec, empirical_bound
from permsig.dataset import Batch, Dataset, FoldAssignment, stratified_folds, synth_effect
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
    folds = FoldAssignment(np.array([0, 0, 1, 1]), 2)
    (out,) = kfold_errors(PipelineSpec(reducer="none"), one(d), [folds])
    assert isinstance(out, FitError) and re.search("fold 0", str(out))


def test_kfold_rejects_mismatched_assignment():
    d = blobs(n_per=5)
    folds = FoldAssignment(np.array([0, 1] * 3), 2)  # 6 rows for a 10-row set
    with pytest.raises(ValueError, match="length"):
        kfold_errors(PipelineSpec(), one(d), [folds])
    with pytest.raises(ValueError, match="one fold assignment per column"):
        kfold_errors(PipelineSpec(), one(d), [])


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
