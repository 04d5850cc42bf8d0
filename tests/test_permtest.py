import dataclasses
import inspect
import json
import multiprocessing
import os
import pickle
import threading
import tracemalloc

import numpy as np
import pytest

from permsig.bounds import BoundSpec, empirical_bound
from permsig.dataset import Dataset, synth_effect
from permsig.errors import ConfigError, DivergenceError, FitError
from permsig import permtest
from permsig.permtest import (
    EXTRACTOR_INDEX,
    MAX_RETRIES,
    OBSERVED_BASE,
    RETRY_STRIDE,
    NullDistribution,
    StudySettings,
    alt_scheme_study,
    fwe_rate,
    mc_stddev,
    null_distribution,
    omnibus_pvalues,
    p_value,
    power_study,
    type1_study,
)
from permsig.pipeline import PipelineSpec
from permsig.rng import PermutationPlan
from permsig.validate import Scheme


def nd(values):
    return NullDistribution(tuple(values), tuple(range(len(values))))


def one_condition(n=40, dim=4, seed=5):
    gen = np.random.Generator(np.random.Philox(seed))
    return Dataset(gen.standard_normal((n, dim)), np.zeros(n, dtype=np.int64), 1)


# A pipeline stand-in whose "error" is a deterministic function of each
# column's plan, with scripted failures to exercise the retry path.
class _StubFitted:
    def __init__(self, values):
        self.values = values

    def errors(self, batch):
        return list(self.values)


class _StubPipeline:
    def __init__(self, fail_indices=()):
        self.fail_indices = frozenset(fail_indices)

    def classifier_input_dim(self, n_features):
        return 1

    def fit(self, batch, tag="fit"):
        return _StubFitted([
            FitError(f"scripted failure of {p.replicate_index}")
            if p.replicate_index in self.fail_indices else float(p.rng("stub").random())
            for p in batch.plans
        ])


# ------------------------------------------------------------------ p-value


def test_p_value_floor():
    null = nd([0.5] * 1000)
    assert p_value(0.0, null) == 1 / 1001


def test_p_value_counts_ties():
    null = nd([0.5] * 10)
    assert p_value(0.5, null) == 1.0  # (10 + 1) / 11


def test_p_value_monotone_in_observed():
    gen = np.random.Generator(np.random.Philox(1))
    null = nd(list(gen.random(200)))
    grid = np.linspace(-0.1, 1.1, 40)
    ps = [p_value(t, null) for t in grid]
    assert all(a <= b for a, b in zip(ps, ps[1:]))


def test_p_value_exact_rank():
    null = nd([0.1, 0.2, 0.3, 0.4])
    assert p_value(0.25, null) == (2 + 1) / 5
    with pytest.raises(ValueError):
        p_value(0.5, nd([]))


# ------------------------------------------------------------------ mc sd


def test_mc_stddev_values():
    np.testing.assert_allclose(mc_stddev(0.044, 1000), 0.00648568, atol=1e-7)
    assert mc_stddev(0.0, 100) == 0.0
    assert mc_stddev(1.0, 100) == 0.0
    np.testing.assert_allclose(mc_stddev(0.5, 100), 0.05)
    with pytest.raises(ValueError):
        mc_stddev(1.5, 100)
    with pytest.raises(ValueError):
        mc_stddev(0.5, 0)


# ------------------------------------------------------------------ omnibus


def test_omnibus_all_equal_gives_ones():
    pvals = omnibus_pvalues(nd([0.3] * 50))
    np.testing.assert_array_equal(pvals, np.ones(50))


def test_omnibus_distinct_values_are_ranks():
    pvals = omnibus_pvalues(nd([0.4, 0.1, 0.3, 0.2]))
    np.testing.assert_allclose(pvals, [4 / 4, 1 / 4, 3 / 4, 2 / 4])
    assert pvals.min() >= 1 / 4


def test_omnibus_ties_share_pvalue():
    pvals = omnibus_pvalues(nd([0.1, 0.1, 0.5]))
    np.testing.assert_allclose(pvals, [2 / 3, 2 / 3, 3 / 3])


def test_fwe_rate_cases():
    pvals = np.array([0.01, 0.04, 0.05, 0.2, 0.9])
    np.testing.assert_allclose(fwe_rate(pvals, 0.05), 3 / 5)
    assert fwe_rate(pvals, 1.0) == 1.0
    with pytest.raises(ValueError):
        fwe_rate(pvals, 0.0)
    with pytest.raises(ValueError):
        fwe_rate(np.array([]), 0.05)


# ------------------------------------------------------------------ engine


def _resub_settings(m, **kwargs):
    """Settings of a resubstitution null of ``m`` replicates at seed 7."""
    return StudySettings(Scheme.RESUB, m=m, master_seed=7, **kwargs)


def test_null_distribution_takes_pipeline_data_and_settings_alone():
    # The bound and the observed iterations follow from these three.
    assert list(inspect.signature(null_distribution).parameters) == ["pipeline", "d", "settings"]


def test_null_distribution_deterministic_and_sized():
    d = one_condition()
    null = null_distribution(_StubPipeline(), d, _resub_settings(20))
    again = null_distribution(_StubPipeline(), d, _resub_settings(20))
    assert null.statistics == again.statistics
    assert null.m == 20
    assert null.replicate_indices == tuple(range(20))


def test_null_distribution_retries_shift_index():
    d = one_condition()
    null = null_distribution(_StubPipeline(fail_indices={3, 11}), d, _resub_settings(20))
    indices = null.replicate_indices
    assert indices[3] == 3 + RETRY_STRIDE
    assert indices[11] == 11 + RETRY_STRIDE
    assert indices[0] == 0 and indices[19] == 19
    # the retried replicate used fresh randomness, not replicate 3's
    clean = null_distribution(_StubPipeline(), d, _resub_settings(20))
    assert null.statistics[3] != clean.statistics[3]
    assert null.statistics[0] == clean.statistics[0]


def test_null_distribution_records_retries():
    d = one_condition()
    fails = {3, 11, 11 + RETRY_STRIDE}
    null = null_distribution(_StubPipeline(fails), d, _resub_settings(20))
    assert null.retries == (
        (3, 0, "scripted failure of 3"),
        (11, 0, f"scripted failure of {11}"),
        (11, 1, f"scripted failure of {11 + RETRY_STRIDE}"),
    )
    assert null.replicate_indices[11] == 11 + 2 * RETRY_STRIDE
    assert null_distribution(_StubPipeline(), d, _resub_settings(20)).retries == ()


def test_report_lists_retries_only_when_present(monkeypatch):
    monkeypatch.setattr(StudySettings, "observed_iterations", 3)
    d = synth_effect(10, 3, 0.0, PermutationPlan(2, 0))
    settings = StudySettings(scheme=Scheme.RESUB, m=12, master_seed=5)
    doc = power_study(_StubPipeline({4, 9}), d, settings).to_json_dict()
    assert doc["retries"] == [
        {"replicate": 4, "attempt": 0, "error": "scripted failure of 4"},
        {"replicate": 9, "attempt": 0, "error": "scripted failure of 9"},
    ]
    assert "retries" not in power_study(_StubPipeline(), d, settings).to_json_dict()


def _batch_width(monkeypatch, d, width):
    """Sets the batch byte budget so that ``d``'s batches hold ``width`` columns."""
    monkeypatch.setattr(permtest, "BATCH_BYTES", width * 8 * d.n * d.n_features)


@pytest.mark.parametrize("spec", [
    PipelineSpec(reducer="pls"), PipelineSpec(reducer="none"), PipelineSpec(reducer="pca"),
])
@pytest.mark.parametrize("scheme", [Scheme.RUB, Scheme.KFOLD])
def test_null_statistics_do_not_depend_on_the_chunking(monkeypatch, spec, scheme):
    d = synth_effect(8, 3, 0.5, PermutationPlan(6, 0), classes=3)
    settings = StudySettings(scheme, m=15, k=3, master_seed=4)
    monkeypatch.setattr(permtest, "MIN_BATCH", 1)
    runs = []
    for width, split in ((1, [1] * 15), (7, [7, 7, 1]), (15, [15])):
        _batch_width(monkeypatch, d, width)
        assert [len(chunk) for chunk in permtest._batches(15, d)] == split
        runs.append(null_distribution(spec, d, settings))
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("n, n_features, count, split", [
    (200, 10, 250, [98, 98, 54]),  # 98 columns of 16,000 B fill 1.5 MiB
    (180, 32, 200, [34] * 5 + [30]),
    (2000, 20, 4, [4]),  # at the floor of four columns
    (200, 4000, 10, [4, 4, 2]),  # a column alone is over the budget
    (10, 3, 20, [20]),
])
def test_batches_hold_a_byte_budget_of_columns(n, n_features, count, split):
    d = Dataset(np.zeros((n, n_features)), np.zeros(n, dtype=np.int64), 1)
    chunks = permtest._batches(count, d)
    assert [len(chunk) for chunk in chunks] == split
    assert [i for chunk in chunks for i in chunk] == list(range(count))


@pytest.mark.parametrize("workers, m, processes", [
    (8, 20, None),  # one chunk runs in this process, and nothing is forked
    (8, 70, 3),  # three chunks: this process and two children
    (2, 70, 2),
    (1, 70, None),
])
def test_pool_is_sized_to_its_chunks(monkeypatch, forked_children, workers, m, processes):
    d = one_condition()
    _batch_width(monkeypatch, d, 32)
    assert [len(chunk) for chunk in permtest._batches(m, d)] == ([20] if m == 20 else [32, 32, 6])
    null = null_distribution(_StubPipeline(), d, _resub_settings(m, workers=workers))
    assert len(forked_children) == (0 if processes is None else processes - 1)
    assert null == null_distribution(_StubPipeline(), d, _resub_settings(m))


@pytest.mark.parametrize("study, data, scheme, spec", [
    (power_study, synth_effect(9, 4, 0.7, PermutationPlan(1, 0), classes=3), Scheme.RUB,
     PipelineSpec(reducer="pls")),
    (type1_study, synth_effect(13, 4, 0.0, PermutationPlan(2, 0), classes=1), Scheme.KFOLD,
     PipelineSpec(reducer="none")),
    (alt_scheme_study, synth_effect(12, 4, 0.7, PermutationPlan(4, 0)), Scheme.RESUB,
     PipelineSpec(reducer="pca", pca_components=2)),
], ids=["power", "type1", "alt"])
def test_reports_are_byte_identical_at_one_two_and_three_workers(monkeypatch, forked_children,
                                                                 study, data, scheme, spec):
    monkeypatch.setattr(StudySettings, "observed_iterations", 3)
    settings = StudySettings(scheme, m=14, k=3, master_seed=8)
    docs = {json.dumps(study(spec, data, dataclasses.replace(settings, workers=w)).to_json_dict())
            for w in (1, 2, 3)}
    assert len(docs) == 1
    assert len(forked_children) == 1 + 2  # four chunks, of 4, 4, 4 and 2 replicates


class _ChildStub(_StubPipeline):
    """A stub whose fits in a forked child first set ``started``, and with
    ``exit_code`` then end the child at once; ``fitted`` lists the plans
    fitted in this process.  :meth:`take`, patched over
    ``permtest._take``, holds this process back at its first take until a
    child has taken the first chunk."""

    def __init__(self, fail_indices=(), exit_code=None):
        super().__init__(fail_indices)
        self.parent = os.getpid()
        self.exit_code = exit_code
        self.started = multiprocessing.get_context("fork").Event()  # shared across a fork
        self.threads = []
        self.fitted = []  # the plan indices fitted in this process

    def fit(self, batch, tag="fit"):
        if os.getpid() != self.parent:
            self.started.set()
            if self.exit_code is not None:
                os._exit(self.exit_code)
        else:
            self.fitted += [p.replicate_index for p in batch.plans]
        return super().fit(batch, tag)

    def take(self, counter, then=None):
        if os.getpid() == self.parent and not self.threads:
            self.threads.append(threading.active_count())
            assert self.started.wait(30)
        return _TAKE(counter, then)


_TAKE = permtest._take  # the counter itself, which the held take calls
_EXHAUSTED = {5 + attempt * RETRY_STRIDE for attempt in range(MAX_RETRIES + 1)}


@pytest.mark.parametrize("workers", [2, 3])
def test_exhausted_retries_in_a_child_raise_as_in_process(monkeypatch, workers):
    d = one_condition()
    _batch_width(monkeypatch, d, 32)  # replicate 5 is in chunk 0, which a child takes
    with pytest.raises(FitError) as alone:
        null_distribution(_StubPipeline(_EXHAUSTED), d, _resub_settings(70))
    stub = _ChildStub(_EXHAUSTED)
    monkeypatch.setattr(permtest, "_take", stub.take)
    with pytest.raises(FitError) as forked:
        null_distribution(stub, d, _resub_settings(70, workers=workers))
    assert type(forked.value) is FitError
    assert str(forked.value) == str(alone.value)
    assert str(alone.value).startswith("replicate 5 failed after 3 retries")
    assert stub.threads == [1]  # nothing started a thread before the fork
    with pytest.raises(ChildProcessError):  # every child was waited for
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("workers", [2, 3])
def test_a_child_that_dies_raises_instead_of_hanging(monkeypatch, workers):
    d = one_condition()
    _batch_width(monkeypatch, d, 32)
    stub = _ChildStub(exit_code=1)
    monkeypatch.setattr(permtest, "_take", stub.take)
    with pytest.raises(RuntimeError, match="exited with code 1 before sending its chunks"):
        null_distribution(stub, d, _resub_settings(70, workers=workers))
    with pytest.raises(ChildProcessError):  # every child was waited for
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("workers", [2, 3])
def test_an_observed_failure_leaves_no_child_behind(monkeypatch, forked_children, workers):
    """An observed iteration that fails raises its own ``FitError``, from
    whichever process fitted it.  Held back, this process takes no chunk
    before a child has taken the first one, which holds the observed
    iterations, so the error reaches this process from the child."""
    monkeypatch.setattr(StudySettings, "observed_iterations", 3)
    d = synth_effect(10, 3, 0.5, PermutationPlan(2, 0))
    settings = StudySettings(Scheme.RESUB, m=12, master_seed=5, workers=workers)
    stub = _ChildStub({OBSERVED_BASE + 1})
    message = f"scripted failure of {OBSERVED_BASE + 1}"
    with pytest.raises(FitError, match=message) as alone:
        power_study(stub, d, dataclasses.replace(settings, workers=1))
    with pytest.raises(FitError, match=message):
        power_study(stub, d, settings)
    stub = _ChildStub({OBSERVED_BASE + 1})
    monkeypatch.setattr(permtest, "_take", stub.take)
    with pytest.raises(FitError) as held:
        power_study(stub, d, settings)
    assert type(held.value) is FitError and str(held.value) == str(alone.value)
    assert all(index < OBSERVED_BASE for index in stub.fitted)  # none fitted here
    assert len(forked_children) == 2 * (workers - 1)  # four chunks, the observed one first
    with pytest.raises(ChildProcessError):  # every child was waited for
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("exc, attrs", [
    (FitError("no fit"), {}),
    (DivergenceError(3), {"epoch": 3}),
    (ConfigError("m", "must be a positive integer"),
     {"field": "m", "message": "must be a positive integer"}),
], ids=["fit", "divergence", "config"])
def test_package_errors_survive_pickling(exc, attrs):
    """Errors raised in a forked child reach the parent pickled."""
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert {name: getattr(back, name) for name in attrs} == attrs


def test_null_distribution_exhausted_retries_raise():
    fails = {5, 5 + RETRY_STRIDE, 5 + 2 * RETRY_STRIDE, 5 + 3 * RETRY_STRIDE}
    with pytest.raises(FitError, match="replicate 5"):
        null_distribution(_StubPipeline(fail_indices=fails), one_condition(), _resub_settings(10))


def test_null_distribution_kfold_collects_k_values_each():
    d = synth_effect(10, 3, 0.0, PermutationPlan(2, 0))
    settings = StudySettings(Scheme.KFOLD, m=4, k=4, master_seed=3)
    null = null_distribution(PipelineSpec(reducer="none"), d, settings)
    assert null.m == 16  # 4 replicates x 4 folds
    assert null.replicate_indices == (0, 1, 2, 3)


@pytest.mark.parametrize("spec, classes", [
    (PipelineSpec(reducer="pls"), 2),
    (PipelineSpec(reducer="pca"), 3),
    (PipelineSpec(reducer="none"), 2),
], ids=["pls", "pca", "none"])
def test_null_distribution_rub_adds_bound(spec, classes):
    # Exactly: each RUB value is its resubstitution error plus mu, rounded once.
    d = synth_effect(10, 3, 0.0, PermutationPlan(2, 0), classes=classes)
    mu = empirical_bound(BoundSpec(d.n, spec.classifier_input_dim(d.n_features), 0.05))
    resub = null_distribution(spec, d, StudySettings(Scheme.RESUB, m=6, master_seed=3))
    rub = null_distribution(spec, d, StudySettings(Scheme.RUB, m=6, master_seed=3))
    assert rub.statistics == tuple(value + mu for value in resub.statistics)
    assert rub.observed == tuple(value + mu for value in resub.observed)
    assert len(rub.observed) == StudySettings.observed_iterations


@pytest.mark.parametrize("study, data", [
    (power_study, synth_effect(10, 3, 0.5, PermutationPlan(2, 0))),
    (alt_scheme_study, synth_effect(10, 3, 0.5, PermutationPlan(2, 0), classes=3)),
])
def test_a_rub_study_computes_its_bound_once(monkeypatch, study, data):
    calls = []

    def counted(spec):
        calls.append(spec)
        return empirical_bound(spec)

    monkeypatch.setattr(permtest, "empirical_bound", counted)
    monkeypatch.setattr(StudySettings, "observed_iterations", 3)
    settings = StudySettings(Scheme.RUB, m=6, master_seed=3)
    report = study(PipelineSpec(reducer="pls"), data, settings)
    assert len(calls) == 1
    assert report.mu == empirical_bound(calls[0])


def test_null_distribution_worker_invariance(monkeypatch):
    d = synth_effect(8, 3, 0.0, PermutationPlan(4, 0))
    kwargs = dict(m=8, k=4, eta=0.05, master_seed=11)
    monkeypatch.setattr(permtest, "BATCH_BYTES", 0)  # batches of MIN_BATCH columns
    assert [len(chunk) for chunk in permtest._batches(8, d)] == [4, 4]
    serial = null_distribution(
        PipelineSpec(reducer="pls"), d, StudySettings(Scheme.RESUB, **kwargs)
    )
    pooled = null_distribution(
        PipelineSpec(reducer="pls"), d, StudySettings(Scheme.RESUB, workers=2, **kwargs)
    )
    assert serial.statistics == pooled.statistics


def test_a_wide_study_peaks_at_a_fixed_multiple_of_the_data():
    """Memory is linear in the data, whatever the replicate count.

    At n = 60 and d = 2,000 a column alone is over the byte budget, so
    every batch has four columns, and a fit holds at most a few (R, n, N)
    arrays at once: gathered rows, the PLS centering and its products, and
    the reduced copy.  With 32-column batches this study peaked at 42
    times the data.
    """
    d = synth_effect(30, 2000, 0.3, PermutationPlan(1, 0))
    assert [len(chunk) for chunk in permtest._batches(20, d)] == [4] * 5
    settings = StudySettings(Scheme.RUB, m=8, master_seed=1)  # 20 observed iterations
    tracemalloc.start()
    try:
        power_study(PipelineSpec(reducer="pls"), d, settings)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * d.n * d.n_features * 8


# ------------------------------------------------------------------ studies


def test_settings_default_replicates():
    assert StudySettings(scheme=Scheme.RESUB).replicates == 1000
    assert StudySettings(scheme=Scheme.RUB).replicates == 1000
    assert StudySettings(scheme=Scheme.KFOLD).replicates == 100
    assert StudySettings(scheme="rub", m=50).replicates == 50
    assert StudySettings(scheme="kfold").scheme is Scheme.KFOLD


def test_settings_validation():
    with pytest.raises(ValueError):
        StudySettings(m=0)
    with pytest.raises(ValueError):
        StudySettings(k=1)
    with pytest.raises(ValueError):
        StudySettings(alpha=0.0)
    with pytest.raises(ValueError):
        StudySettings(alpha=1.1)
    with pytest.raises(ValueError):
        StudySettings(eta=1.0)
    with pytest.raises(ValueError):
        StudySettings(workers=0)


def test_observed_iterations_is_a_class_constant_not_a_setting():
    assert [f.name for f in dataclasses.fields(StudySettings)] == [
        "scheme", "m", "k", "alpha", "eta", "master_seed", "workers"]
    assert StudySettings().observed_iterations == StudySettings.observed_iterations == 20
    with pytest.raises(TypeError):
        StudySettings(observed_iterations=3)


@pytest.mark.parametrize("field, value", [
    ("m", True),
    ("m", 5.0),
    ("k", True),
    ("alpha", "x"),
    ("alpha", True),
    ("eta", None),
    ("master_seed", True),
    ("master_seed", 2**64),
    ("master_seed", -1),
    ("workers", True),
    ("scheme", "loo"),
])
def test_settings_reject_wrong_types_and_ranges(field, value):
    with pytest.raises(ValueError, match=field):
        StudySettings(**{field: value})


def test_power_study_strong_effect_rejects():
    d = synth_effect(20, 5, 2.5, PermutationPlan(7, 0))
    rep = power_study(PipelineSpec(reducer="pls"),
                      d, StudySettings(scheme=Scheme.RUB, m=99, master_seed=7))
    assert rep.p_value == 1 / 100  # at the floor
    assert rep.observed_mean < rep.null_mean
    assert rep.fwe_rate is None
    assert rep.mu is not None and rep.mu > 0


def test_power_study_null_effect_rarely_rejects():
    d = synth_effect(20, 5, 0.0, PermutationPlan(8, 0))
    rep = power_study(PipelineSpec(reducer="pls"),
                      d, StudySettings(scheme=Scheme.RUB, m=99, master_seed=8))
    assert rep.p_value > 0.05


def test_power_study_requires_labels():
    with pytest.raises(ValueError):
        power_study(PipelineSpec(), one_condition(), StudySettings(m=5))


def test_type1_study_requires_one_condition():
    d = synth_effect(10, 3, 0.0, PermutationPlan(0, 0))
    with pytest.raises(ValueError):
        type1_study(PipelineSpec(), d, StudySettings(m=5))


def test_type1_study_reports_fwe():
    rep = type1_study(
        PipelineSpec(reducer="pls"),
        one_condition(n=30),
        StudySettings(scheme=Scheme.RESUB, m=60, master_seed=2),
    )
    assert rep.p_value is None
    assert 0.0 <= rep.fwe_rate <= 0.25
    assert rep.fwe_rate_sd > 0
    assert rep.m == 60


def test_type1_study_trims_odd_rows():
    rep = type1_study(
        PipelineSpec(reducer="pls"),
        one_condition(n=31),
        StudySettings(scheme=Scheme.RESUB, m=10, master_seed=2),
    )
    assert rep.m == 10  # ran fine; 31 rows were trimmed to 30 internally


def test_alt_study_one_condition_needs_unsupervised_reducer():
    with pytest.raises(ValueError, match="pls"):
        alt_scheme_study(PipelineSpec(reducer="pls"), one_condition(), StudySettings(m=5))


def test_alt_study_runs_both_flavors():
    labeled = synth_effect(15, 4, 2.0, PermutationPlan(3, 0))
    rep = alt_scheme_study(
        PipelineSpec(reducer="pls"), labeled, StudySettings(scheme=Scheme.RESUB, m=40, master_seed=3)
    )
    assert rep.study == "alt"
    assert rep.p_value is not None and rep.p_value <= 0.1

    rep1 = alt_scheme_study(
        PipelineSpec(reducer="pca"), one_condition(), StudySettings(scheme=Scheme.RESUB, m=40, master_seed=3)
    )
    assert rep1.study == "alt"
    assert rep1.fwe_rate is not None


def test_report_json_layout():
    d = synth_effect(10, 3, 1.0, PermutationPlan(1, 0))
    rep = power_study(PipelineSpec(reducer="pls"), d,
                      StudySettings(scheme=Scheme.RUB, m=20, master_seed=1))
    doc = rep.to_json_dict()
    for key in (
        "study", "scheme", "m", "k", "alpha", "eta", "mu",
        "observed_mean", "observed_sd", "null_mean", "null_sd",
        "p_value", "p_value_sd", "fwe_rate", "fwe_rate_sd",
        "histogram", "seeds",
    ):
        assert key in doc
    assert "config" not in doc
    assert len(doc["histogram"]["counts"]) == 30
    assert len(doc["histogram"]["bin_edges"]) == 31
    assert sum(doc["histogram"]["counts"]) == 20
    assert doc["seeds"]["master_seed"] == 1
    assert doc["seeds"]["replicate_indices"] == list(range(20))
    with_cfg = rep.to_json_dict({"seed": 1})
    assert with_cfg["config"] == {"seed": 1}
    rows = rep.histogram_csv_rows()
    assert len(rows) == 30
    assert rows[0][0] == 0.0 and rows[-1][1] == 1.0


def test_reserved_index_spaces_do_not_overlap():
    assert OBSERVED_BASE > 10**6 + 3 * RETRY_STRIDE  # beyond any retried null index
    assert EXTRACTOR_INDEX > OBSERVED_BASE + 10**6  # beyond any observed iteration
