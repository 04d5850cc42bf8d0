import numpy as np
import pytest

from permsig.dataset import Dataset, synth_effect
from permsig.errors import FitError
from permsig import permtest
from permsig.permtest import (
    EXTRACTOR_INDEX,
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


def nd(values, scheme=Scheme.RESUB):
    plans = tuple(PermutationPlan(0, i) for i in range(len(values)))
    return NullDistribution(tuple(values), scheme, plans)


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

    def fit(self, batch, plan=None, tag="fit"):
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


def test_null_distribution_deterministic_and_sized():
    d = one_condition()
    null = null_distribution(_StubPipeline(), d, 20, Scheme.RESUB, 7, labeling="split")
    again = null_distribution(_StubPipeline(), d, 20, Scheme.RESUB, 7, labeling="split")
    assert null.statistics == again.statistics
    assert null.m == 20
    assert [p.replicate_index for p in null.replicate_plans] == list(range(20))


def test_null_distribution_retries_shift_index():
    d = one_condition()
    null = null_distribution(
        _StubPipeline(fail_indices={3, 11}), d, 20, Scheme.RESUB, 7, labeling="split"
    )
    indices = [p.replicate_index for p in null.replicate_plans]
    assert indices[3] == 3 + RETRY_STRIDE
    assert indices[11] == 11 + RETRY_STRIDE
    assert indices[0] == 0 and indices[19] == 19
    # the retried replicate used fresh randomness, not replicate 3's
    clean = null_distribution(_StubPipeline(), d, 20, Scheme.RESUB, 7, labeling="split")
    assert null.statistics[3] != clean.statistics[3]
    assert null.statistics[0] == clean.statistics[0]


def test_null_distribution_records_retries():
    d = one_condition()
    fails = {3, 11, 11 + RETRY_STRIDE}
    null = null_distribution(_StubPipeline(fails), d, 20, Scheme.RESUB, 7, labeling="split")
    assert null.retries == (
        (3, 0, "scripted failure of 3"),
        (11, 0, f"scripted failure of {11}"),
        (11, 1, f"scripted failure of {11 + RETRY_STRIDE}"),
    )
    assert null.replicate_plans[11].replicate_index == 11 + 2 * RETRY_STRIDE
    assert null_distribution(_StubPipeline(), d, 20, Scheme.RESUB, 7, labeling="split").retries == ()


def test_report_lists_retries_only_when_present():
    d = synth_effect(10, 3, 0.0, PermutationPlan(2, 0))
    settings = StudySettings(scheme=Scheme.RESUB, m=12, master_seed=5, observed_iterations=3)
    doc = power_study(_StubPipeline({4, 9}), d, settings).to_json_dict()
    assert doc["retries"] == [
        {"replicate": 4, "attempt": 0, "error": "scripted failure of 4"},
        {"replicate": 9, "attempt": 0, "error": "scripted failure of 9"},
    ]
    assert "retries" not in power_study(_StubPipeline(), d, settings).to_json_dict()


@pytest.mark.parametrize("spec", [
    PipelineSpec(reducer="pls"), PipelineSpec(reducer="none"), PipelineSpec(reducer="pca"),
])
@pytest.mark.parametrize("scheme", [Scheme.RUB, Scheme.KFOLD])
def test_null_statistics_do_not_depend_on_the_chunking(monkeypatch, spec, scheme):
    d = synth_effect(8, 3, 0.5, PermutationPlan(6, 0), classes=3)
    runs = []
    for chunk in (1, 7, 32):
        monkeypatch.setattr(permtest, "CHUNK", chunk)
        runs.append(null_distribution(spec, d, 15, scheme, 4, k=3))
    assert runs[0] == runs[1] == runs[2]


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, runs in-process."""

    sizes: list = []

    def __init__(self, max_workers, initializer, initargs):
        self.sizes.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("workers, m, pool_size", [
    (8, 20, None),  # one chunk runs in this process
    (8, 70, 3),  # three chunks
    (2, 70, 2),
    (1, 70, None),
])
def test_pool_is_sized_to_its_chunks(monkeypatch, workers, m, pool_size):
    monkeypatch.setattr(permtest, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    d = one_condition()
    null = null_distribution(_StubPipeline(), d, m, Scheme.RESUB, 7, labeling="split",
                             workers=workers)
    assert _RecordingPool.sizes == ([] if pool_size is None else [pool_size])
    assert null == null_distribution(_StubPipeline(), d, m, Scheme.RESUB, 7, labeling="split")


def test_null_distribution_exhausted_retries_raise():
    fails = {5, 5 + RETRY_STRIDE, 5 + 2 * RETRY_STRIDE, 5 + 3 * RETRY_STRIDE}
    with pytest.raises(FitError, match="replicate 5"):
        null_distribution(
            _StubPipeline(fail_indices=fails), one_condition(), 10,
            Scheme.RESUB, 7, labeling="split",
        )


def test_null_distribution_kfold_collects_k_values_each():
    d = synth_effect(10, 3, 0.0, PermutationPlan(2, 0))
    null = null_distribution(
        PipelineSpec(reducer="none"), d, 4, Scheme.KFOLD, 3, k=4, labeling="permute"
    )
    assert null.m == 16  # 4 replicates x 4 folds
    assert null.k == 4


def test_null_distribution_rub_adds_bound():
    d = synth_effect(10, 3, 0.0, PermutationPlan(2, 0))
    resub = null_distribution(PipelineSpec(reducer="pls"), d, 6, Scheme.RESUB, 3)
    rub = null_distribution(PipelineSpec(reducer="pls"), d, 6, Scheme.RUB, 3)
    from permsig.bounds import BoundSpec, empirical_bound

    mu = empirical_bound(BoundSpec(d.n, 1, 0.05))
    np.testing.assert_allclose(
        np.asarray(rub.statistics) - np.asarray(resub.statistics), mu, atol=1e-12
    )


def test_null_distribution_worker_invariance():
    d = synth_effect(8, 3, 0.0, PermutationPlan(4, 0))
    kwargs = dict(k=4, eta=0.05, labeling="permute")
    serial = null_distribution(PipelineSpec(reducer="pls"), d, 8, Scheme.RESUB, 11, **kwargs)
    pooled = null_distribution(
        PipelineSpec(reducer="pls"), d, 8, Scheme.RESUB, 11, workers=2, **kwargs
    )
    assert serial.statistics == pooled.statistics


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
    with pytest.raises(ValueError):
        StudySettings(observed_iterations=0)


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
