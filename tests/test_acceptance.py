"""Twelve end-to-end guarantees the package must keep.

Each test pins one externally visible behaviour of the significance
framework — bound values, bit-exact reporting identities, calibration of
the permutation machinery against exhaustive enumeration, type-I error
control, power, the generalization diagnostic, gradient correctness and
scheduler determinism — at fixed tolerances and runtime ceilings.  The
expensive studies run once in module fixtures and are shared between
the tests that inspect them.
"""

import itertools
import json
import time

import numpy as np
import pytest

from permsig.autoenc import AeArchitecture, AeModel, ae_batch_loss, ae_gradient
from permsig.bounds import BoundSpec, empirical_bound, vapnik_bound
from permsig.dataset import Batch, Dataset, scale_unit_interval, synth_effect
from permsig.permtest import (
    StudySettings,
    alt_scheme_study,
    mc_stddev,
    null_distribution,
    power_study,
    type1_study,
)
from permsig.pipeline import PipelineSpec
from permsig.rng import PermutationPlan
from permsig.validate import ErrorEstimate, Scheme, resub_error, rub_error

# The seven reference sample sizes with their deviation bounds at
# eta = 0.05 and one classifier dimension, rounded to four decimals.
BOUND_TABLE = [
    (417, 0.0665),
    (229, 0.0897),
    (400, 0.0679),
    (200, 0.0960),
    (100, 0.1358),
    (246, 0.0866),
    (123, 0.1225),
]

ALPHA = 0.05


# ---------------------------------------------------------------------------
# shared study runs


@pytest.fixture(scope="module")
def type1_runs():
    """Type-I studies on one-condition data, n=100, N=50, no autoencoder.

    The resubstitution-bound arm refits a one-component projection per
    replicate; the k-fold arm classifies the raw features with K=3 so
    the fold errors take enough distinct values for the omnibus
    quantile to be reachable (fold size 10 collapses the rejection
    region well below alpha).  Both arms draw ~1000 null values.
    """
    d = synth_effect(100, 50, 0.0, PermutationPlan(7, 0), classes=1)
    t0 = time.perf_counter()
    rub = type1_study(
        PipelineSpec(reducer="pls"),
        d,
        StudySettings(scheme=Scheme.RUB, m=1000, master_seed=0),
    )
    kfold = type1_study(
        PipelineSpec(reducer="none"),
        d,
        StudySettings(scheme=Scheme.KFOLD, m=334, k=3, master_seed=0),
    )
    seconds = time.perf_counter() - t0
    return {"data": d, "rub": rub, "kfold": kfold, "seconds": seconds}


@pytest.fixture(scope="module")
def power_runs():
    """Power studies on a strong two-class effect (n=200, effect=2)."""
    d = synth_effect(100, 10, 2.0, PermutationPlan(17, 0), classes=2)
    spec = PipelineSpec(reducer="pls")
    t0 = time.perf_counter()
    rub = power_study(spec, d, StudySettings(scheme=Scheme.RUB, m=1000, master_seed=4))
    kfold = power_study(
        spec, d, StudySettings(scheme=Scheme.KFOLD, m=100, k=10, master_seed=4)
    )
    seconds = time.perf_counter() - t0
    return {"rub": rub, "kfold": kfold, "seconds": seconds}


# ---------------------------------------------------------------------------
# 1-2: analytic bounds


def test_01_empirical_bound_values():
    empirical_bound(BoundSpec(10, 1, 0.05))  # warm up before timing
    for n, expected in BOUND_TABLE:
        spec = BoundSpec(n=n, d=1, eta=0.05)
        best = min(
            _timed(empirical_bound, spec)[1] for _ in range(5)
        )
        value = empirical_bound(spec)
        assert abs(value - expected) <= 5e-4, f"n={n}: {value:.6f} != {expected}"
        assert best < 1e-3, f"n={n}: {best * 1e3:.3f} ms"


def test_02_vapnik_bound_value():
    value = vapnik_bound(BoundSpec(n=417, d=1, eta=0.05))
    assert abs(value - 0.2103) <= 5e-4, f"{value:.6f}"


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# 3: bit-exact bound-corrected reporting


def test_03_corrected_accuracy_identity():
    # the production path: fit once, estimate both ways, same plan
    d = synth_effect(60, 4, 1.0, PermutationPlan(29, 0), classes=2)
    spec = BoundSpec(d.n, 1, 0.05)
    pipeline = PipelineSpec(reducer="pls")
    (base,) = resub_error(pipeline, Batch.of(d, [PermutationPlan(31, 0)]))
    rub = rub_error(pipeline, d, PermutationPlan(31, 0), spec)
    mu = empirical_bound(spec)
    assert rub.value == base.value + mu
    assert rub.accuracy == base.accuracy - mu

    # the reference arithmetic: accuracy 0.8321 at n=417 corrects to 0.7656
    mu417 = empirical_bound(BoundSpec(417, 1, 0.05))
    est = ErrorEstimate(
        1.0 - 0.8321 + mu417, Scheme.RUB, bound=mu417, base_value=1.0 - 0.8321
    )
    assert est.accuracy == 0.8321 - mu417
    assert round(est.accuracy, 4) == 0.7656
    assert 0.8321 - 0.0665 == 0.7656


# ---------------------------------------------------------------------------
# 4-5: Monte-Carlo reporting


def test_04_p_value_floor_reporting(power_runs):
    rep = power_runs["rub"]
    assert rep.p_value == 1.0 / (rep.m + 1)  # observed undercuts every null
    line = f"{rep.p_value:.4f} [{rep.p_value_sd:.4f}]"
    assert line == "0.0010 [0.0010]", line


def test_05_mc_stddev_value():
    assert abs(mc_stddev(0.0440, 1000) - 0.0065) <= 1e-4


# ---------------------------------------------------------------------------
# 6: Monte-Carlo null against exhaustive enumeration


def test_06_null_matches_exhaustive_enumeration():
    """n=8 balanced splits: MC null vs all 70 assignments, KS < 0.05."""
    t0 = time.perf_counter()
    d = scale_unit_interval(synth_effect(8, 3, 0.0, PermutationPlan(11, 0), classes=1))
    spec = PipelineSpec(reducer="pls")

    exact = []
    for combo in itertools.combinations(range(8), 4):
        labels = np.ones(8, dtype=np.int64)
        labels[list(combo)] = 0
        labeled = Dataset(d.features, labels, 2)
        (est,) = resub_error(spec, Batch.of(labeled, [PermutationPlan(0, 0)]))
        exact.append(est.value)
    exact = np.sort(np.asarray(exact))
    assert exact.size == 70

    nd = null_distribution(spec, d, StudySettings(Scheme.RESUB, m=5000, master_seed=3))
    mc = np.sort(nd.statistics)
    grid = np.unique(np.concatenate([exact, mc]))
    f_exact = np.searchsorted(exact, grid, side="right") / exact.size
    f_mc = np.searchsorted(mc, grid, side="right") / mc.size
    ks = float(np.max(np.abs(f_exact - f_mc)))
    seconds = time.perf_counter() - t0
    assert ks < 0.05, f"ks={ks:.4f}"
    assert seconds < 60.0, f"{seconds:.1f}s"


# ---------------------------------------------------------------------------
# 7-8: error control and power


def test_07_type1_error_control_both_schemes(type1_runs):
    sd = mc_stddev(ALPHA, 1000)
    lo, hi = ALPHA - 3 * sd, ALPHA + 3 * sd
    for arm in ("rub", "kfold"):
        fwe = type1_runs[arm].fwe_rate
        assert lo <= fwe <= hi, f"{arm}: fwe={fwe:.4f} outside [{lo:.4f}, {hi:.4f}]"
        assert fwe <= 0.08, f"{arm}: fwe={fwe:.4f}"
    assert type1_runs["seconds"] < 600.0, f"{type1_runs['seconds']:.0f}s"


def test_08_power_and_null_rejection_rate(power_runs):
    assert power_runs["rub"].p_value <= 0.005, f"{power_runs['rub'].p_value:.4f}"
    assert power_runs["kfold"].p_value <= 0.005, f"{power_runs['kfold'].p_value:.4f}"

    # with no effect, repeated studies should reject near the nominal rate
    t0 = time.perf_counter()
    spec = PipelineSpec(reducer="pls")
    rejects = 0
    for rep in range(50):
        d = synth_effect(20, 5, 0.0, PermutationPlan(100 + rep, 0), classes=2)
        report = power_study(
            spec, d, StudySettings(scheme=Scheme.RUB, m=99, master_seed=1000 + rep)
        )
        rejects += report.p_value <= ALPHA
    seconds = power_runs["seconds"] + (time.perf_counter() - t0)
    assert rejects <= 7, f"{rejects}/50 null rejections"
    assert seconds < 900.0, f"{seconds:.0f}s"


# ---------------------------------------------------------------------------
# 9: k-fold error tracks the corrected resubstitution error


def test_09_kfold_tracks_corrected_resub_on_null_data():
    """On permuted data the two estimates describe the same error rate."""
    d = scale_unit_interval(synth_effect(400, 5, 0.0, PermutationPlan(5, 0), classes=1))
    spec = PipelineSpec(reducer="pls")
    mu = empirical_bound(BoundSpec(d.n, spec.classifier_input_dim(d.n_features), 0.05))
    rub = null_distribution(spec, d, StudySettings(Scheme.RUB, m=50, master_seed=21), mu=mu)
    kfold = null_distribution(spec, d, StudySettings(Scheme.KFOLD, m=50, k=10, master_seed=21))
    resub_mean = float(np.mean(rub.statistics)) - mu
    kfold_mean = float(np.mean(kfold.statistics))
    diff = abs(kfold_mean - resub_mean)
    assert diff <= 0.05, f"kfold={kfold_mean:.4f} resub={resub_mean:.4f} diff={diff:.4f}"


# ---------------------------------------------------------------------------
# 10: autoencoder gradients


def _model(input_width, enc_widths, activation, out, seed):
    arch = AeArchitecture(layer_widths_encoder=enc_widths, activation=activation,
                          output_activation=out)
    widths = [input_width] + list(enc_widths) + list(reversed(enc_widths[:-1])) + [input_width]
    gen = np.random.Generator(np.random.Philox(seed))
    weights = tuple(gen.standard_normal((a, b)) * 0.3 for a, b in zip(widths[:-1], widths[1:]))
    biases = tuple(gen.standard_normal(b) * 0.1 for b in widths[1:])
    return AeModel(arch, input_width, weights, biases, out, ())


def _max_gradient_error(model, batch, step=1e-5):
    w_grads, b_grads = ae_gradient(model, batch)
    worst = 0.0
    for layer in range(len(model.weights)):
        for grads, is_weight in ((w_grads, True), (b_grads, False)):
            target = model.weights[layer] if is_weight else model.biases[layer]
            for idx in np.ndindex(*target.shape):
                numeric = _central_difference(model, batch, layer, idx, is_weight, step)
                analytic = grads[layer][idx]
                scale = max(abs(numeric), abs(analytic), 1e-8)
                worst = max(worst, abs(numeric - analytic) / scale)
    return worst


def _central_difference(model, batch, layer, idx, is_weight, step):
    losses = []
    for sign in (step, -step):
        weights = [np.array(w, copy=True) for w in model.weights]
        biases = [np.array(b, copy=True) for b in model.biases]
        (weights if is_weight else biases)[layer][idx] += sign
        bumped = AeModel(model.architecture, model.input_width, tuple(weights),
                         tuple(biases), model.output_activation, ())
        losses.append(ae_batch_loss(bumped, batch))
    return (losses[0] - losses[1]) / (2 * step)


def test_10_autoencoder_gradient_check():
    gen = np.random.Generator(np.random.Philox(41))
    # the deep four-stage encoder profile runs at reduced width; its
    # early-layer gradients decay to ~1e-8, so the difference step is a
    # decade larger there to keep fp64 roundoff below the tolerance
    cases = [
        (_model(5, (3,), "sigmoid", "sigmoid", 1), 1e-5),
        (_model(6, (4, 2), "relu", "identity", 2), 1e-5),
        (_model(12, (10, 10, 40, 3), "sigmoid", "sigmoid", 3), 1e-4),
    ]
    batches = [gen.random((6, m.input_width)) for m, _ in cases]
    batches[1] = batches[1] + 0.1  # keep relu pre-activations off the kink
    for (model, step), batch in zip(cases, batches):
        err = _max_gradient_error(model, batch, step=step)
        assert err < 1e-4, f"widths={model.architecture.layer_widths_encoder}: {err:.2e}"


# ---------------------------------------------------------------------------
# 11: frozen-extractor null


def test_11_frozen_extractor_null():
    """Freezing the feature maps narrows the null and keeps it centred."""
    d = synth_effect(150, 10, 2.0, PermutationPlan(13, 0), classes=2)
    spec = PipelineSpec(reducer="pls")
    settings = StudySettings(scheme=Scheme.RESUB, m=400, master_seed=3)
    alt = alt_scheme_study(spec, d, settings)
    full = power_study(spec, d, settings)
    assert alt.null_sd <= full.null_sd, f"{alt.null_sd:.4f} > {full.null_sd:.4f}"
    accuracy = 1.0 - alt.null_mean
    assert 0.47 <= accuracy <= 0.53, f"null accuracy {accuracy:.4f}"


# ---------------------------------------------------------------------------
# 12: scheduling must not leak into results


def test_12_worker_count_determinism(type1_runs):
    rerun_rub = type1_study(
        PipelineSpec(reducer="pls"),
        type1_runs["data"],
        StudySettings(scheme=Scheme.RUB, m=1000, master_seed=0, workers=2),
    )
    rerun_kfold = type1_study(
        PipelineSpec(reducer="none"),
        type1_runs["data"],
        StudySettings(scheme=Scheme.KFOLD, m=334, k=3, master_seed=0, workers=2),
    )
    for before, after in ((type1_runs["rub"], rerun_rub), (type1_runs["kfold"], rerun_kfold)):
        a = json.dumps(before.to_json_dict(), sort_keys=True)
        b = json.dumps(after.to_json_dict(), sort_keys=True)
        assert a == b
