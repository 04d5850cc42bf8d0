import hashlib
import re
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import minimize

from permsig import linclass
from permsig.errors import FitError
from permsig.linclass import (
    Calibration,
    LinearSvm,
    calibrate,
    calibrated_probability,
    decision_values,
    svm_fit,
    svm_objective,
    _second_index,
    _softplus,
)


def grid_min(obj, lo, hi, rounds=16, pts=17):
    """Zooming grid search for a convex objective; independent oracle.

    Each round evaluates a full grid, then re-centers a window of twice
    the old spacing around the arg-min.  After ``rounds`` rounds on a
    width-16 box the spacing is below 1e-9.
    """
    lo = np.asarray(lo, dtype=np.float64).copy()
    hi = np.asarray(hi, dtype=np.float64).copy()
    best_val = np.inf
    best = None
    for _ in range(rounds):
        axes = [np.linspace(l, h, pts) for l, h in zip(lo, hi)]
        mesh = np.meshgrid(*axes, indexing="ij")
        vals = obj(*mesh)
        idx = np.unravel_index(np.argmin(vals), vals.shape)
        best = np.array([axes[j][idx[j]] for j in range(len(axes))])
        best_val = float(vals[idx])
        span = 2.0 * (hi - lo) / (pts - 1)
        lo = best - span
        hi = best + span
    return best, best_val


def primal_1d(x, y, c):
    def obj(w, b):
        margins = y[:, None, None] * (np.multiply.outer(x, w) + b)
        return 0.5 * w**2 + c * np.maximum(0.0, 1.0 - margins).sum(axis=0)

    return obj


def primal_2d(x, y, c):
    def obj(w1, w2, b):
        f = (
            np.multiply.outer(x[:, 0], w1)
            + np.multiply.outer(x[:, 1], w2)
            + b
        )
        hinge = np.maximum(0.0, 1.0 - y[:, None, None, None] * f).sum(axis=0)
        return 0.5 * (w1**2 + w2**2) + c * hinge

    return obj


def fit_one(fit, *arrays, **kwargs):
    """``fit`` of the batch of one column made from ``arrays``, which must
    not fail; the batched model is returned."""
    model, failures = fit(*(a[None] for a in arrays), **kwargs)
    assert failures == {}
    return model


def failure_of_one(fit, *arrays, **kwargs) -> str:
    """The message of the failure that ``fit`` records for the batch of
    one column made from ``arrays``."""
    _, failures = fit(*(a[None] for a in arrays), **kwargs)
    assert list(failures) == [0]
    assert isinstance(failures[0], FitError)
    return str(failures[0])


# -------------------------------------------------------------------- SVM


def test_svm_two_point_hand_solution():
    # x = (-1, -1) (y=-1), x = (1, 1) (y=+1): optimum is w=(1/2, 1/2), b=0,
    # objective 1/4
    x, y = np.array([[-1.0, -1.0], [1.0, 1.0]]), np.array([-1.0, 1.0])
    m = fit_one(svm_fit, x, y, c=1.0)
    np.testing.assert_allclose(m.weights[0], [0.5, 0.5], atol=1e-4)
    np.testing.assert_allclose(m.bias[0], 0.0, atol=1e-4)
    obj = svm_objective(x, y, m.weights[0], m.bias[0], 1.0)
    np.testing.assert_allclose(obj, 0.25, atol=1e-4)


def test_svm_fully_contradictory_data():
    # duplicate points with opposite labels: best objective is exactly 4c
    x = np.array([[1.0], [1.0], [-1.0], [-1.0]])
    y = np.array([1.0, -1.0, -1.0, 1.0])
    for c in (0.5, 1.0, 3.0):
        m = fit_one(svm_fit, x, y, c=c)
        obj = svm_objective(x, y, m.weights[0], m.bias[0], c)
        assert 4.0 * c - 1e-9 <= obj <= 4.0 * c + 1e-4


def test_svm_matches_grid_oracle_1d():
    gen = np.random.Generator(np.random.Philox(10))
    cases = []
    for trial in range(6):
        n = 20
        x = gen.standard_normal((n, 1))
        gap = 0.5 if trial % 2 == 0 else 2.5
        y = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        x[:, 0] += y * gap / 2  # class-dependent shift; small gap overlaps
        cases.append((x, y, (0.3, 1.0, 4.0)[trial % 3]))
    # Imbalanced, overlapping classes at a large cost: optima near or at w = 0
    for seed in (15, 38, 79):
        g = np.random.Generator(np.random.Philox(seed))
        k, n_maj = int(g.integers(2, 8)), int(g.integers(20, 60))
        y = np.r_[-np.ones(k), np.ones(n_maj)]
        x = g.standard_normal((y.size, 1))
        x[:k] += 0.5
        cases.append((x, y, 10.0))
    zeros = 0
    for trial, (x, y, c) in enumerate(cases):
        zeros += calibrates_as_oracle(x, y, c, trial)
    assert 0 < zeros < len(cases)


def calibrates_as_oracle(x, y, c, case) -> bool:
    """Check svm_fit's one-feature margin against the grid oracle's SVM:
    constant exactly where the SVM optimum is ``w = 0``, and otherwise
    calibrated to the probabilities, and decisions, of the oracle SVM's
    margins.  Returns whether the optimum is ``w = 0``."""
    (w, b), best = grid_min(primal_1d(x[:, 0], y, c), [-8.0, -8.0], [8.0, 8.0])
    # At w = 0 the primal's least value is 2c times the smaller class count.
    zero = best >= 2.0 * c * min(np.sum(y > 0), np.sum(y < 0)) - 1e-9
    m = fit_one(svm_fit, x, y, c=c)
    margins = decision_values(m, x)
    p = calibrated_probability(fit_one(calibrate, margins[0], y), margins)[0]
    assert (m.weights[0, 0] == 0.0) == zero, case
    if zero:
        assert np.ptp(p) == 0.0, case
    else:
        oracle = w * x[:, 0] + b
        p_oracle = calibrated_probability(fit_one(calibrate, oracle, y), oracle[None])[0]
        np.testing.assert_allclose(p, p_oracle, rtol=0.0, atol=1e-6, err_msg=str(case))
        assert np.array_equal(p > 0.5, p_oracle > 0.5), case
    return bool(zero)


def test_svm_matches_grid_oracle_2d():
    gen = np.random.Generator(np.random.Philox(11))
    n = 16
    x = gen.standard_normal((n, 2))
    y = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    x += y[:, None] * 0.4
    for c in (0.5, 2.0):
        m = fit_one(svm_fit, x, y, c=c)
        smo_obj = svm_objective(x, y, m.weights[0], m.bias[0], c)
        _, oracle_obj = grid_min(
            primal_2d(x, y, c), [-6.0, -6.0, -6.0], [6.0, 6.0, 6.0], rounds=14, pts=13
        )
        assert abs(smo_obj - oracle_obj) <= 2e-4, (c, smo_obj, oracle_obj)


def test_svm_deterministic():
    gen = np.random.Generator(np.random.Philox(12))
    x = gen.standard_normal((30, 3))
    y = np.where(gen.random(30) < 0.5, 1.0, -1.0)
    y[:2] = [1.0, -1.0]
    a = fit_one(svm_fit, x, y)
    b = fit_one(svm_fit, x, y)
    np.testing.assert_array_equal(a.weights, b.weights)
    np.testing.assert_array_equal(a.bias, b.bias)


def test_svm_input_validation():
    x = np.zeros((4, 2))
    with pytest.raises(ValueError):
        svm_fit(x, np.array([[0.0, 1.0, 0.0, 1.0]]))
    with pytest.raises(ValueError):
        svm_fit(x, np.array([[1.0, 1.0, 1.0, 1.0]]))
    with pytest.raises(ValueError):
        svm_fit(x, np.array([[1.0, -1.0, 1.0, -1.0]]), c=0.0)
    with pytest.raises(ValueError):
        svm_fit(np.zeros(4), np.array([[1.0, -1.0, 1.0, -1.0]]))
    # One labeling is a batch of one: a 1-D y is a shape error.
    with pytest.raises(ValueError, match=re.escape("y (R, n)")):
        svm_fit(x, np.array([1.0, -1.0, 1.0, -1.0]))


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_svm_rejects_non_finite_input_fast(d, bad):
    # A non-finite x used to run every SMO step of max_passes before
    # raising FitError; c = nan or inf did the same.
    gen = np.random.Generator(np.random.Philox(15))
    x = gen.standard_normal((40, d))
    y = np.where(np.arange(40) % 2 == 0, 1.0, -1.0)
    x += 0.3 * y[:, None]
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="c must be positive and finite"):
        svm_fit(x, y[None], c=bad)
    x[7, 0] = bad
    with pytest.raises(ValueError, match="x must be finite"):
        svm_fit(x, y[None])
    with pytest.raises(ValueError, match="x must be finite"):
        svm_fit(np.stack([x, x]), np.stack([y, y]))
    assert time.perf_counter() - t0 < 0.5


def test_svm_objective_overflow_fails_fast_with_a_zero_model():
    # A huge c used to overflow the corner's and SMO's objectives, warn, and
    # run every SMO pass before the column failed.
    gen = np.random.Generator(np.random.Philox(15))
    balanced = gen.standard_normal((12, 3)), np.where(np.arange(12) % 2 == 0, 1.0, -1.0)
    # Each positive row is the sum of two negative ones, so the corner's w is
    # zero and its objective finite: the overflow shows in SMO's gap test.
    xp = gen.standard_normal((4, 3))
    cancelling = np.concatenate([xp, xp / 2, xp / 2]), np.r_[np.ones(4), -np.ones(8)]
    assert linclass._corner(cancelling[0], cancelling[1][None], 1e200)[3].all()
    for (x, y), c in ((balanced, 1e300), (balanced, 1e200), (cancelling, 1e200)):
        t0 = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            svm, failures = svm_fit(x, np.stack([y, y]), c=c)
        assert time.perf_counter() - t0 < 0.5
        assert sorted(failures) == [0, 1]
        assert all("overflows" in str(exc) for exc in failures.values())
        assert not svm.weights.any() and not svm.bias.any()


def test_svm_1d_fit_is_fast():
    # One feature runs no solver: a batch of 300 columns, a third of them
    # on tied scores that need exact sums, takes a few passes over them.
    gen = np.random.Generator(np.random.Philox(13))
    y = _labels(gen, 300, 100, 40)
    x = gen.standard_normal((300, 100, 1))
    x[::3] = np.round(x[::3] * 3.0) / 3.0
    svm_fit(x, y)  # warm up
    t0 = time.perf_counter()
    for _ in range(5):
        svm_fit(x, y)
    assert (time.perf_counter() - t0) / 5 < 0.05


def test_svm_raises_when_pass_cap_runs_out(monkeypatch):
    gen = np.random.Generator(np.random.Philox(14))
    x = gen.standard_normal((40, 2))
    y = np.where(np.arange(40) % 2 == 0, 1.0, -1.0)
    x += 0.3 * y[:, None]
    with monkeypatch.context() as m:
        m.setattr(linclass, "_MAX_PASSES", 1)
        assert re.search("1 passes", failure_of_one(svm_fit, x, y))
    fit_one(svm_fit, x, y)  # the default cap is enough


def test_svm_stuck_pass_fails_at_once(monkeypatch):
    # A pass that ends by the KKT test leaves no step for the next pass,
    # so when its duality gap is still above tol (never below 0) the fit
    # fails then, not after repeating the same gap test max_passes times.
    gen = np.random.Generator(np.random.Philox(84))
    y = gen.permutation(np.where(np.arange(200) < 50, 1.0, -1.0))
    x = gen.standard_normal((200, 2)) + 0.8 * y[:, None]
    calls = []

    def counted(*args):
        calls.append(None)
        return gap_test(*args)

    gap_test = linclass._gap_test
    monkeypatch.setattr(linclass, "_gap_test", counted)
    monkeypatch.setattr(linclass, "_SVM_TOL", 0.0)
    monkeypatch.setattr(linclass, "_MAX_PASSES", 10**6)
    m, failures = svm_fit(x[None], y[None])
    assert list(failures) == [0]
    assert str(failures[0]) == "SVM duality gap still above tol 0.0 after 4 passes, with no step left"
    assert 1 <= len(calls) <= 10  # 4: three full passes, then one stuck
    assert not m.weights.any() and not m.bias.any()  # the zero model


def test_svm_balanced_overlap_certifies_the_corner(monkeypatch):
    # Labels independent of tightly packed 3-d codes, as after a label
    # permutation: every row lies inside the margin at alpha = c.
    gen = np.random.Generator(np.random.Philox(16))
    x = 0.05 * gen.standard_normal((120, 3))
    y = gen.permutation(np.r_[np.ones(60), -np.ones(60)])
    for c in (0.5, 1.0):
        m = fit_one(svm_fit, x, y, c=c)
        w, b = m.weights[0], m.bias[0]
        np.testing.assert_array_equal(w, x.T @ (c * y))
        primal = svm_objective(x, y, w, b, c)
        corner_dual = y.size * c - 0.5 * float(w @ w)
        assert 0.0 <= primal - corner_dual < 1e-6 * max(1.0, primal)
        # no SMO pass runs, so the pass cap cannot be hit
        with monkeypatch.context() as cap:
            cap.setattr(linclass, "_MAX_PASSES", 0)
            no_passes = fit_one(svm_fit, x, y, c=c)
        np.testing.assert_array_equal(no_passes.weights, m.weights)
        np.testing.assert_array_equal(no_passes.bias, m.bias)


@pytest.mark.parametrize("n_pos", [8, 5])  # balanced and separable, imbalanced
def test_svm_uncertified_corner_matches_grid_oracle(n_pos):
    gen = np.random.Generator(np.random.Philox(17))
    x = gen.standard_normal((16, 2))
    y = np.r_[np.ones(n_pos), -np.ones(16 - n_pos)]
    x += y[:, None] * (2.0 if n_pos == 8 else 0.3)
    c = 2.0
    m = fit_one(svm_fit, x, y, c=c)
    assert not np.array_equal(m.weights[0], x.T @ (c * y))
    smo_obj = svm_objective(x, y, m.weights[0], m.bias[0], c)
    _, oracle_obj = grid_min(
        primal_2d(x, y, c), [-6.0, -6.0, -6.0], [6.0, 6.0, 6.0], rounds=14, pts=13
    )
    assert abs(smo_obj - oracle_obj) <= 2e-4, (smo_obj, oracle_obj)


# Seeds at which SMO, when it also stopped on a per-pass objective decrease
# below tol, stopped after a pass that raised the primal, up to 126% above
# the optimum (seed 188: 588.6 against 260.0).
RISING_PASS_SEEDS = (53, 164, 188, 230, 239, 337, 389, 395)


@pytest.mark.parametrize("seed", RISING_PASS_SEEDS)
def test_svm_stops_only_at_the_optimum(seed):
    # A zero second column keeps SMO's problem equal to the one-feature
    # problem, whose optimum the grid oracle finds.
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 30))
    n_maj = int(rng.integers(k + 1, 200))
    s = rng.random(k + n_maj) * (1.0, 3.0, 10.0)[seed % 3]
    y = np.r_[-np.ones(k), np.ones(n_maj)]
    c = 10.0
    _, optimum = grid_min(primal_1d(s, y, c), [-8.0, -8.0], [8.0, 8.0])
    x = np.column_stack([s, np.zeros(s.size)])
    m = fit_one(svm_fit, x, y, c=c)
    assert svm_objective(x, y, m.weights[0], m.bias[0], c) <= optimum + 1e-6 * max(1.0, optimum)


# SMO's path is pinned bit for bit: SHA-256 of a fit's weights' bytes and
# its bias's repr.  Every case reaches SMO: the balanced ones shift the
# classes apart, so the corner alpha = c is not optimal.  Integer rows are
# the shifted rows rounded into {0, 1, 2}: exact zeros and ties in myg and
# in the kernel columns.  The small-c imbalanced case runs four passes, in
# which indices leave the up set and come back.  The n = 1500 case has the
# shape of a type1_kfold_raw fold: its 21-slot cache of kernel columns
# cycles many times over.
# name: (seed, n, n_pos, d, c, class shift, integer rows, sha)
SMO_PINS = {
    "balanced_d2_c1": (81, 120, 60, 2, 1.0, 1.0, False, "89d6af5551bc101a325d2899beb49a133801cea2011f55cb2287523cff0e17b1"),
    "balanced_d5_c10": (82, 200, 100, 5, 10.0, 1.0, False, "d3737a2c70a62d4af56e61467ac9e03b1a6c11a2a9b52e88d0ade5c57d15b842"),
    "balanced_d20_c1": (83, 600, 300, 20, 1.0, 0.3, False, "75e85e47ec96a3b96acb366e980645ca02df5b7a6a881c0f470d3e2586d0400e"),
    "imbalanced_d2_c10": (84, 200, 50, 2, 10.0, 0.8, False, "1ae8736e841cc0014960ca14c6d6d7351d2823d879b8a1da8f8bb491ebc5a036"),
    "imbalanced_d5_c0.1": (85, 400, 120, 5, 0.1, 0.4, False, "5555de2ae5906da16c0b4f225b4741f152c8b84d011ca8b937b3ed67a571bb07"),
    "imbalanced_d20_c1": (86, 300, 90, 20, 1.0, 0.3, False, "8cb1a5d28432765626d214f310e42e7b3c27f1564e85a09a0f779bd2592e5d2b"),
    "separable_d2_c10": (87, 150, 75, 2, 10.0, 2.5, False, "a2ca89fbd984c899facd6b34574db1dfb3e1b7b0a47f7bfa4be34a0c9d687130"),
    "separable_d5_c1": (88, 250, 100, 5, 1.0, 2.0, False, "f2b1c8a519c31ba2b7b92f43749ca24facffd6ad233291ec0fb612d65c6617cd"),
    "separable_d20_c0.1": (89, 600, 300, 20, 0.1, 1.2, False, "f6a372b4e9fab38665a85e6030ec70260e38f9cac32803cda7e7c3bfbe1a12fa"),
    "integer012_d4_c1": (93, 300, 150, 4, 1.0, 0.6, True, "785da4b1eff0c5d9b8e7a4508cfe6700e10a62a557742bbe9889bbc7166d85b0"),
    "imbalanced_d20_c0.05_passes": (95, 100, 25, 20, 0.05, 0.3, False, "378800cedccdd7e18fa05afc4fbdbc33d5d002063f0a06d73b10b504172819f4"),
    "balanced_d20_c1_n1500": (96, 1500, 750, 20, 1.0, 0.3, False, "de15050508764060f206b815adde0badfa4ca6afa8adf7226397e86a62c06753"),
}
SMO_PIN_SHARED = "3367b96e836f677b73f5c17ffc4c47f698efa29ecfbdd657328616e962e20bf4"


def _fit_digest(weights, bias):
    bias = repr(np.asarray(bias).tolist())  # a float's repr, or a list of them
    return hashlib.sha256(weights.tobytes() + bias.encode()).hexdigest()


def _pin_problem(name):
    """The rows, labels and cost of an SMO pin."""
    seed, n, n_pos, d, c, shift, integer, _ = SMO_PINS[name]
    gen = np.random.Generator(np.random.Philox(seed))
    y = gen.permutation(np.where(np.arange(n) < n_pos, 1.0, -1.0))
    x = gen.standard_normal((n, d)) + shift * y[:, None]
    if integer:
        x = np.clip(np.rint(x + 1.0), 0.0, 2.0)
    return x, y, c


def test_smo_bits_pinned():
    digests = {}
    for name in SMO_PINS:
        x, y, c = _pin_problem(name)
        m = fit_one(svm_fit, x, y, c=c)
        assert not np.array_equal(m.weights[0], x.T @ (c * y)), name
        digests[name] = _fit_digest(m.weights[0], m.bias[0])
    assert digests == {name: pin[-1] for name, pin in SMO_PINS.items()}

    # A batch whose three columns share their rows, and all run SMO.
    gen = np.random.Generator(np.random.Philox(90))
    x = gen.standard_normal((160, 3))
    y = np.stack([gen.permutation(np.where(np.arange(160) < k, 1.0, -1.0)) for k in (80, 80, 60)])
    m, failures = svm_fit(x, y, c=1.0)
    assert failures == {}
    assert not any(np.array_equal(m.weights[j], x.T @ y[j]) for j in range(3))
    assert _fit_digest(m.weights, m.bias) == SMO_PIN_SHARED


def test_smo_bits_pinned_under_heavy_eviction(monkeypatch):
    # Every fit gets the cache's floor of two kernel-column slots, so most
    # lookups evict; a j miss that evicted i's slot would change the step.
    monkeypatch.setattr(linclass, "_CACHE_BYTES", 0)
    test_smo_bits_pinned()


def _second_index_cases():
    """(trial, diff, curv) with ties, signed zeros, negatives, -inf entries,
    and tiny positives whose squares underflow to 0."""
    gen = np.random.Generator(np.random.Philox(92))
    for trial in range(600):
        n = int(gen.integers(1, 60))
        scale = 10.0 ** gen.integers(-3, 4)
        diff = gen.integers(-3, 4, n) * scale if trial % 2 else gen.standard_normal(n) * scale
        diff[gen.random(n) < 0.2] = 0.0
        diff[gen.random(n) < 0.2] = -0.0
        diff[gen.random(n) < 0.2] = -np.inf
        if trial % 3 == 0:
            diff[diff > 0] = 10.0 ** gen.integers(-200, -162)  # diff**2 is 0
        curv = gen.choice([1e-12, 0.5, 2.0, 3.0], n) if trial % 2 else gen.random(n) * scale + 1e-12
        yield trial, diff, curv


def test_second_index_equals_masked_argmax():
    # SMO's second index is the first maximizer of diff**2 / curv over
    # diff > 0, with the others masked to -inf.  The helper skips the mask
    # when the unmasked diff * |diff| / curv has a positive maximum; check
    # it against the masked reference, also where every square underflows
    # and it must fall back to the mask.
    fallbacks = 0
    for trial, diff, curv in _second_index_cases():
        n = len(diff)
        reference = diff * diff / curv
        reference[diff <= 0.0] = -np.inf
        j = _second_index(diff, curv, np.empty(n), np.empty(n, dtype=bool))
        assert j == int(reference.argmax()), trial
        fallbacks += not reference.max() > 0.0
    assert 100 < fallbacks < 500


def test_second_index_of_the_half_curvature_is_the_same():
    # SMO passes its curvature rows halved: the gains double exactly, so
    # the first maximizer stays, ties and the underflow fallback included.
    for trial, diff, curv in _second_index_cases():
        n = len(diff)
        scratch = np.empty(n), np.empty(n, dtype=bool)
        assert _second_index(diff, 0.5 * curv, *scratch) == _second_index(diff, curv, *scratch), trial


def test_half_curvature_rows_are_half_the_full_rows_bit_for_bit():
    # SMO fills a curvature row as max((sqh_i + sqh) - x @ x_i, _TAU / 2)
    # with sqh = sq / 2.  Twice that is the full row max((sq_i + sq) -
    # 2 x @ x_i, _TAU) bit for bit on every pin's rows, with every fifth row
    # repeated so that entries clamp beyond each row's own, as the integer
    # rows' do.
    for name in SMO_PINS:
        x, _, _ = _pin_problem(name)
        x = np.concatenate([x, x[::5]])
        sq = np.einsum("ij,ij->i", x, x)
        sqh = 0.5 * np.einsum("ij,ij->i", x, x)
        rows = range(0, len(x), 3)
        clamped = 0
        for i in rows:
            k_i = np.dot(x, x[i])
            curv = np.maximum((sq[i] + sq) - 2.0 * k_i, linclass._TAU)
            curvh = np.maximum((sqh[i] + sqh) - k_i, 0.5 * linclass._TAU)
            assert np.array_equal(2.0 * curvh, curv), (name, i)
            clamped += int((curv == linclass._TAU).sum())
        assert clamped > len(rows), name  # more than each row against itself


def test_stopping_test_reads_the_masked_copy():
    # SMO's diff is m_up - glow, where glow holds myg on the low set and
    # +inf off it.  Rounding is monotone, so its max is m_up - (min over
    # low of myg) exactly, also with ties, signed zeros, huge magnitudes,
    # an empty low set and m_up = -inf (an empty up set).  The stop test
    # reads that max only when diff[j] < 1e-10: a pair j that gains 1e-10
    # proves the max is no smaller, so the test stops exactly when the max
    # is below 1e-10, whichever j the step chose.
    gen = np.random.Generator(np.random.Philox(91))
    for trial in range(400):
        n = int(gen.integers(1, 60))
        scale = 10.0 ** gen.integers(-300, 301)
        myg = gen.integers(-3, 4, n) * scale if trial % 2 else gen.standard_normal(n) * scale
        myg[gen.random(n) < 0.2] = 0.0
        myg[gen.random(n) < 0.2] = -0.0
        low = gen.random(n) < (0.0 if trial % 10 == 0 else 0.6)
        glow = np.where(low, myg, np.inf)
        m_up = -np.inf if trial % 7 == 0 else float(gen.choice(myg)) + gen.choice([0.0, scale])
        with np.errstate(over="ignore"):  # m_up - myg may round to +-inf
            diff = m_up - glow
            reference = m_up - np.where(low, myg, np.inf).min()
        top = diff[diff.argmax()]
        assert top == reference, (trial, m_up, reference)
        for j in range(n):
            stops = not diff[j] >= 1e-10 and diff[diff.argmax()] < 1e-10
            assert stops == (top < 1e-10), (trial, j)


def test_every_index_is_up_or_low(monkeypatch):
    # SMO keeps myg in two masked copies, gup (-inf off the up set) and glow
    # (+inf off the low set), and a flip reads an index's myg from the copy
    # that holds it.  So every index must be in one set at least, which the
    # step's comparisons give for c > 0 at any alpha: on a bound, inside, or
    # just past a bound.
    for c in (5e-324, 1e-300, 1e-3, 1.0, 10.0, 1e300):
        alpha = [0.0, -0.0, 0.5 * c, c, -c, 2.0 * c]
        alpha += [np.nextafter(a, toward) for a in (0.0, c) for toward in (-np.inf, np.inf)]
        for a in alpha:
            for pos in (True, False):
                up, low = (a < c, a > 0.0) if pos else (a > 0.0, a < c)
                assert up or low, (c, a, pos)

    # SMO's own copies keep it: at the end of every pass each index has a
    # finite value in one copy, equal in both where both hold it, in fits
    # whose alphas reach both bounds.
    bounds = set()

    def checked(x, y, alpha, gup, glow, c):
        assert ((gup != -np.inf) | (glow != np.inf)).all()
        both = (gup != -np.inf) & (glow != np.inf)
        np.testing.assert_array_equal(gup[both], glow[both])
        if (alpha == 0.0).any():
            bounds.add("0")
        if (alpha == c).any():
            bounds.add("c")
        return gap_test(x, y, alpha, gup, glow, c)

    gap_test = linclass._gap_test
    monkeypatch.setattr(linclass, "_gap_test", checked)
    for name in ("integer012_d4_c1", "imbalanced_d20_c0.05_passes", "separable_d2_c10"):
        x, y, c = _pin_problem(name)
        fit_one(svm_fit, x, y, c=c)
    assert bounds == {"0", "c"}


# (minority scores, majority scores, whether w = 0 is optimal)
ZERO_WEIGHT_CASES = {
    "minority_mean_inside": ([0.2, 0.5, 0.8], [0.0, 0.1, 0.3, 0.4, 0.6, 0.7, 0.9, 1.0, 1.1], True),
    "minority_mean_on_edge": ([2.0, 4.0], [0.0, 1.0, 2.0, 4.0], True),
    "minority_mean_above": ([1.5, 1.8, 2.0], [0.0, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2], False),
    "minority_mean_below": ([-0.5, 0.1, 0.2], [0.0, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2], False),
    "balanced_equal_means": ([0.0, 2.0], [0.5, 1.5], True),
    "balanced_unequal_means": ([0.0, 2.5], [0.5, 1.5], False),
}


@pytest.mark.parametrize("name", sorted(ZERO_WEIGHT_CASES))
@pytest.mark.parametrize("minority_sign", [1.0, -1.0])
def test_svm_1d_zero_weight_matches_grid_minimum(name, minority_sign):
    """Whether w = 0 is optimal is read off a brute-force grid of the
    primal, then svm_fit must return exactly w = 0 in those cases only,
    and otherwise a margin that calibrates as the oracle SVM's does."""
    minority, majority, expected = ZERO_WEIGHT_CASES[name]
    x = np.array(minority + majority)[:, None]
    y = minority_sign * np.r_[np.ones(len(minority)), -np.ones(len(majority))]
    steps = np.arange(-40, 41) / 10.0  # includes 0 and +-1 exactly
    for c in (0.5, 10.0):
        zero = min(svm_objective(x, y, np.zeros(1), b, c) for b in steps)
        best = min(svm_objective(x, y, np.array([w]), b, c) for w in steps for b in steps)
        if expected:
            assert best >= zero - 1e-12, (c, best, zero)
        else:
            assert best < zero - 1e-3, (c, best, zero)
        assert calibrates_as_oracle(x, y, c, (name, c)) is expected


def zero_weight_rule(s, y, number) -> bool:
    """The ``w = 0`` rule of :mod:`permsig.linclass`, with scores summed as
    ``number``: ``Fraction`` sums exactly, ``float`` rounds."""
    few = y > 0 if 2 * np.sum(y > 0) <= y.size else y < 0
    k = int(few.sum())
    mine, other = sum(map(number, s[few])), sorted(map(number, s[~few]))
    return sum(other[:k]) <= mine <= sum(other[-k:])


def test_svm_1d_zero_weight_is_decided_by_exact_sums():
    # Scores on a grid of thirds tie in exact arithmetic where their float
    # sums may differ, and differ where float sums may tie.
    gen = np.random.Generator(np.random.Philox(94))
    zeros = float_wrong = 0
    for trial in range(60):
        n = int(gen.integers(4, 30))
        y = _labels(gen, 50, n, n // 2 if trial % 2 else int(gen.integers(1, n)))
        s = gen.integers(-4, 5, y.shape) / 3.0
        svm, failures = svm_fit(s[..., None], y)
        assert failures == {}
        for j in range(len(y)):
            exact = zero_weight_rule(s[j], y[j], Fraction)
            assert (svm.weights[j, 0] == 0.0) == exact, (trial, j)
            zeros += exact
            float_wrong += exact != zero_weight_rule(s[j], y[j], float)
    assert zeros > 100 and float_wrong > 10, (zeros, float_wrong)


def test_decision_values_are_affine():
    m = LinearSvm(np.array([[2.0, -1.0]]), np.array([0.5]))
    x = np.array([[1.0, 1.0], [0.0, 0.0]])
    np.testing.assert_allclose(decision_values(m, x), [[1.5, 0.5]])
    with pytest.raises(ValueError, match="weights must be"):
        LinearSvm(np.array([2.0, -1.0]), 0.5)


def test_calibration_holds_one_map_per_column():
    cal = Calibration(np.array([2.0, -1.0]), np.array([0.0, 1.0]))
    np.testing.assert_allclose(calibrated_probability(cal, np.array([[0.0], [1.0]])),
                               [[0.5], [0.5]])
    with pytest.raises(ValueError, match="slope and intercept"):
        Calibration(2.0, 0.0)


# ------------------------------------------------------------- calibration


def test_calibrate_ordered_margins_positive_slope():
    margins = np.array([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0])
    y = np.array([-1.0, -1.0, -1.0, 1.0, 1.0, 1.0])
    cal = fit_one(calibrate, margins, y)
    assert cal.slope[0] > 0
    p = calibrated_probability(cal, margins[None])[0]
    assert np.all(np.diff(p) > 0)
    assert np.all((p > 0) & (p < 1))


def test_calibrate_balanced_flat_margins_give_half():
    margins = np.zeros(10)
    y = np.array([1.0, -1.0] * 5)
    cal = fit_one(calibrate, margins, y)
    np.testing.assert_allclose(calibrated_probability(cal, margins[None]), 0.5, atol=1e-8)


def test_calibrate_imbalanced_flat_margins_give_base_rate():
    # flat margins carry no signal; the fitted probability is the mean
    # smoothed target, close to the positive fraction
    margins = np.zeros(20)
    y = np.array([1.0] * 15 + [-1.0] * 5)
    cal = fit_one(calibrate, margins, y)
    p = float(calibrated_probability(cal, np.array([[0.0]]))[0, 0])
    hi = 16.0 / 17.0
    lo = 1.0 / 7.0
    np.testing.assert_allclose(p, (15 * hi + 5 * lo) / 20, atol=1e-6)


def test_calibrate_matches_scalar_newton_oracle():
    # 1-parameter logistic fit on known data, slope fixed by symmetry
    gen = np.random.Generator(np.random.Philox(21))
    margins = gen.standard_normal(200)
    y = np.where(gen.random(200) < 1 / (1 + np.exp(-2.0 * margins)), 1.0, -1.0)
    if np.unique(y).size < 2:
        y[0] = -y[0]
    cal = fit_one(calibrate, margins, y)
    # independent check: gradient of the smoothed NLL vanishes at the fit
    n_pos = int((y > 0).sum())
    n_neg = y.size - n_pos
    t = np.where(y > 0, (n_pos + 1) / (n_pos + 2), 1 / (n_neg + 2))
    p = 1 / (1 + np.exp(-(cal.slope[0] * margins + cal.intercept[0])))
    grad_a = float((p - t) @ margins)
    grad_b = float((p - t).sum())
    assert abs(grad_a) < 1e-6 * margins.size
    assert abs(grad_b) < 1e-6 * margins.size


def test_calibrate_separable_margins_stay_finite():
    margins = np.concatenate([np.linspace(-5, -1, 20), np.linspace(1, 5, 20)])
    y = np.concatenate([-np.ones(20), np.ones(20)])
    cal = fit_one(calibrate, margins, y)
    assert np.isfinite(cal.slope).all() and np.isfinite(cal.intercept).all()
    p = calibrated_probability(cal, margins[None])[0]
    assert p[0] < 0.1 and p[-1] > 0.9


@pytest.mark.parametrize("separable", [False, True])
def test_calibrate_matches_scipy_minimize(separable):
    gen = np.random.Generator(np.random.Philox(22))
    y = np.where(gen.random(150) < 0.4, 1.0, -1.0)
    margins = gen.standard_normal(150)
    if separable:
        margins = y * (0.5 + np.abs(margins))
    n_pos = int((y > 0).sum())
    t = np.where(y > 0, (n_pos + 1) / (n_pos + 2), 1 / (y.size - n_pos + 2))

    def nll(ab):
        z = ab[0] * margins + ab[1]
        p = 1 / (1 + np.exp(-z))
        return np.sum(np.logaddexp(0.0, z) - t * z), np.array([(p - t) @ margins, (p - t).sum()])

    ref = minimize(nll, np.zeros(2), jac=True, method="BFGS", options={"gtol": 1e-12})
    cal = fit_one(calibrate, margins, y)
    np.testing.assert_allclose([cal.slope[0], cal.intercept[0]], ref.x, rtol=0.0, atol=1e-6)


def test_calibrate_validation():
    with pytest.raises(ValueError):
        calibrate(np.zeros((1, 3)), np.array([[1.0, 1.0, 1.0]]))
    with pytest.raises(ValueError):
        calibrate(np.zeros((1, 3)), np.array([[0.0, 1.0, 0.0]]))
    with pytest.raises(ValueError):
        calibrate(np.zeros((1, 3)), np.zeros((1, 4)))
    # One labeling is a batch of one: 1-D margins and labels are a shape error.
    with pytest.raises(ValueError, match=re.escape("(R, n)")):
        calibrate(np.zeros(3), np.array([1.0, -1.0, 1.0]))


def test_softplus_matches_logaddexp():
    z = np.array([0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, 700.0, -700.0, np.inf, -np.inf])
    np.testing.assert_array_max_ulp(_softplus(z), np.logaddexp(0.0, z), maxulp=2)
    z = np.random.Generator(np.random.Philox(92)).standard_normal((8, 500)) * 40.0
    np.testing.assert_array_max_ulp(_softplus(z), np.logaddexp(0.0, z), maxulp=2)


# ----------------------------------------------------------------- batches


def _labels(gen, cols, n, n_pos):
    """``cols`` random signed labelings of ``n`` rows, ``n_pos`` of them +1."""
    y = np.where(np.arange(n) < n_pos, 1.0, -1.0)
    return np.stack([gen.permutation(y) for _ in range(cols)])


@pytest.mark.parametrize("cols", [1, 3, 40])
@pytest.mark.parametrize("d", [1, 3])
def test_batched_svm_equals_single_fits_bit_for_bit(cols, d):
    gen = np.random.Generator(np.random.Philox(70 + d))
    y = _labels(gen, cols, 30, 12 if d == 1 else 15)
    x = gen.standard_normal((cols, 30, d)) + 0.4 * y[:, :, None]
    batch, failures = svm_fit(x, y, c=2.0)
    assert failures == {}
    assert batch.weights.shape == (cols, d) and batch.bias.shape == (cols,)
    for j in range(cols):
        one = fit_one(svm_fit, x[j], y[j], c=2.0)
        assert np.array_equal(one.weights[0], batch.weights[j]) and one.bias[0] == batch.bias[j]
    shared, _ = svm_fit(x[0], y, c=2.0)  # rows that every column shares
    for j in range(cols):
        one = fit_one(svm_fit, x[0], y[j], c=2.0)
        assert np.array_equal(one.weights[0], shared.weights[j]) and one.bias[0] == shared.bias[j]


def test_one_feature_svm_fails_a_column_that_overflows():
    # Finite scores near the float limit overflow their spread (column 2)
    # or their sum, and so their mean (column 4).
    gen = np.random.Generator(np.random.Philox(74))
    y = _labels(gen, 6, 20, 8)
    x = gen.standard_normal((6, 20, 1)) + 0.4 * y[:, :, None]
    x[2] = gen.uniform(-1.0, 1.0, (20, 1)) * 1.7e308
    x[4] = gen.uniform(1.0, 1.5, (20, 1)) * 1e308
    batch, failures = svm_fit(x, y, c=1.0)
    assert list(failures) == [2, 4] and all(isinstance(e, FitError) for e in failures.values())
    assert np.isfinite(batch.weights).all() and np.isfinite(batch.bias).all()
    kept = [0, 1, 3, 5]
    alone, none_failed = svm_fit(x[kept], y[kept], c=1.0)
    assert none_failed == {}
    assert np.array_equal(batch.weights[kept], alone.weights)
    assert np.array_equal(batch.bias[kept], alone.bias)


@pytest.mark.parametrize("offset", [0.0, 0.3, 100.0])
def test_one_feature_margins_calibrate_at_any_spread(offset):
    # Scores N(0, 1) + 0.5 y scaled to a small spread: an SVM weight, bounded
    # near c * n * spread, left calibration nearly constant margins, on
    # which it failed or fitted the base rate.  The centred power-of-two
    # map gives every column a fit that follows its scores.
    gen = np.random.Generator(np.random.Philox(77))
    y = _labels(gen, 200, 40, 20)
    raw = gen.standard_normal((200, 40)) + 0.5 * y
    raw /= np.ptp(raw, axis=1, keepdims=True)
    for spread in (1e-9, 1e-8, 3e-8, 1e-7, 1e-6, 1e-4):
        x = (offset + spread * raw)[..., None]
        svm, failures = svm_fit(x, y, c=1.0)
        assert failures == {} and not np.any(svm.weights == 0.0), spread
        margins = decision_values(svm, x)
        cal, failures = calibrate(margins, y)
        assert failures == {}, (spread, len(failures))
        assert np.all(np.ptp(calibrated_probability(cal, margins), axis=1) > 0.0), spread


@pytest.mark.parametrize("cols", [1, 3, 40])
def test_batched_calibration_equals_single_fits_bit_for_bit(cols):
    gen = np.random.Generator(np.random.Philox(72))
    y = _labels(gen, cols, 25, 10)
    margins = gen.standard_normal((cols, 25)) + gen.random((cols, 1)) * 3.0 * y
    margins[0] = 4.0 * y[0]  # a separable column takes more Newton steps
    batch, failures = calibrate(margins, y)
    assert failures == {}
    for j in range(cols):
        one = fit_one(calibrate, margins[j], y[j])
        assert (one.slope[0], one.intercept[0]) == (batch.slope[j], batch.intercept[j])
    np.testing.assert_array_equal(
        calibrated_probability(batch, margins)[-1:],
        calibrated_probability(batch.select([cols - 1]), margins[-1:]),
    )


def _calibrate_one_trial_per_call(margins, y, tol=1e-8, max_iter=100, trials=None):
    """Newton with backtracking that tries one step length per call: the
    loop :func:`calibrate` batches, kept here as the reference for its
    bits.  Appends each line search's trial count to ``trials``."""
    n_pos = (y > 0).sum(axis=1)
    hi, lo = (n_pos + 1.0) / (n_pos + 2.0), 1.0 / (y.shape[1] - n_pos + 2.0)
    t = np.where(y > 0, hi[:, None], lo[:, None])
    mean_t = t.mean(axis=1)
    slope, intercept = np.zeros(len(y)), np.log(mean_t / (1.0 - mean_t))
    failures = {}

    def nll(a, b, m, t):
        z = a[:, None] * m + b[:, None]
        return np.sum(_softplus(z) - t * z, axis=1), z

    for j in range(len(y)):  # column by column: its result is that of a batch of it alone
        m, tj, a, b = margins[j:j + 1], t[j:j + 1], slope[j:j + 1], intercept[j:j + 1]
        current, z = nll(a, b, m, tj)
        failures[j] = FitError(f"calibration did not converge in {max_iter} iterations")
        for _ in range(max_iter):
            p = 1.0 / (1.0 + np.exp(-z))
            ga, gb = np.sum((p - tj) * m, axis=1), np.sum(p - tj, axis=1)
            if abs(ga[0]) < tol and abs(gb[0]) < tol:
                slope[j], intercept[j] = a[0], b[0]
                del failures[j]
                break
            wgt = (1.0 - p) * p
            h22 = np.sum(wgt, axis=1) + 1e-12
            h12 = np.sum(wgt * m, axis=1)
            h11 = np.sum(wgt * (m * m), axis=1) + 1e-12
            det = h11 * h22 - h12 * h12
            if det[0] <= 0:
                failures[j] = FitError("calibration Hessian is singular")
                break
            da, db = -(h22 * ga - h12 * gb) / det, -(-h12 * ga + h11 * gb) / det
            factor = np.ones(1)
            for count in range(1, 41):
                value, z_new = nll(a + factor * da, b + factor * db, m, tj)
                if value[0] <= current[0]:
                    break
                factor *= 0.5
            else:
                failures[j] = FitError("calibration line search failed")
                break
            if trials is not None:
                trials.append(count)
            a, b, current, z = a + factor * da, b + factor * db, value, z_new
            if max(abs(factor[0] * da[0]), abs(factor[0] * db[0])) < tol:
                slope[j], intercept[j] = a[0], b[0]
                del failures[j]
                break
    return Calibration(slope, intercept), failures


def _null_scores(seed, cols, n=200):
    """Centred null scores scaled by a power of two, as one-feature SVMs
    give calibration, with balanced labels."""
    gen = np.random.Generator(np.random.Philox(seed))
    y = _labels(gen, cols, n, n // 2)
    m = gen.standard_normal((cols, n)) + gen.uniform(0.0, 0.8, (cols, 1)) * y
    m -= m.mean(axis=1, keepdims=True)
    return m * np.ldexp(1.0, -np.frexp(np.ptp(m, axis=1))[1])[:, None], y


@pytest.mark.parametrize("max_iter", [1, 2, 100])
@pytest.mark.parametrize("cols", [1, 4, 98])
def test_calibrate_equals_one_trial_per_call_bit_for_bit(monkeypatch, cols, max_iter):
    # At seed 98 column 6 rejects 12 step lengths in its sixth Newton
    # iteration, more than one call's 8 halvings, and columns 19 and 26
    # reject 6 and 8; the columns settle at different iterations.  A NaN
    # column rejects all 40 step lengths.
    margins, y = _null_scores(98, 98)
    order = [6, 19, 26, 0] + [j for j in range(98) if j not in (6, 19, 26, 0)]
    margins, y = margins[order][:cols], y[order][:cols]
    if cols > 1:
        margins[3] = np.nan
    trials = []
    monkeypatch.setattr(linclass, "_MAX_ITER", max_iter)
    with np.errstate(invalid="ignore"):
        want, want_failed = _calibrate_one_trial_per_call(margins, y, max_iter=max_iter,
                                                          trials=trials)
        got, failed = calibrate(margins, y)
    assert got.slope.tobytes() == want.slope.tobytes()
    assert got.intercept.tobytes() == want.intercept.tobytes()
    assert {j: str(e) for j, e in failed.items()} == {j: str(e) for j, e in want_failed.items()}
    if max_iter == 100:
        assert max(trials) == 13  # column 6: the full step, then 12 halvings
        assert len(failed) == (cols > 1)
    else:
        assert len(failed) == cols


def test_a_lone_straggler_equals_one_trial_per_call_bit_for_bit(monkeypatch):
    # At seed 98 the nine other columns settle within four Newton
    # iterations, so column 6 line-searches alone in its sixth, where it
    # rejects 12 step lengths: it tries 8 per call, as the batch's 10
    # columns allow, and keeps the bits of one try per call.
    margins, y = _null_scores(98, 98)
    cols = [6, 0, 2, 4, 8, 9, 16, 18, 24, 27]
    margins, y = margins[cols], y[cols]
    rows = []
    softplus = linclass._softplus
    monkeypatch.setattr(linclass, "_softplus", lambda z: rows.append(len(z)) or softplus(z))
    trials = []
    want, want_failed = _calibrate_one_trial_per_call(margins, y, trials=trials)
    got, failed = calibrate(margins, y)
    assert got.slope.tobytes() == want.slope.tobytes()
    assert got.intercept.tobytes() == want.intercept.tobytes()
    assert failed == want_failed == {}
    assert max(trials) == 13
    assert rows[-3:] == [1, 8, 8]  # the full step, then two calls of 8 halvings


def test_calibrated_probability_of_very_negative_logits_is_zero_without_warning():
    # The slope is 882.76, so a margin of -1 is a logit below -709, where
    # e^-z overflows to inf; the probability is still exactly 0.
    cal, failures = calibrate([[-2e-3, -1e-3, -1.5e-3, 1e-3, 2e-3, 1.5e-3]],
                              [[-1, -1, -1, 1, 1, 1]])
    assert failures == {} and cal.slope[0] * -1.0 < -709.8
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert calibrated_probability(cal, [[-1.0, 1.0]]).tolist() == [[0.0, 1.0]]


def test_batch_failures_name_their_columns(monkeypatch):
    gen = np.random.Generator(np.random.Philox(73))
    y = _labels(gen, 4, 20, 10)
    margins = gen.standard_normal((4, 20))
    margins[2] = np.nan
    with np.errstate(invalid="ignore"):
        cal, failures = calibrate(margins, y)
    assert list(failures) == [2]
    assert "line search failed" in str(failures[2])
    assert np.isfinite(cal.slope).all() and np.isfinite(cal.intercept).all()
    with np.errstate(invalid="ignore"):  # the column alone records its own error
        assert re.search("line search failed", failure_of_one(calibrate, margins[2], y[2]))

    x = gen.standard_normal((3, 40, 2))
    y = _labels(gen, 3, 40, 20)
    x[1] += 0.3 * y[1][:, None]  # separated: the corner is not optimal
    monkeypatch.setattr(linclass, "_MAX_PASSES", 1)
    svm, failures = svm_fit(x, y)
    assert 1 in failures
    assert "1 passes" in str(failures[1])
    # A failed column gets the zero model (0, 0), so its margins stay finite.
    assert not svm.weights[1].any() and svm.bias[1] == 0.0
    assert np.isfinite(decision_values(svm, x)).all()


def test_mixed_batch_equals_single_fits_bit_for_bit(monkeypatch):
    # The corner is certified for the whole batch at once; only the other
    # columns run SMO, and three passes are too few for some of them.
    gen = np.random.Generator(np.random.Philox(75))
    kinds = ("certified", "smo", "unbalanced", "failing") * 3
    y = np.stack([gen.permutation(np.where(np.arange(40) < (14 if k == "unbalanced" else 20),
                                           1.0, -1.0)) for k in kinds])
    x = gen.standard_normal((len(kinds), 40, 3))
    for j, kind in enumerate(kinds):
        shift = 1.5 if kind == "smo" else 0.3
        x[j] = 0.05 * x[j] if kind == "certified" else x[j] + shift * y[j][:, None]
    failed = {}
    monkeypatch.setattr(linclass, "_MAX_PASSES", 3)
    for j in range(len(kinds)):
        _, failures = svm_fit(x[j][None], y[j][None], c=2.0)
        if failures:
            failed[j] = str(failures[0])
    assert {kinds[j] for j in failed} == {"unbalanced", "failing"}
    assert {kinds[j] for j in range(len(kinds)) if j not in failed} == set(kinds) - {"failing"}
    batch, failures = svm_fit(x, y, c=2.0)
    assert {j: str(exc) for j, exc in failures.items()} == failed
    for j in range(len(kinds)):
        corner = x[j].T @ (2.0 * y[j])
        if j in failed:  # the zero model
            assert not batch.weights[j].any() and batch.bias[j] == 0.0
            continue
        one = fit_one(svm_fit, x[j], y[j], c=2.0)
        assert np.array_equal(one.weights[0], batch.weights[j]) and one.bias[0] == batch.bias[j]
        assert np.array_equal(batch.weights[j], corner) == (kinds[j] == "certified")
    monkeypatch.undo()  # the default pass cap
    shared, _ = svm_fit(x[0], y, c=2.0)  # certified for the balanced columns only
    for j in range(len(kinds)):
        one = fit_one(svm_fit, x[0], y[j], c=2.0)
        assert np.array_equal(one.weights[0], shared.weights[j]) and one.bias[0] == shared.bias[j]
