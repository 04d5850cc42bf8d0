import math
import time

import numpy as np
import pytest
import scipy
from scipy.special import gammaln, logsumexp

from permsig.bounds import (
    BoundSpec,
    _log_gamma,
    empirical_bound,
    log_binomial_sum,
    vapnik_bound,
)

# Hand-computed oracle: sum_{k=0}^{2} C(4, k) = 1 + 4 + 6 = 11.
LN_11 = math.log(11.0)

# (n, mu) pairs for d=1, eta=0.05, precomputed from the closed form
# sqrt(ln(2/eta) / (2n)) and frozen here to 8 decimals.
MU_TABLE = [
    (417, 0.06650652),
    (229, 0.08974587),
    (400, 0.06790508),
    (200, 0.09603228),
    (100, 0.13581015),
    (246, 0.08658939),
    (123, 0.12245589),
]


def test_log_binomial_sum_small_oracle():
    np.testing.assert_allclose(log_binomial_sum(4, 2), LN_11, rtol=1e-12)


def test_log_binomial_sum_edges():
    assert log_binomial_sum(10, 0) == 0.0  # ln C(10,0) = ln 1
    # k_max >= n sums the whole row: ln 2^n
    np.testing.assert_allclose(log_binomial_sum(10, 10), 10 * math.log(2), rtol=1e-12)
    np.testing.assert_allclose(log_binomial_sum(10, 99), 10 * math.log(2), rtol=1e-12)
    with pytest.raises(ValueError):
        log_binomial_sum(-1, 0)
    with pytest.raises(ValueError):
        log_binomial_sum(3, -1)


def test_log_binomial_sum_matches_exact_arithmetic():
    # exact integer sums up to n = 60 stay well inside float range
    for n in (5, 17, 33, 60):
        for k_max in (1, 2, n // 2, n):
            exact = sum(math.comb(n, k) for k in range(k_max + 1))
            np.testing.assert_allclose(
                log_binomial_sum(n, k_max), math.log(exact), rtol=1e-12
            )


def test_log_binomial_sum_large_n_no_overflow():
    v = log_binomial_sum(100_000, 500)
    assert np.isfinite(v)
    # ln C(1e5, 500) alone is about 3274, so the sum must exceed that
    assert v > 3000


def test_empirical_bound_d1_closed_form():
    for n, mu in MU_TABLE:
        got = empirical_bound(BoundSpec(n, 1, 0.05))
        np.testing.assert_allclose(got, mu, atol=5e-7)
        # and the closed form directly
        np.testing.assert_allclose(got, math.sqrt(math.log(2 / 0.05) / (2 * n)), rtol=1e-12)


def test_empirical_bound_general_d_oracle():
    # independent recomputation with exact integer binomials, n=50, d=4
    n, d, eta = 50, 4, 0.05
    count = sum(math.comb(n - 1, k) for k in range(d))
    expect = math.sqrt((math.log(2) + math.log(count) - math.log(eta)) / (2 * n))
    np.testing.assert_allclose(empirical_bound(BoundSpec(n, d, eta)), expect, rtol=1e-12)


def test_vapnik_bound_oracle():
    # d=1 -> h=2: sqrt((2 (ln(n) + 1) - ln(eta/4)) / n)
    n, eta = 417, 0.05
    h = 2
    expect = math.sqrt((h * (math.log(2 * n / h) + 1) - math.log(eta / 4)) / n)
    np.testing.assert_allclose(vapnik_bound(BoundSpec(n, 1, eta)), expect, rtol=1e-12)
    np.testing.assert_allclose(vapnik_bound(BoundSpec(417, 1, 0.05)), 0.2103, atol=5e-5)


def test_bounds_decrease_with_n_increase_with_d():
    etas = (0.01, 0.05, 0.2)
    ns = (50, 100, 400, 1000)
    for eta in etas:
        for d in (1, 3, 9):
            mus = [empirical_bound(BoundSpec(n, d, eta)) for n in ns]
            assert all(a > b for a, b in zip(mus, mus[1:])), (eta, d)
            vs = [vapnik_bound(BoundSpec(n, d, eta)) for n in ns]
            assert all(a > b for a, b in zip(vs, vs[1:])), (eta, d)
        for n in ns:
            by_d = [empirical_bound(BoundSpec(n, d, eta)) for d in (1, 2, 4, 8)]
            assert all(a < b for a, b in zip(by_d, by_d[1:])), (eta, n)


def test_empirical_tighter_than_vapnik_at_d1():
    for n in (10, 50, 100, 417, 5000):
        spec = BoundSpec(n, 1, 0.05)
        assert empirical_bound(spec) < vapnik_bound(spec)


def test_bound_spec_validation():
    with pytest.raises(ValueError):
        BoundSpec(1, 1, 0.05)
    with pytest.raises(ValueError):
        BoundSpec(10, 0, 0.05)
    with pytest.raises(ValueError):
        BoundSpec(10, 10, 0.05)  # d must be < n
    with pytest.raises(ValueError):
        BoundSpec(10, 1, 0.0)
    with pytest.raises(ValueError):
        BoundSpec(10, 1, 1.0)


def test_bound_evaluation_is_fast():
    spec = BoundSpec(417, 1, 0.05)
    empirical_bound(spec)  # warm up
    t0 = time.perf_counter()
    for _ in range(100):
        empirical_bound(spec)
        vapnik_bound(spec)
    per_call = (time.perf_counter() - t0) / 200
    assert per_call < 1e-3


# ------------------------------------------- bit identity with scipy 1.17


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.int64)


def test_log_gamma_equals_scipy_gammaln_bit_for_bit():
    ks = list(range(1, 200_002)) + [10**8, 10**8 + 1, 3 * 10**8, 2**53 - 1, 10**12]
    ours = [_log_gamma(k) for k in ks]
    np.testing.assert_array_equal(_bits(ours), _bits(gammaln(np.array(ks, dtype=np.float64))))


def _scipy_log_binomial_sum(n, k_max):
    # the reference: log_binomial_sum's formula on scipy's gammaln and logsumexp
    k_max = min(k_max, n)
    terms = [gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1) for k in range(k_max + 1)]
    return float(logsumexp(terms))


@pytest.mark.skipif(not scipy.__version__.startswith("1.17."),
                    reason="the oracle is scipy 1.17's logsumexp")
def test_log_binomial_sum_equals_scipy_bit_for_bit():
    # d = 2 and 3 (k_max = d - 1) at every n up to 2000; every k_max on
    # small rows, where tied maxima occur; and large rows
    pairs = [(n, k) for n in range(2001) for k in (1, 2)]
    pairs += [(n, k) for n in range(41) for k in range(n + 2)]
    pairs += [(100_000, 500), (20_000, 1000), (19_999, 19_999)]
    ours = [log_binomial_sum(n, k) for n, k in pairs]
    want = [_scipy_log_binomial_sum(n, k) for n, k in pairs]
    np.testing.assert_array_equal(_bits(ours), _bits(want))
