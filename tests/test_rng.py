import numpy as np
import pytest

from permsig.rng import PermutationPlan, _stream_word


def test_same_tag_reproduces_stream():
    plan = PermutationPlan(42, 3)
    a = plan.rng("permute").random(100)
    b = plan.rng("permute").random(100)
    np.testing.assert_array_equal(a, b)


def test_different_tags_give_different_streams():
    plan = PermutationPlan(42, 3)
    a = plan.rng("permute").random(100)
    b = plan.rng("folds").random(100)
    assert not np.array_equal(a, b)


def test_different_replicates_give_different_streams():
    a = PermutationPlan(42, 0).rng("permute").random(100)
    b = PermutationPlan(42, 1).rng("permute").random(100)
    assert not np.array_equal(a, b)


def test_different_seeds_give_different_streams():
    a = PermutationPlan(1, 0).rng("permute").random(100)
    b = PermutationPlan(2, 0).rng("permute").random(100)
    assert not np.array_equal(a, b)


def test_plans_are_order_free():
    # drawing from replicate 5 first, then 2, matches drawing 2 then 5
    seq_a = [PermutationPlan(9, r).rng("x").random(8) for r in (5, 2)]
    seq_b = [PermutationPlan(9, r).rng("x").random(8) for r in (2, 5)]
    np.testing.assert_array_equal(seq_a[0], seq_b[1])
    np.testing.assert_array_equal(seq_a[1], seq_b[0])


def test_stream_word_is_stable_and_distinct():
    w = _stream_word(0, "permute")
    assert w == _stream_word(0, "permute")
    assert 0 <= w < 2**64
    # a small collision sweep over (replicate, tag) pairs
    words = {
        _stream_word(r, tag)
        for r in range(200)
        for tag in ("permute", "folds", "shuffle", "split", "ae.init")
    }
    assert len(words) == 200 * 5


def test_seed_bounds_enforced():
    with pytest.raises(ValueError):
        PermutationPlan(-1, 0)
    with pytest.raises(ValueError):
        PermutationPlan(2**64, 0)
    with pytest.raises(ValueError):
        PermutationPlan(0, -1)
    PermutationPlan(2**64 - 1, 0)  # max seed is fine
    with pytest.raises(ValueError, match="master_seed"):
        PermutationPlan(True, 0)


def test_permutation_marginals_are_uniform():
    # position 0 of a 4-permutation should hold each value ~ n/4 times
    n = 4000
    counts = np.zeros(4, dtype=int)
    for r in range(n):
        perm = PermutationPlan(7, r).rng("permute").permutation(4)
        counts[perm[0]] += 1
    # 3 sigma for a binomial(n, 1/4)
    expect = n / 4
    sigma = np.sqrt(n * 0.25 * 0.75)
    assert np.all(np.abs(counts - expect) < 3.5 * sigma)
