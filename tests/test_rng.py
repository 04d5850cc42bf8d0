import warnings

import numpy as np
import pytest

from permsig.autoenc import AeArchitecture, ae_fit
from permsig.dataset import Dataset, permute_labels, shuffle_rows, split_null_groups, \
    stratified_folds
from permsig.permtest import Scheme, StudySettings
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


@pytest.mark.parametrize("seed", [0, 11, 2**53 + 1, 2**63 + 5, 2**64 - 2048])
def test_numpy_integer_seeds_draw_the_int_seeds_streams(seed):
    seeds = [seed, np.uint64(seed)] + ([np.int64(seed)] if seed < 2**63 else [])
    for index, tag in ((0, "permute"), (3, "folds"), (3, "shuffle"), (2**48, "ae.init")):
        draws = [PermutationPlan(s, index).rng(tag).permutation(50) for s in seeds]
        for other in draws[1:]:
            np.testing.assert_array_equal(other, draws[0])
    for s in seeds:
        assert type(PermutationPlan(s, 3).master_seed) is int
        assert type(StudySettings(Scheme.RUB, master_seed=s).master_seed) is int


@pytest.mark.parametrize("seed", [0, 2**53 - 1, 2**53 + 1, 2**63 - 1, 2**63 + 1, 2**64 - 2])
@pytest.mark.filterwarnings("ignore:invalid value encountered in cast:RuntimeWarning")
def test_rekeyed_generator_draws_what_a_new_one_draws(seed):
    gen = PermutationPlan(1, 0).rng("other")
    for index, tag in ((0, "permute"), (7, "folds"), (2**48 + 3, "ae.split")):
        plan = PermutationPlan(seed, index)
        # One 32-bit draw leaves half a 64-bit word and a part-used block.
        gen.integers(0, 2**32, dtype=np.uint32)
        assert gen.bit_generator.state["has_uint32"] == 1
        assert gen.bit_generator.state["buffer_pos"] != 4
        assert plan.rng(tag, gen) is gen
        np.testing.assert_array_equal(gen.permutation(200), plan.rng(tag).permutation(200))
        plan.rng(tag, gen)
        np.testing.assert_array_equal(gen.standard_normal(9), plan.rng(tag).standard_normal(9))


def test_rekeying_warns_as_a_new_generator_does():
    # At the largest seed a key word below 2**63 makes the key float64,
    # and the seed rounds to 2**64, past the uint64 range.
    gen, warned = PermutationPlan(0, 0).rng("x"), 0
    for index in range(8):
        plan = PermutationPlan(2**64 - 1, index)
        with warnings.catch_warnings(record=True) as fresh:
            warnings.simplefilter("always")
            expected = plan.rng("permute").permutation(30)
        with warnings.catch_warnings(record=True) as rekeyed:
            warnings.simplefilter("always")
            got = plan.rng("permute", gen).permutation(30)
        assert [(w.category, str(w.message)) for w in rekeyed] == \
            [(w.category, str(w.message)) for w in fresh]
        np.testing.assert_array_equal(got, expected)
        warned += bool(fresh)
    assert 0 < warned < 8


def test_each_column_maker_takes_one_stream_per_plan(monkeypatch):
    calls = []
    rng = PermutationPlan.rng

    def counted(plan, tag, gen=None):
        calls.append((plan, tag, gen is not None))
        return rng(plan, tag, gen)

    monkeypatch.setattr(PermutationPlan, "rng", counted)
    plans = [PermutationPlan(5, r) for r in range(6)]
    labels = np.repeat([0, 1], [7, 5])
    d = Dataset(np.arange(12.0)[:, None], labels, 2)
    one = Dataset(d.features, np.zeros(12, dtype=int), 1)
    makers = {
        "permute": lambda: permute_labels(d, plans),
        "shuffle": lambda: shuffle_rows(d, plans),
        "split": lambda: split_null_groups(one, plans),
        "folds": lambda: stratified_folds(permute_labels(d, plans), 3),
    }
    for tag, make in makers.items():
        calls.clear()
        make()
        mine = [(plan, reused) for plan, t, reused in calls if t == tag]
        assert [plan for plan, _ in mine] == plans, tag
        # One generator serves the maker: each plan after the first re-keys it.
        assert [reused for _, reused in mine] == [False] + [True] * 5, tag
    calls.clear()
    arch = AeArchitecture((2,), epochs=2, batch_size=4)
    x = np.random.Generator(np.random.Philox(3)).random((3, 10, 4))
    ae_fit(x, arch, [(p, "ae") for p in plans[:3]])
    for part in ("init", "split", "batches"):
        assert [plan for plan, tag, _ in calls if tag == f"ae.{part}"] == plans[:3], part
    assert [reused for _, tag, reused in calls if tag == "ae.split"] == [False, True, True]
