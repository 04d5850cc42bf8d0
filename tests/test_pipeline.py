import hashlib
import re
import warnings
from itertools import combinations

import numpy as np
import pytest

from permsig import linclass, permtest, pipeline
from permsig.autoenc import AeArchitecture, ae_encode, ae_fit
from permsig.dataset import (
    Batch,
    Dataset,
    permute_labels,
    scale_unit_interval,
    shuffle_rows,
    split_null_groups,
    stratified_folds,
    synth_effect,
)
from permsig.dimred import pls1_fit, reduce
from permsig.errors import ConfigError, DivergenceError, FitError
from permsig.linclass import calibrate, calibrated_probability, decision_values, svm_fit
from permsig.permtest import StudySettings, alt_scheme_study
from permsig.pipeline import PipelineSpec, fit_feature_maps
from permsig.rng import PermutationPlan
from permsig.validate import Scheme


def blobs(n_per=20, dim=4, effect=3.0, classes=2, seed=0):
    return synth_effect(n_per, dim, effect, PermutationPlan(seed, 0), classes=classes)


PLAN = PermutationPlan(0, 0)


def fit(model, d, plan=PLAN):
    """``model`` fitted on ``d`` alone, as a batch of one, which must not fail."""
    fitted = model.fit(Batch.of(d, [plan]))
    assert fitted.failures == {}
    return fitted


def failure(model, d, plan=PLAN) -> FitError:
    """The ``FitError`` that ``model`` records for ``d`` fitted alone, as a
    batch of one."""
    batch = Batch.of(d, [plan])
    fitted = model.fit(batch)
    assert list(fitted.failures) == [0]
    assert np.isfinite(fitted.probabilities(batch)).all()
    return fitted.failures[0]


def proba(fitted, x):
    """The class probabilities of rows ``x`` under the fit of one dataset."""
    rows = Dataset(x, np.zeros(len(x), dtype=np.int64), fitted.batch.class_count)
    return fitted.probabilities(Batch.of(rows, [PLAN]))[0]


def predict(fitted, x):
    return np.argmax(proba(fitted, x), axis=1)


def error(fitted, d):
    """The misclassified fraction of ``d`` under the fit of one dataset."""
    return fitted.errors(Batch.of(d, [PLAN]))[0]


def pairs(fitted, block=0):
    """The pair models of one block."""
    return fitted.blocks[block][2]


def test_separable_blobs_fit_perfectly():
    d = blobs()
    for reducer in ("pls", "pca", "none"):
        fitted = fit(PipelineSpec(reducer=reducer), d)
        assert error(fitted, d) == 0.0
        probs = proba(fitted, d.features)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)


def test_single_full_block_equals_default():
    d = blobs(effect=1.0)
    a = fit(PipelineSpec(reducer="pls"), d)
    b = fit(PipelineSpec(reducer="pls", region_blocks=(tuple(range(d.n_features)),)), d)
    np.testing.assert_array_equal(proba(a, d.features), proba(b, d.features))


def test_duplicate_blocks_average_to_single_block():
    d = blobs(effect=1.0)
    cols = tuple(range(d.n_features))
    single = fit(PipelineSpec(reducer="pls"), d)
    # two identical blocks can't exist (disjointness), so emulate by
    # doubling the feature columns and splitting them into two blocks
    x2 = np.hstack([d.features, d.features])
    d2 = Dataset(x2, d.labels, d.class_count)
    spec = PipelineSpec(reducer="pls", region_blocks=(cols, tuple(i + d.n_features for i in cols)))
    twin = fit(spec, d2)
    np.testing.assert_allclose(proba(twin, x2), proba(single, d.features), atol=1e-9)


def test_region_block_validation():
    d = blobs()
    with pytest.raises(ValueError, match="empty"):
        fit(PipelineSpec(region_blocks=((),)), d)
    with pytest.raises(ValueError, match="more than one"):
        fit(PipelineSpec(region_blocks=((0, 1), (1, 2))), d)
    with pytest.raises(ValueError, match="column 9"):
        fit(PipelineSpec(region_blocks=((0, 9),)), d)
    # blocks need not cover all columns
    fitted = fit(PipelineSpec(reducer="pls", region_blocks=((0, 1), (2,))), d)
    assert len(fitted.blocks) == 2


@pytest.mark.parametrize("blocks, message", [
    (((0, 0),), "column 0 appears twice in block 0"),
    (((0, 1), (2, 3, 2)), "column 2 appears twice in block 1"),
    (((0, 1), (1, 2)), "column 1 appears in more than one block"),
])
def test_a_repeated_column_names_its_fault(blocks, message):
    with pytest.raises(ConfigError) as info:
        PipelineSpec(region_blocks=blocks)
    assert info.value.field == "region_blocks" and info.value.message == message


def test_classifier_input_dim():
    assert PipelineSpec(reducer="pls").classifier_input_dim(10) == 1
    assert PipelineSpec(reducer="pca", pca_components=3).classifier_input_dim(10) == 3
    assert PipelineSpec(reducer="none").classifier_input_dim(10) == 10
    ae = AeArchitecture(layer_widths_encoder=(5, 2), epochs=1)
    assert PipelineSpec(ae=ae, reducer="none").classifier_input_dim(10) == 2
    spec = PipelineSpec(reducer="none", region_blocks=((0, 1, 2), (3,)))
    assert spec.classifier_input_dim(10) == 3


def test_one_feature_pair_stores_zero_weight_when_svm_optimum_is_zero():
    # 3 rows of class 1 with mean 0.5, inside the means of the 3 smallest
    # (0.13) and 3 largest (1.0) class-0 rows: the SVM's optimum is w = 0
    x = np.array([0.2, 0.5, 0.8, 0.0, 0.1, 0.3, 0.4, 0.6, 0.7, 0.9, 1.0, 1.1])[:, None]
    labels = np.array([1] * 3 + [0] * 9)
    pair = pairs(fit(PipelineSpec(reducer="none"), Dataset(x, labels, 2)))[0]
    np.testing.assert_array_equal(pair.svm.weights, [[0.0]])
    assert np.ptp(pair.probability(x)) == 0.0  # a constant margin: the base rate
    shifted = fit(PipelineSpec(reducer="none"), Dataset(x + 2.0 * labels[:, None], labels, 2))
    assert pairs(shifted)[0].svm.weights[0, 0] != 0.0


@pytest.mark.parametrize("seed, n_per_class, effect", [
    (seed, n_per_class, effect)
    for seed, (n_per_class, effect) in enumerate(
        (n, e) for n in (3, 5, 8, 13, 21) for e in (0.0, 0.3, 0.8, 1.5, 3.0)
    )
])
def test_one_feature_pipeline_matches_smo_then_calibration(seed, n_per_class, effect):
    """The exact one-feature SVM gives the pipeline the probabilities that
    SMO (on the same scores plus a zero column) and calibration give."""
    d = synth_effect(n_per_class, 1, effect, PermutationPlan(seed, 0))
    fitted = fit(PipelineSpec(reducer="none", svm_c=1.0), d)
    y = np.where(d.labels == 1, 1.0, -1.0)
    padded = np.c_[d.features, np.zeros(len(d.labels))][None]
    svm, svm_failures = svm_fit(padded, y[None], 1.0)
    margins = decision_values(svm, padded)
    cal, cal_failures = calibrate(margins, y[None])
    assert svm_failures == cal_failures == {}
    p = calibrated_probability(cal, margins)[0]
    np.testing.assert_allclose(proba(fitted, d.features)[:, 1], p, rtol=0, atol=1e-6)
    expected = np.argmax(np.column_stack([1.0 - p, p]), axis=1)
    np.testing.assert_array_equal(predict(fitted, d.features), expected)


def test_three_class_ovo_pipeline():
    d = blobs(classes=3, effect=4.0)
    fitted = fit(PipelineSpec(reducer="pls"), d)
    assert len(pairs(fitted)) == 3
    assert error(fitted, d) <= 0.05
    pred = predict(fitted, d.features)
    assert set(np.unique(pred)) <= {0, 1, 2}


def test_two_class_predict_thresholds_pair_probability():
    d = blobs(effect=1.0)
    fitted = fit(PipelineSpec(reducer="pls"), d)
    (p1,) = pairs(fitted)[0].probability(d.features)
    # class 1 only when its probability is strictly above 0.5
    np.testing.assert_array_equal(predict(fitted, d.features), (p1 > 0.5).astype(np.int64))
    np.testing.assert_allclose(proba(fitted, d.features)[:, 1], p1, atol=1e-15)


def test_predict_ties_go_to_lowest_class():
    fitted = fit(PipelineSpec(reducer="pls"), blobs())
    fitted.probabilities = lambda batch: np.array([[[0.5, 0.5], [0.4, 0.6], [0.6, 0.4]]])
    x = np.zeros((3, 4))
    assert error(fitted, Dataset(x, [0, 1, 0], 2)) == 0.0
    assert error(fitted, Dataset(x, [1, 1, 0], 2)) == 1 / 3


def test_three_class_probabilities_sum_to_one():
    d = blobs(classes=3, effect=1.0)
    probs = proba(fit(PipelineSpec(reducer="pls"), d), d.features)
    assert probs.shape == (d.n, 3)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_region_block_probabilities_are_block_means():
    d = blobs(classes=3, effect=1.0, dim=6)
    blocks = ((0, 1, 2), (3, 4, 5))
    fitted = fit(PipelineSpec(reducer="pls", region_blocks=blocks), d)
    per_block = [proba(fit(PipelineSpec(reducer="pls", region_blocks=(blk,)), d), d.features)
                 for blk in blocks]
    np.testing.assert_allclose(
        proba(fitted, d.features), (per_block[0] + per_block[1]) / 2.0, atol=1e-15
    )
    for probs in per_block:
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_single_class_pair_raises_fit_error():
    x = np.random.default_rng(0).standard_normal((10, 3))
    d = Dataset(x, np.zeros(10, dtype=np.int64), 2)  # class 1 never appears
    assert re.search("single-class", str(failure(PipelineSpec(reducer="none"), d)))


def test_missing_class_names_its_pair():
    x = np.random.default_rng(2).standard_normal((8, 3))
    d = Dataset(x, np.array([0, 1] * 4), 3)  # class 2 never appears
    assert re.search(r"\(0, 2\)", str(failure(PipelineSpec(reducer="none"), d)))


def test_fit_requires_two_classes():
    x = np.zeros((10, 3))
    d = Dataset(x, np.zeros(10, dtype=np.int64), 1)
    with pytest.raises(ValueError, match="two classes"):
        fit(PipelineSpec(), d)


def test_pca_rank_cap_raises_fit_error():
    d = blobs(n_per=3, dim=8)  # 6 rows, pair fits see few rows
    error = failure(PipelineSpec(reducer="pca", pca_components=6), d)
    assert re.search("rank cap 5 of 6 rows", str(error))


@pytest.mark.parametrize("spec, width", [
    (PipelineSpec(reducer="pca", pca_components=5), 2),
    (PipelineSpec(reducer="pca", pca_components=2, region_blocks=((0,), (1,))), 1),
    (PipelineSpec(ae=AeArchitecture((1,), epochs=1), reducer="pca", pca_components=2), 1),
])
def test_pca_wider_than_reducer_input_is_config_error(spec, width):
    d = blobs(n_per=30, dim=2)
    with pytest.raises(ConfigError, match=f"pca_components.*the {width} features") as info:
        fit(spec, d)
    assert info.value.field == "pca_components"


def test_ae_pipeline_smoke():
    d = blobs(n_per=15, dim=6, effect=3.0)
    ae = AeArchitecture(layer_widths_encoder=(4, 2), epochs=15, learning_rate=0.01,
                        validation_fraction=0.0)
    fitted = fit(PipelineSpec(ae=ae, reducer="pls"), d)
    (ae_model,) = fitted.blocks[0][1]
    assert ae_model is not None
    assert error(fitted, d) <= 0.4
    # deterministic under the same plan
    again = fit(PipelineSpec(ae=ae, reducer="pls"), d)
    np.testing.assert_array_equal(proba(fitted, d.features), proba(again, d.features))


def test_alt_pipeline_freezes_reducers():
    d = blobs(effect=2.0)
    spec = PipelineSpec(reducer="pls")
    alt = fit_feature_maps(spec, d, PLAN)
    assert alt.classifier_input_dim(d.n_features) == 1

    # refit on permuted labels: reducer must be the frozen one, so the
    # projection of the data is identical across refits
    fitted = alt.fit(permute_labels(d, [PermutationPlan(3, 1)]))
    assert fitted.failures == {}
    frozen = alt.reducers[0, (0, 1)]
    assert pairs(fitted)[0].reducer is frozen


def test_alt_pipeline_full_refit_differs():
    # sanity: the full pipeline refits its reducer on permuted labels,
    # so its projection direction differs from the frozen one
    d = blobs(effect=2.0, seed=5)
    spec = PipelineSpec(reducer="pls")
    alt = fit_feature_maps(spec, d, PLAN)
    full = spec.fit(permute_labels(d, [PermutationPlan(3, 2)]))
    assert full.failures == {}
    frozen = alt.reducers[0, (0, 1)]
    assert not np.allclose(pairs(full)[0].reducer.directions[0], frozen.directions)


@pytest.mark.parametrize("blocks", [None, ((0, 1, 2), (3, 4, 5))], ids=["one", "two"])
def test_frozen_pls_reducer_equals_the_full_fit_bit_for_bit(blocks):
    """A reducer frozen on the unpermuted data is the one a full fit of the
    same data fits, to the last bit: a reducer's bits depend on the memory
    layout of its block's features, which both paths take from ``_codes``."""
    spec = PipelineSpec(reducer="pls", region_blocks=blocks)
    for seed in range(20):
        d = synth_effect(20, 6, 1.0, PermutationPlan(seed, 0))
        frozen, full = fit_feature_maps(spec, d, PLAN).reducers, fit(spec, d)
        for bi in range(len(full.blocks)):
            red = pairs(full, bi)[0].reducer.select(0)
            assert np.array_equal(frozen[bi, (0, 1)].mean, red.mean), (seed, bi)
            assert np.array_equal(frozen[bi, (0, 1)].directions, red.directions), (seed, bi)


def test_an_alt_study_encodes_each_block_once(monkeypatch):
    """The frozen autoencoders encode their blocks once, in
    ``fit_feature_maps``; every chunk of observed iterations, null
    replicates or folds reuses those codes, and no fit grows them."""
    calls = []

    def counted(model, x):
        calls.append((model, x.shape[1]))
        return ae_encode(model, x)

    monkeypatch.setattr(pipeline, "ae_encode", counted)
    monkeypatch.setattr(permtest, "BATCH_BYTES", 0)  # chunks of MIN_BATCH columns
    arch = AeArchitecture(layer_widths_encoder=(2,), epochs=3, validation_fraction=0.0)
    spec = PipelineSpec(ae=arch, reducer="none", region_blocks=((0, 1, 2), (3, 4)))
    d = synth_effect(12, 5, 0.5, PermutationPlan(4, 0))
    for scheme in (Scheme.RUB, Scheme.KFOLD):
        calls.clear()
        alt_scheme_study(spec, d, StudySettings(scheme, m=9, k=3, master_seed=2, workers=1))
        assert [width for _, width in calls] == [3, 2], scheme
        assert calls[0][0] is not calls[1][0]
    alt = fit_feature_maps(spec, d, PLAN)
    codes = dict(alt.codes)
    assert len(codes) == 2
    calls.clear()
    for batch in (permute_labels(d, [PLAN]), shuffle_rows(d, [PLAN, PermutationPlan(0, 1)])):
        assert alt.fit(batch).errors(batch)
    assert calls == [] and alt.codes == codes


def test_alt_pipeline_width_check():
    d = blobs()
    spec = PipelineSpec(reducer="pca")
    alt = fit_feature_maps(spec, d, PLAN)
    narrow = Dataset(d.features[:, :2], d.labels, d.class_count)
    with pytest.raises(ValueError, match="width"):
        fit(alt, narrow)
    # a class pair the frozen reducers do not cover is a caller mistake too
    three = blobs(classes=3)
    with pytest.raises(ValueError, match=re.escape("no frozen reducer for class pair (0, 2)")):
        alt.fit(Batch.of(three, [PLAN]))


def test_feature_maps_pls_needs_labels():
    x = np.random.default_rng(1).standard_normal((10, 3))
    d = Dataset(x, np.zeros(10, dtype=np.int64), 1)
    with pytest.raises(ValueError, match="pls"):
        fit_feature_maps(PipelineSpec(reducer="pls"), d, PLAN)
    alt = fit_feature_maps(PipelineSpec(reducer="pca"), d, PLAN)
    # one-condition reducers cover the pair of a type-1 replicate's two groups
    assert list(alt.reducers) == [(0, (0, 1))]
    assert alt.reducers[0, (0, 1)] is not None


# The first 16 hex digits of the SHA-256 of a frozen fit: each frozen
# reducer's mean and directions, in block and then pair order, then the
# probabilities of an alt fit on four relabelings of the data.
# (reducer, autoencoder, region blocks, classes) -> digest
FROZEN_PINS = {
    ("none", False, False, 1): "f503fd7846d0007f",
    ("none", False, False, 2): "c728df5e498025f0",
    ("none", False, False, 3): "69878b2363e658e7",
    ("none", False, True, 1): "a5a62c446d203bc6",
    ("none", False, True, 2): "85a71ce6f2c0dce8",
    ("none", False, True, 3): "37419005498701fe",
    ("none", True, False, 1): "1f65167aaa653e27",
    ("none", True, False, 2): "87e4bd73351df912",
    ("none", True, False, 3): "a6d0aded628cab98",
    ("none", True, True, 1): "f6d745071a5deebe",
    ("none", True, True, 2): "1bb081c44a115f69",
    ("none", True, True, 3): "584a7fd471ffdbc6",
    ("pca", False, False, 1): "2a3e8f0bfd42aede",
    ("pca", False, False, 2): "aecfa7fb90da1410",
    ("pca", False, False, 3): "9839d2d8f4197a68",
    ("pca", False, True, 1): "bb0be6322e24c5e8",
    ("pca", False, True, 2): "fffa43bd3408b828",
    ("pca", False, True, 3): "164d561608a87e68",
    ("pca", True, False, 1): "368a25296cef28c7",
    ("pca", True, False, 2): "eb9ffa842a4696ac",
    ("pca", True, False, 3): "b02d4ac8e1f14280",
    ("pca", True, True, 1): "6c34180d7686ac70",
    ("pca", True, True, 2): "54f8cd82a32133b0",
    ("pca", True, True, 3): "46e571e40e52d789",
    ("pls", False, False, 2): "68b11e95b23bae6b",
    ("pls", False, False, 3): "045df0a614b6e6d6",
    ("pls", False, True, 2): "eda544181dd45bfd",
    ("pls", False, True, 3): "488b8bf6765c3753",
    ("pls", True, False, 2): "0bc041af615824bb",
    ("pls", True, False, 3): "ef1f574070067ac9",
    ("pls", True, True, 2): "5f5b2d932deb63cd",
    ("pls", True, True, 3): "361ea60c0b7f1f4e",
}


@pytest.mark.parametrize("case", sorted(FROZEN_PINS), ids=lambda c: "-".join(map(str, c)))
def test_frozen_fit_bits_pinned(case):
    """Frozen reducers depend on the memory layout of each block's copy of
    the features, so a layout change shows here even where no report moves."""
    reducer, ae, blocks, classes = case
    spec = PipelineSpec(
        ae=AeArchitecture(layer_widths_encoder=(3, 2), epochs=3, learning_rate=0.01,
                          validation_fraction=0.0) if ae else None,
        reducer=reducer, pca_components=2,
        region_blocks=((0, 1, 2), (3, 4, 5)) if blocks else None,
    )
    d = synth_effect(20 // classes * 2, 6, 1.0, PermutationPlan(17, 0), classes=classes)
    model = fit_feature_maps(spec, d, PLAN)
    plans = [PermutationPlan(19, r) for r in range(4)]
    batch = (split_null_groups if classes == 1 else permute_labels)(d, plans)
    digest = hashlib.sha256()
    for red in model.reducers.values():
        if red is not None:
            digest.update(red.mean.tobytes())
            digest.update(red.directions.tobytes())
    digest.update(model.fit(batch).probabilities(batch).tobytes())
    assert digest.hexdigest()[:16] == FROZEN_PINS[case]


def test_feature_maps_share_one_pca_reducer_across_pairs():
    d = blobs(classes=3, effect=2.0)
    alt = fit_feature_maps(PipelineSpec(reducer="pca"), d, PLAN)
    reducers = alt.reducers
    assert sorted(reducers) == [(0, (0, 1)), (0, (0, 2)), (0, (1, 2))]
    assert reducers[0, (0, 1)] is reducers[0, (0, 2)] is reducers[0, (1, 2)]
    fitted = fit(alt, d)
    assert all(pair.reducer is reducers[0, (0, 1)] for pair in pairs(fitted))


def test_spec_validation():
    with pytest.raises(ValueError):
        PipelineSpec(reducer="umap")
    with pytest.raises(ValueError):
        PipelineSpec(pca_components=0)
    with pytest.raises(ValueError):
        PipelineSpec(svm_c=0.0)


@pytest.mark.parametrize("field, value", [
    ("svm_c", True),
    ("svm_c", "1.0"),
    ("pca_components", True),
    ("pca_components", 2.0),
    ("region_blocks", ((0, True),)),
    ("region_blocks", ((0, 1.5),)),
    ("region_blocks", ()),
    ("region_blocks", "01"),
    ("svm_c", float("inf")),
    ("svm_c", float("nan")),
])
def test_spec_rejects_wrong_types(field, value):
    with pytest.raises(ValueError, match=field):
        PipelineSpec(**{field: value})


def test_predicting_other_features_keeps_none_of_their_codes():
    # The fit caches its own features' codes, one entry per block; those of
    # another features array last one call, with the bits they had when kept.
    spec = PipelineSpec(ae=AeArchitecture((2,), epochs=3), region_blocks=((0, 1), (2, 3)))
    fitted = fit(spec, blobs())
    assert len(fitted.codes) == 2
    digest = hashlib.sha256()
    for seed in (1, 2, 3):
        digest.update(fitted.probabilities(Batch.of(blobs(seed=seed), [PLAN])).tobytes())
        assert len(fitted.codes) == 2
    assert digest.hexdigest() == "ae3a35d3fccd50fd5913836de13f5abbf90e0dc279fbded62c597cbd061a4c69"


def test_probabilities_width_check():
    d = blobs()
    fitted = fit(PipelineSpec(reducer="pls"), d)
    with pytest.raises(ValueError, match=f"{d.n_features} features"):
        proba(fitted, np.zeros((2, d.n_features + 1)))


def test_probabilities_and_errors_check_the_column_count():
    # A 2-column fit asked about 3 columns gave the third a None entry,
    # and asked about 1 column raised a bare IndexError.
    d = blobs(effect=0.5)
    plans = [PermutationPlan(4, r) for r in range(3)]
    batch = permute_labels(d, plans)
    fitted = PipelineSpec(reducer="pls").fit(permute_labels(d, plans[:2]))
    assert fitted.failures == {}
    for other in (batch, permute_labels(d, plans[2:])):
        for method in (fitted.probabilities, fitted.errors):
            with pytest.raises(ValueError, match=f"the fit's 2 columns, got {other.size}"):
                method(other)


# ------------------------------------------------------- stacked pair problems


def _fit_one_pair_at_a_time(spec, d, reducers=None):
    """Each block's pair models of one dataset, fitted pair by pair in block
    and pair order, each stage as a batch of one; the first ``FitError`` is
    returned instead.  ``reducers`` holds frozen reducers by block index and pair."""
    blocks = []
    for bi, cols in enumerate(spec.resolve_blocks(d.n_features)):
        pairs = []
        for a, b in combinations(range(d.class_count), 2):
            rows = (d.labels == a) | (d.labels == b)
            x = d.features[:, list(cols)][rows][None]
            y = np.where(d.labels[rows] == b, 1.0, -1.0)[None]
            red, failures = None, {}
            if reducers is not None:
                red = reducers[bi, (a, b)]
            elif spec.reducer == "pls":
                red, failures = pls1_fit(x, y)
            scores = reduce(red, x) if red is not None else x
            if not failures:
                svm, failures = pipeline.svm_fit(scores, y, spec.svm_c)
            if not failures:
                cal, failures = pipeline.calibrate(decision_values(svm, scores), y)
            if failures:
                return failures[0]
            pairs.append((red, svm, cal))
        blocks.append(pairs)
    return blocks


def _assert_same_pairs(fitted, k, reference):
    """The pair models of fitted column ``k``, sliced from the batched ones,
    are those of ``reference``."""
    for (_, _, fitted_pairs), expected in zip(fitted.blocks, reference):
        assert len(fitted_pairs) == len(expected)
        for pair, (red, svm, cal) in zip(fitted_pairs, expected):
            if red is None:
                assert pair.reducer is None
            else:
                # A frozen reducer is every column's.
                got, red = pair.reducer.select(k), red.select(0)
                assert np.array_equal(got.directions, red.directions)
                assert np.array_equal(got.mean, red.mean)
            assert np.array_equal(pair.svm.weights[k], svm.weights[0])
            assert pair.svm.bias[k] == svm.bias[0]
            got = (pair.calibration.slope[k], pair.calibration.intercept[k])
            assert got == (cal.slope[0], cal.intercept[0])


def _counting(monkeypatch, name):
    """Record the column count of each call of the pipeline's ``name``."""
    calls = []
    fn = getattr(pipeline, name)

    def counted(*args, **kwargs):
        calls.append(len(args[1]))
        return fn(*args, **kwargs)

    monkeypatch.setattr(pipeline, name, counted)
    return calls


def _assert_fits_columns_alone(fitted, batch, fit_alone):
    """Each column's pair models, or its error, are those ``fit_alone(j)``
    gives; a failed column's models are finite."""
    for j in range(batch.size):
        expected = fit_alone(j)
        if isinstance(expected, FitError):
            assert str(fitted.failures[j]) == str(expected)
            for _, _, fitted_pairs in fitted.blocks:
                for pair in fitted_pairs:
                    assert np.isfinite(pair.svm.weights[j]).all() and np.isfinite(pair.svm.bias[j])
                    assert np.isfinite([pair.calibration.slope[j],
                                        pair.calibration.intercept[j]]).all()
        else:
            assert j not in fitted.failures
            _assert_same_pairs(fitted, j, expected)


@pytest.mark.parametrize("folds", [False, True])
@pytest.mark.parametrize("frozen", [False, True])
def test_batch_probabilities_equal_each_column_fitted_alone(monkeypatch, frozen, folds):
    """Each column of a 12-column batch gets, bit for bit, the probabilities
    its own dataset gets when fitted alone, or the same ``FitError``."""
    monkeypatch.setattr(linclass, "_MAX_ITER", 5)  # some columns fail
    labels = np.repeat(np.arange(3), (9, 9, 12))
    gen = np.random.Generator(np.random.Philox(2))
    d = Dataset(gen.standard_normal((labels.size, 5)) + 0.5 * labels[:, None], labels, 3)
    spec = PipelineSpec(reducer="pls", region_blocks=((0, 1), (2, 3, 4)))
    model = fit_feature_maps(spec, d, PLAN) if frozen else spec
    plans = [PermutationPlan(7, r) for r in range(12)]
    batch = permute_labels(d, plans)
    if folds:  # fit on the training rows of fold 0, and predict its test rows
        fold_of = stratified_folds(batch, 3)
        train = np.stack([np.flatnonzero(row != 0) for row in fold_of])
        test = np.stack([np.flatnonzero(row == 0) for row in fold_of])
        train_batch, test_batch = batch.subset(train), batch.subset(test)
    else:  # every column shares all rows of one features array
        train = test = np.tile(np.arange(d.n), (len(plans), 1))
        train_batch = test_batch = batch
    with np.errstate(all="ignore"):
        fitted = model.fit(train_batch)
        probs = fitted.probabilities(test_batch)
        assert 0 < len(fitted.failures) < len(plans)
        assert probs.shape == (len(plans), test.shape[1], 3) and np.isfinite(probs).all()
        for j, (labels, plan) in enumerate(zip(batch.labels, plans)):
            train_j = Dataset(d.features[train[j]], labels[train[j]], 3)
            if j in fitted.failures:
                assert str(failure(model, train_j, plan)) == str(fitted.failures[j])
                continue
            test_j = Dataset(d.features[test[j]], labels[test[j]], 3)
            (alone,) = fit(model, train_j, plan).probabilities(Batch.of(test_j, [plan]))
            assert np.array_equal(probs[j], alone)


def _ae_bits(model):
    """Every bit of an autoencoder's weights, biases and history."""
    return [a.tobytes() for a in model.weights + model.biases], repr(model.training_history)


# name: (columns, train on fold subsets, unit-scaled data, AeArchitecture settings)
AE_STACK_CASES = {
    "two_blocks": (1, False, True, {}),
    "32_columns": (32, False, True, {}),
    "kfold_subsets": (32, True, True, {}),
    "no_validation": (4, False, False, {"validation_fraction": 0.0}),
    # Adam's steps are about the learning rate, so at this one some
    # columns' losses overflow, each at an epoch of its own.  Column 3
    # fails in block 1 at epoch 17 and in block 0 at epoch 34, and keeps
    # block 0's error.
    "diverging": (16, False, False, {"layer_widths_encoder": (3,), "activation": "sigmoid",
                                     "output_activation": "identity", "learning_rate": 5e152,
                                     "batch_size": 1, "epochs": 40, "validation_fraction": 0.0}),
}


@pytest.mark.parametrize("case", sorted(AE_STACK_CASES))
def test_stacked_autoencoders_equal_each_fitted_alone(monkeypatch, case):
    """Every block and column of a batch trains in one ``ae_fit`` call, and
    each gets, bit for bit, the autoencoder a stack of it alone gets, or
    the ``DivergenceError`` of its first failing block."""
    columns, folds, unit, settings = AE_STACK_CASES[case]
    gen = np.random.Generator(np.random.Philox(4))
    d = Dataset(gen.standard_normal((20, 8)), np.repeat(np.arange(2), 10), 2)
    d = scale_unit_interval(d) if unit else d
    arch = AeArchitecture(**{"layer_widths_encoder": (3, 2), "epochs": 5, "batch_size": 4,
                             **settings})
    blocks = ((0, 1, 2, 3), (4, 5, 6, 7))
    spec = PipelineSpec(ae=arch, reducer="none", region_blocks=blocks)
    plans = [PermutationPlan(1, r) for r in range(columns)]
    batch = permute_labels(d, plans)
    if folds:  # each column's training rows of fold 0
        fold_of = stratified_folds(batch, 3)
        batch = batch.subset(np.stack([np.flatnonzero(row != 0) for row in fold_of]))
    stacks = []
    monkeypatch.setattr(pipeline, "ae_fit", lambda x, a, keys: stacks.append(len(keys))
                        or ae_fit(x, a, keys))
    extractors, failures = pipeline._fit_extractors(spec, batch, "fit")
    assert stacks == [2 * columns]
    for j, plan in enumerate(plans):
        first = None
        for bi, (cols, models) in enumerate(extractors):
            (model,), failed = ae_fit(batch.column_rows(j)[:, cols][None], arch,
                                      [(plan, f"fit.b{bi}.ae")])
            first = first or failed.get(0)
            if failed:  # zero parameters, so finite constant codes
                assert not any(p.any() for p in models[j].weights + models[j].biases)
                codes = ae_encode(models[j], batch.column_rows(j)[:, cols])
                assert np.isfinite(codes).all() and np.ptp(codes, axis=0).max() == 0.0
            else:
                assert _ae_bits(models[j]) == _ae_bits(model)
        if first is not None:
            assert isinstance(failures[j], DivergenceError)
            assert failures[j].epoch == first.epoch
        else:
            assert j not in failures
    if case == "diverging":
        assert 0 < len(failures) < columns
        assert len({exc.epoch for exc in failures.values()}) > 1


@pytest.mark.parametrize("folds", [False, True])
def test_columns_whose_autoencoders_diverge_stay_in_the_fit(folds):
    """A fit of columns whose autoencoders diverge, among columns whose
    autoencoders converge, holds every column: each gets a finite row of
    probabilities, and the error, ``DivergenceError`` included, that its
    own batch of one gets."""
    columns, _, _, settings = AE_STACK_CASES["diverging"]
    gen = np.random.Generator(np.random.Philox(4))
    d = Dataset(gen.standard_normal((20, 8)), np.repeat(np.arange(2), 10), 2)
    arch = AeArchitecture(**{"layer_widths_encoder": (3, 2), "epochs": 5, "batch_size": 4,
                             **settings})
    spec = PipelineSpec(ae=arch, reducer="none", region_blocks=((0, 1, 2, 3), (4, 5, 6, 7)))
    plans = [PermutationPlan(1, r) for r in range(columns)]
    batch = permute_labels(d, plans)
    fold_of = stratified_folds(batch, 3)
    train = np.stack([np.flatnonzero(row != 0) for row in fold_of])
    test = np.stack([np.flatnonzero(row == 0) for row in fold_of])

    def split(b, j=slice(None)):
        """The rows ``b``'s fit is given, and the rows it is asked about."""
        return (b.subset(train[j]), b.subset(test[j])) if folds else (b, b)

    fit_rows, rows = split(batch)
    fitted = spec.fit(fit_rows)
    probs, errors = fitted.probabilities(rows), fitted.errors(rows)
    assert probs.shape == (columns, rows.n, 2) and np.isfinite(probs).all()
    diverged = [j for j, e in enumerate(errors) if isinstance(e, DivergenceError)]
    assert 0 < len(diverged) < columns and sorted(fitted.failures) == diverged
    for j, plan in enumerate(plans):
        own_fit, own = split(permute_labels(d, [plan]), slice(j, j + 1))
        (alone,) = spec.fit(own_fit).errors(own)
        assert type(errors[j]) is type(alone) and str(errors[j]) == str(alone)


# Unequal class sizes: pairs differ in rows and +1 counts, and blocks of
# different widths give stacks of different widths.  (sizes, stacks per width)
STACKED_CASES = {
    "3class": ((6, 6, 9), 2),  # (0, 1): 12 rows, 6 of +1; (0, 2) and (1, 2): 15, 9
    "4class": ((5, 5, 7, 7), 3),  # 10/5; 12/7 four times; 14/7
}


@pytest.mark.parametrize("case", sorted(STACKED_CASES))
@pytest.mark.parametrize("reducer, frozen", [("none", False), ("pls", False), ("pls", True)])
def test_stacked_pair_fits_equal_per_pair_fits_bit_for_bit(monkeypatch, case, reducer, frozen):
    sizes, per_width = STACKED_CASES[case]
    gen = np.random.Generator(np.random.Philox(31))
    labels = np.repeat(np.arange(len(sizes)), sizes)
    d = Dataset(gen.standard_normal((labels.size, 5)) + 0.6 * labels[:, None], labels, len(sizes))
    spec = PipelineSpec(reducer=reducer, region_blocks=((0, 1), (2, 3, 4)))
    plans = [PermutationPlan(5, r) for r in range(12)]
    batch = permute_labels(d, plans)
    model = fit_feature_maps(spec, d, PLAN) if frozen else spec
    reducers = model.reducers if frozen else None
    svm_calls, cal_calls = _counting(monkeypatch, "svm_fit"), _counting(monkeypatch, "calibrate")
    with np.errstate(all="ignore"):
        fitted = model.fit(batch)
        # Exactly one call per stack, which fits every column of its
        # problems, failed ones too: with a reducer every width is 1, else
        # 2 and 3.  Each of the two blocks has a problem per class pair.
        stacks = per_width * (1 if reducer == "pls" else 2)
        assert len(svm_calls) == len(cal_calls) == stacks
        problems = 2 * len(list(combinations(range(len(sizes)), 2)))
        assert svm_calls == cal_calls and sum(svm_calls) == problems * batch.size
        _assert_fits_columns_alone(fitted, batch, lambda j: _fit_one_pair_at_a_time(
            spec, Dataset(d.features, batch.labels[j], d.class_count), reducers))
    assert batch.size - len(fitted.failures) > batch.size // 2


@pytest.mark.parametrize("reducer, max_passes, max_iter, sizes, seed", [
    # SVM and calibration failures of different pairs in both blocks
    ("none", 8, 6, (9, 12, 7), 2),
    # degenerate PLS directions on integer data, and calibration failures
    ("pls", None, 5, (4, 5, 3, 4), 1),
])
def test_failed_columns_carry_their_first_error(monkeypatch, reducer, max_passes, max_iter,
                                                sizes, seed):
    labels = np.repeat(np.arange(len(sizes)), sizes)
    gen = np.random.default_rng(seed)
    if reducer == "pls":
        x, blocks = gen.integers(0, 3, (labels.size, 2)).astype(float), ((0,), (1,))
    else:
        x, blocks = gen.standard_normal((labels.size, 5)) + labels[:, None], ((0, 1), (2, 3, 4))
    d = Dataset(x, labels, len(sizes))
    spec = PipelineSpec(reducer=reducer, region_blocks=blocks)
    if max_passes is not None:
        monkeypatch.setattr(linclass, "_MAX_PASSES", max_passes)
    monkeypatch.setattr(linclass, "_MAX_ITER", max_iter)
    plans = [PermutationPlan(seed, r) for r in range(16)]
    batch = permute_labels(d, plans)
    with np.errstate(all="ignore"):
        fitted = spec.fit(batch)
        _assert_fits_columns_alone(fitted, batch, lambda j: _fit_one_pair_at_a_time(
            spec, Dataset(x, batch.labels[j], d.class_count)))
    assert 0 < len(fitted.failures) < batch.size
    stages = {str(exc).split()[0] for exc in fitted.failures.values()}
    assert stages == ({"degenerate", "calibration"} if reducer == "pls" else {"SVM", "calibration"})


def _failed_stage_fit(case, monkeypatch):
    """A stage fit in which columns fail, as ``(failures, model)``, where
    ``model(j)`` gives the arrays of column ``j``'s model."""
    gen = np.random.Generator(np.random.Philox({"svm_pass_cap": 14, "svm_stuck_pass": 84,
                                                "calibrate": 73}.get(case, 15)))
    if case == "ae_divergence":  # test_autoenc's sigmoid_identity_diverging reference
        x = np.random.Generator(np.random.Philox(64)).standard_normal((16, 20, 4))
        arch = AeArchitecture((3,), activation="sigmoid", output_activation="identity",
                              epochs=20, learning_rate=5e152, batch_size=1,
                              validation_fraction=0.0)
        models, failures = ae_fit(x, arch, [(PermutationPlan(6, j), "ae") for j in range(16)])
        return failures, lambda j: models[j].weights + models[j].biases
    if case == "pls_degenerate":
        reducer, failures = pls1_fit(np.ones((6, 3)), np.tile([1.0, -1.0], (2, 3)))
        return failures, lambda j: [reducer.directions[j]]
    if case == "calibrate":
        margins, y = gen.standard_normal((4, 20)), np.tile([1.0, -1.0], (4, 10))
        margins[2] = np.nan
        with np.errstate(invalid="ignore"):
            cal, failures = calibrate(margins, y)
        return failures, lambda j: [cal.slope[j]]
    y, c = np.where(np.arange(40) % 2 == 0, 1.0, -1.0), 1.0
    if case == "svm_pass_cap":  # a separated column: the corner is not optimal
        x = gen.standard_normal((40, 2)) + 0.3 * y[:, None]
        monkeypatch.setattr(linclass, "_MAX_PASSES", 1)
    elif case == "svm_stuck_pass":  # see test_linclass.test_svm_stuck_pass_fails_at_once
        y = gen.permutation(np.where(np.arange(200) < 50, 1.0, -1.0))
        x = gen.standard_normal((200, 2)) + 0.8 * y[:, None]
        monkeypatch.setattr(linclass, "_SVM_TOL", 0.0)
    elif case == "svm_corner_overflow":
        x, c = gen.standard_normal((40, 3)), 1e300
    elif case == "svm_gap_overflow":  # the corner's w is zero: SMO's gap test overflows
        xp = gen.standard_normal((4, 3))
        x, y, c = np.concatenate([xp, xp / 2, xp / 2]), np.r_[np.ones(4), -np.ones(8)], 1e200
    else:  # one feature, whose score spread passes the float maximum
        x = np.where(y > 0, 1e308, -1e308)[:, None]
    svm, failures = svm_fit(x, np.stack([y, y]), c)
    return failures, lambda j: [svm.weights[j], svm.bias[j]]


@pytest.mark.parametrize("case", [
    "ae_divergence", "svm_pass_cap", "svm_stuck_pass", "svm_corner_overflow",
    "svm_gap_overflow", "one_feature_overflow", "pls_degenerate", "calibrate"])
def test_a_failed_column_gets_its_stage_zero_model(monkeypatch, case):
    # Every stage fit gives each column that fails in it the stage's zero
    # model: a calibration keeps its starting map, of slope 0.
    failures, model = _failed_stage_fit(case, monkeypatch)
    assert failures
    for j in failures:
        assert not any(np.any(a) for a in model(j)), j


def test_an_empty_class_pair_fails_at_its_first_problem(monkeypatch):
    # Three classes in two blocks, and class 2 absent: block 0's (0, 1) is
    # fitted, then its (0, 2) fails every column that has not failed yet.
    # Each pair's rows are chosen once per fit, and the error still comes
    # at the pair's first problem, after the problems before it.
    monkeypatch.setattr(linclass, "_MAX_PASSES", 8)
    monkeypatch.setattr(linclass, "_MAX_ITER", 6)
    labels = np.repeat(np.arange(2), (9, 12))
    x = np.random.default_rng(2).standard_normal((labels.size, 5)) + labels[:, None]
    spec = PipelineSpec(reducer="none", region_blocks=((0, 1), (2, 3, 4)))
    batch = permute_labels(Dataset(x, labels, 3), [PermutationPlan(2, r) for r in range(16)])
    fitted = spec.fit(batch)
    assert sorted(fitted.failures) == list(range(batch.size))
    empty = "class pair (0, 2) is empty or single-class in training data"
    first_block = PipelineSpec(reducer="none", region_blocks=((0, 1),))
    for j in range(batch.size):
        alone = _fit_one_pair_at_a_time(first_block, Dataset(x, batch.labels[j], 2))
        assert str(fitted.failures[j]) == (str(alone) if isinstance(alone, FitError) else empty)
    messages = [str(exc) for exc in fitted.failures.values()]
    assert 0 < messages.count(empty) < batch.size


# name: (spec, classes, calibration max_iter, frozen maps)
REUSE_CASES = {
    "pls": (PipelineSpec(reducer="pls"), 2, 100, False),
    "pca": (PipelineSpec(reducer="pca", pca_components=2), 2, 100, False),
    "none": (PipelineSpec(reducer="none"), 2, 100, False),
    "ae": (PipelineSpec(ae=AeArchitecture(layer_widths_encoder=(3, 2), epochs=3,
                                          learning_rate=0.01, validation_fraction=0.0),
                        reducer="none"), 2, 100, False),
    "blocks": (PipelineSpec(reducer="pls", region_blocks=((0, 1, 2), (3, 4, 5))), 2, 100, False),
    "frozen": (PipelineSpec(reducer="pca", region_blocks=((0, 1, 2), (3, 4, 5))), 2, 100, True),
    "failed": (PipelineSpec(reducer="pls"), 2, 4, False),
    "three_class": (PipelineSpec(reducer="pls"), 3, 100, False),
}


@pytest.mark.parametrize("case", sorted(REUSE_CASES))
def test_errors_on_the_fit_batch_reuse_its_margins_bit_for_bit(monkeypatch, case):
    """On the batch object a fit was given, a pair of all its rows takes
    the fit's margins; an equal batch that is another object computes them
    again, with the same bits."""
    spec, classes, max_iter, frozen = REUSE_CASES[case]
    monkeypatch.setattr(linclass, "_MAX_ITER", max_iter)
    d = synth_effect(30 // classes * 2, 6, 0.3, PermutationPlan(23, 0), classes=classes)
    model = fit_feature_maps(spec, d, PLAN) if frozen else spec
    batch = permute_labels(d, [PermutationPlan(29, r) for r in range(12)])
    equal = Batch(batch.features, batch.rows, batch.labels.copy(), batch.class_count, batch.plans)
    fitted = model.fit(batch)
    assert bool(fitted.failures) == (case == "failed") and len(fitted.failures) < batch.size
    calls = {"reduce": [], "decision_values": []}
    for name, seen in calls.items():
        monkeypatch.setattr(pipeline, name, lambda *args, _f=getattr(pipeline, name), _seen=seen:
                            _seen.append(None) or _f(*args))
    own_probs, own = fitted.probabilities(batch), fitted.errors(batch)
    assert (calls == {"reduce": [], "decision_values": []}) == (classes == 2)
    assert fitted.probabilities(equal).tobytes() == own_probs.tobytes()
    assert fitted.errors(equal) == own


@pytest.mark.parametrize("case", ["pls", "blocks", "frozen", "three_class"])
def test_only_a_fit_on_every_row_keeps_its_margins(case):
    """A resubstitution fit, of permuted labels or of shuffled rows, keeps
    the margins of each pair of all its rows; a fit on a training fold,
    never predicted on its own rows, keeps none."""
    spec, classes, _, frozen = REUSE_CASES[case]
    d = synth_effect(30 // classes * 2, 6, 0.3, PermutationPlan(23, 0), classes=classes)
    model = fit_feature_maps(spec, d, PLAN) if frozen else spec
    plans = [PermutationPlan(29, r) for r in range(12)]
    batch = permute_labels(d, plans)
    for resub in (batch, shuffle_rows(d, plans)):
        fitted = model.fit(resub)
        pairs = [(bi, pi) for bi, (_, _, ps) in enumerate(fitted.blocks) for pi in range(len(ps))]
        assert fitted.batch is resub
        assert sorted(fitted.margins) == (pairs if classes == 2 else [])
    train = np.stack([np.flatnonzero(row != 0) for row in stratified_folds(batch, 3)])
    assert model.fit(batch.subset(train)).margins == {}


def _diverging_autoencoder():
    """Features so large that an identity-output autoencoder's first loss
    is not finite, and that autoencoder."""
    gen = np.random.Generator(np.random.Philox(8))
    d = Dataset(gen.standard_normal((20, 4)) * 1e200, np.repeat(np.arange(2), 10), 2)
    return d, AeArchitecture(layer_widths_encoder=(2,), output_activation="identity", epochs=3,
                             validation_fraction=0.0)


def test_frozen_maps_raise_their_fit_errors():
    flat = Dataset(np.ones((20, 3)), np.repeat(np.arange(2), 10), 2)
    with pytest.raises(FitError, match="^degenerate PLS direction: covariance with labels is zero$"):
        fit_feature_maps(PipelineSpec(reducer="pls"), flat, PLAN)
    huge, arch = _diverging_autoencoder()
    with pytest.raises(DivergenceError, match="^non-finite training loss at epoch 0$"):
        fit_feature_maps(PipelineSpec(ae=arch, reducer="none"), huge, PLAN)


def test_diverging_autoencoders_raise_no_floating_point_warning():
    # numpy's default handling, every warning an error, and no errstate around the fits
    d, arch = _diverging_autoencoder()
    batch = permute_labels(d, [PermutationPlan(1, r) for r in range(3)])
    with warnings.catch_warnings(), np.errstate(over="warn", invalid="warn"):
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError, match="^non-finite training loss at epoch 0$"):
            fit_feature_maps(PipelineSpec(ae=arch, reducer="none"), d, PLAN)
        assert sorted(PipelineSpec(ae=arch, reducer="none").fit(batch).failures) == [0, 1, 2]


def test_a_batch_whose_every_autoencoder_diverges_fits_no_column():
    d, arch = _diverging_autoencoder()
    batch = permute_labels(d, [PermutationPlan(1, r) for r in range(3)])
    fitted = PipelineSpec(ae=arch, reducer="none").fit(batch)
    assert sorted(fitted.failures) == [0, 1, 2]
    errors = fitted.errors(batch)
    assert [type(e) for e in errors] == [DivergenceError] * 3
    assert {str(e) for e in errors} == {"non-finite training loss at epoch 0"}
    assert np.array_equal(fitted.probabilities(batch), np.zeros((3, 20, 2)))


@pytest.mark.parametrize("classes", [2, 3, 4])
def test_class_choice_is_the_first_arg_max(classes):
    # Scores on a grid of fifths tie often, and exactly.
    gen = np.random.Generator(np.random.Philox(31))
    scores = np.round(gen.random((6, 50, classes)) * 5.0) / 5.0
    votes = np.ascontiguousarray(np.moveaxis(scores, -1, 0))
    assert np.array_equal(pipeline._choose(votes), np.argmax(scores, axis=-1))
