import numpy as np
import pytest

from permsig.autoenc import AeArchitecture
from permsig.dataset import Dataset, permute_labels, synth_effect
from permsig.errors import FitError
from permsig.linclass import calibrate, calibrated_probability, decision_values, svm_fit
from permsig.pipeline import AltPipeline, PipelineSpec, fit_feature_maps, fit_pipeline
from permsig.rng import PermutationPlan


def blobs(n_per=20, dim=4, effect=3.0, classes=2, seed=0):
    return synth_effect(n_per, dim, effect, PermutationPlan(seed, 0), classes=classes)


PLAN = PermutationPlan(0, 0)


def test_separable_blobs_fit_perfectly():
    d = blobs()
    for reducer in ("pls", "pca", "none"):
        fitted = PipelineSpec(reducer=reducer).fit(d, PLAN)
        assert fitted.error(d.features, d.labels) == 0.0
        probs = fitted.predict_proba(d.features)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)


def test_single_full_block_equals_default():
    d = blobs(effect=1.0)
    a = PipelineSpec(reducer="pls").fit(d, PLAN)
    b = PipelineSpec(reducer="pls", region_blocks=(tuple(range(d.n_features)),)).fit(d, PLAN)
    np.testing.assert_array_equal(
        a.predict_proba(d.features), b.predict_proba(d.features)
    )


def test_duplicate_blocks_average_to_single_block():
    d = blobs(effect=1.0)
    cols = tuple(range(d.n_features))
    single = PipelineSpec(reducer="pls").fit(d, PLAN)
    # two identical blocks can't exist (disjointness), so emulate by
    # doubling the feature columns and splitting them into two blocks
    x2 = np.hstack([d.features, d.features])
    d2 = Dataset(x2, d.labels, d.class_count)
    twin = PipelineSpec(
        reducer="pls",
        region_blocks=(cols, tuple(i + d.n_features for i in cols)),
    ).fit(d2, PLAN)
    np.testing.assert_allclose(
        twin.predict_proba(x2), single.predict_proba(d.features), atol=1e-9
    )


def test_region_block_validation():
    d = blobs()
    with pytest.raises(ValueError, match="empty"):
        PipelineSpec(region_blocks=((),)).fit(d, PLAN)
    with pytest.raises(ValueError, match="more than one"):
        PipelineSpec(region_blocks=((0, 1), (1, 2))).fit(d, PLAN)
    with pytest.raises(ValueError, match="column 9"):
        PipelineSpec(region_blocks=((0, 9),)).fit(d, PLAN)
    # blocks need not cover all columns
    fitted = PipelineSpec(reducer="pls", region_blocks=((0, 1), (2,))).fit(d, PLAN)
    assert len(fitted.blocks) == 2


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
    pair = PipelineSpec(reducer="none").fit(Dataset(x, labels, 2), PLAN).blocks[0].pairs[0]
    np.testing.assert_array_equal(pair.svm.weights, [0.0])
    assert np.ptp(pair.probability(x)) == 0.0  # a constant margin: the base rate
    shifted = PipelineSpec(reducer="none").fit(Dataset(x + 2.0 * labels[:, None], labels, 2), PLAN)
    assert shifted.blocks[0].pairs[0].svm.weights[0] != 0.0


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
    fitted = PipelineSpec(reducer="none", svm_c=1.0).fit(d, PLAN)
    y = np.where(d.labels == 1, 1.0, -1.0)
    padded = np.c_[d.features, np.zeros(len(d.labels))]
    margins = decision_values(svm_fit(padded, y, 1.0), padded)
    p = calibrated_probability(calibrate(margins, y), margins)
    np.testing.assert_allclose(fitted.predict_proba(d.features)[:, 1], p, rtol=0, atol=1e-6)
    expected = np.argmax(np.column_stack([1.0 - p, p]), axis=1)
    np.testing.assert_array_equal(fitted.predict(d.features), expected)


def test_three_class_ovo_pipeline():
    d = blobs(classes=3, effect=4.0)
    fitted = PipelineSpec(reducer="pls").fit(d, PLAN)
    assert len(fitted.blocks[0].pairs) == 3
    assert fitted.error(d.features, d.labels) <= 0.05
    pred = fitted.predict(d.features)
    assert set(np.unique(pred)) <= {0, 1, 2}


def test_two_class_predict_thresholds_pair_probability():
    d = blobs(effect=1.0)
    fitted = PipelineSpec(reducer="pls").fit(d, PLAN)
    p1 = fitted.blocks[0].pairs[0].probability(d.features)
    # class 1 only when its probability is strictly above 0.5
    np.testing.assert_array_equal(fitted.predict(d.features), (p1 > 0.5).astype(np.int64))
    np.testing.assert_allclose(fitted.predict_proba(d.features)[:, 1], p1, atol=1e-15)


def test_predict_ties_go_to_lowest_class():
    fitted = PipelineSpec(reducer="pls").fit(blobs(), PLAN)
    fitted.predict_proba = lambda x: np.array([[0.5, 0.5], [0.4, 0.6], [0.6, 0.4]])
    np.testing.assert_array_equal(fitted.predict(np.zeros((3, 4))), [0, 1, 0])


def test_three_class_probabilities_sum_to_one():
    d = blobs(classes=3, effect=1.0)
    probs = PipelineSpec(reducer="pls").fit(d, PLAN).predict_proba(d.features)
    assert probs.shape == (d.n, 3)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_region_block_probabilities_are_block_means():
    d = blobs(classes=3, effect=1.0, dim=6)
    spec = PipelineSpec(reducer="pls", region_blocks=((0, 1, 2), (3, 4, 5)))
    fitted = spec.fit(d, PLAN)
    per_block = [blk.probability(d.features) for blk in fitted.blocks]
    np.testing.assert_allclose(
        fitted.predict_proba(d.features), (per_block[0] + per_block[1]) / 2.0, atol=1e-15
    )
    for probs in per_block:
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_single_class_pair_raises_fit_error():
    x = np.random.default_rng(0).standard_normal((10, 3))
    d = Dataset(x, np.zeros(10, dtype=np.int64), 2)  # class 1 never appears
    with pytest.raises(FitError, match="single-class"):
        fit_pipeline(PipelineSpec(reducer="none"), d, PLAN)


def test_missing_class_names_its_pair():
    x = np.random.default_rng(2).standard_normal((8, 3))
    d = Dataset(x, np.array([0, 1] * 4), 3)  # class 2 never appears
    with pytest.raises(FitError, match=r"\(0, 2\)"):
        fit_pipeline(PipelineSpec(reducer="none"), d, PLAN)


def test_fit_requires_two_classes():
    x = np.zeros((10, 3))
    d = Dataset(x, np.zeros(10, dtype=np.int64), 1)
    with pytest.raises(ValueError, match="two classes"):
        fit_pipeline(PipelineSpec(), d, PLAN)


def test_pca_rank_cap_raises_fit_error():
    d = blobs(n_per=3, dim=2)  # 6 rows, pair fits see few rows
    with pytest.raises(FitError, match="rank cap"):
        fit_pipeline(PipelineSpec(reducer="pca", pca_components=5), d, PLAN)


def test_ae_pipeline_smoke():
    d = blobs(n_per=15, dim=6, effect=3.0)
    ae = AeArchitecture(layer_widths_encoder=(4, 2), epochs=15, learning_rate=0.01,
                        validation_fraction=0.0)
    fitted = PipelineSpec(ae=ae, reducer="pls").fit(d, PLAN)
    assert fitted.blocks[0].ae_model is not None
    assert fitted.error(d.features, d.labels) <= 0.4
    # deterministic under the same plan
    again = PipelineSpec(ae=ae, reducer="pls").fit(d, PLAN)
    np.testing.assert_array_equal(
        fitted.predict_proba(d.features), again.predict_proba(d.features)
    )


def test_alt_pipeline_freezes_reducers():
    d = blobs(effect=2.0)
    spec = PipelineSpec(reducer="pls")
    maps = fit_feature_maps(spec, d, PLAN)
    alt = AltPipeline(maps, spec)
    assert alt.classifier_input_dim(d.n_features) == 1

    # refit on permuted labels: reducer must be the frozen one, so the
    # projection of the data is identical across refits
    d_perm = permute_labels(d, PermutationPlan(3, 1))
    fitted = alt.fit(d_perm, PermutationPlan(3, 1))
    frozen = maps.blocks[0].reducers[(0, 1)]
    assert fitted.blocks[0].pairs[0].reducer is frozen


def test_alt_pipeline_full_refit_differs():
    # sanity: the full pipeline refits its reducer on permuted labels,
    # so its projection direction differs from the frozen one
    d = blobs(effect=2.0, seed=5)
    spec = PipelineSpec(reducer="pls")
    maps = fit_feature_maps(spec, d, PLAN)
    d_perm = permute_labels(d, PermutationPlan(3, 2))
    full = spec.fit(d_perm, PermutationPlan(3, 2))
    frozen = maps.blocks[0].reducers[(0, 1)]
    assert not np.allclose(full.blocks[0].pairs[0].reducer.directions, frozen.directions)


def test_alt_pipeline_width_check():
    d = blobs()
    spec = PipelineSpec(reducer="pca")
    alt = AltPipeline(fit_feature_maps(spec, d, PLAN), spec)
    narrow = Dataset(d.features[:, :2], d.labels, d.class_count)
    with pytest.raises(ValueError, match="width"):
        alt.fit(narrow, PLAN)


def test_feature_maps_pls_needs_labels():
    x = np.random.default_rng(1).standard_normal((10, 3))
    d = Dataset(x, np.zeros(10, dtype=np.int64), 1)
    with pytest.raises(ValueError, match="pls"):
        fit_feature_maps(PipelineSpec(reducer="pls"), d, PLAN)
    maps = fit_feature_maps(PipelineSpec(reducer="pca"), d, PLAN)
    # one-condition maps cover the pair of a type-1 replicate's two groups
    assert list(maps.blocks[0].reducers) == [(0, 1)]
    assert maps.blocks[0].reducers[(0, 1)] is not None


def test_feature_maps_share_one_pca_reducer_across_pairs():
    d = blobs(classes=3, effect=2.0)
    maps = fit_feature_maps(PipelineSpec(reducer="pca"), d, PLAN)
    reducers = maps.blocks[0].reducers
    assert sorted(reducers) == [(0, 1), (0, 2), (1, 2)]
    assert reducers[(0, 1)] is reducers[(0, 2)] is reducers[(1, 2)]
    fitted = AltPipeline(maps, PipelineSpec(reducer="pca")).fit(d, PLAN)
    assert all(pair.reducer is reducers[(0, 1)] for pair in fitted.blocks[0].pairs)


def test_spec_validation():
    with pytest.raises(ValueError):
        PipelineSpec(reducer="umap")
    with pytest.raises(ValueError):
        PipelineSpec(pca_components=0)
    with pytest.raises(ValueError):
        PipelineSpec(svm_c=0.0)


def test_predict_proba_width_check():
    d = blobs()
    fitted = PipelineSpec(reducer="pls").fit(d, PLAN)
    with pytest.raises(ValueError):
        fitted.predict_proba(np.zeros((2, d.n_features + 1)))
