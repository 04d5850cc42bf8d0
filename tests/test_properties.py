"""The null engine's promises, checked on fixed small cases.

* Any replicate recomputed alone, from its recorded index, gives the
  statistics the batched run gave it, bit for bit, retried ones too.
* Reports do not depend on the worker count, retries included.
* ``1 / (M + 1) <= p <= 1``, ``0 <= fwe <= 1``, and the histogram
  counts sum to the number of null values.
* A positive affine rescaling of a feature column leaves the report, and
  so every error count, unchanged.

Each case sets the batch byte budget so that its replicates are fitted
in chunks of ``WIDTH`` columns, and the cases use replicate counts below
it, equal to it, and not a multiple of it.
"""

import dataclasses
import json
import re

import numpy as np
import pytest

from permsig.autoenc import AeArchitecture
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
from permsig.errors import FitError
from permsig import permtest
from permsig.permtest import (
    EXTRACTOR_INDEX,
    OBSERVED_BASE,
    RETRY_STRIDE,
    StudySettings,
    _mu_for,
    alt_scheme_study,
    null_distribution,
    power_study,
    type1_study,
)
from permsig.pipeline import PipelineSpec, fit_feature_maps
from permsig.rng import PermutationPlan
from permsig.validate import Scheme, kfold_errors, resub_error

SEED = 9
WIDTH = 32


def batch_width(monkeypatch, data, m):
    """Sets the batch byte budget so that ``data``'s batches hold ``WIDTH``
    columns; returns the sizes of the batches of ``m`` columns."""
    monkeypatch.setattr(permtest, "BATCH_BYTES", WIDTH * 8 * data.n * data.n_features)
    return [len(chunk) for chunk in permtest._batches(m, data)]


def replay(pipeline, data, plan, scheme, k, mu, labeling):
    """One replicate's statistics, recomputed alone through the public API
    as a batch of one; the ``FitError`` of a failed fit is returned.

    A shuffled replicate is refitted on a copy of the data with its rows in
    the drawn order, not on the row indices a study gathers through.
    """
    if labeling == "split":
        batch = split_null_groups(data, [plan])
    elif labeling == "permute":
        batch = permute_labels(data, [plan])
    else:
        (order,) = shuffle_rows(data, [plan]).rows
        copy = Dataset(data.features[order], data.labels[order], data.class_count)
        batch = Batch.of(copy, [plan])
    if scheme is Scheme.KFOLD:
        (tests,) = kfold_errors(pipeline, batch, stratified_folds(batch, k))
        return tests if isinstance(tests, FitError) else [e.value for e in tests]
    (est,) = resub_error(pipeline, batch)
    if isinstance(est, FitError):
        return est
    return [est.value + mu if scheme is Scheme.RUB else est.value]


def _labeled(classes=2, n_per=10, dim=4):
    return scale_unit_interval(synth_effect(n_per, dim, 0.8, PermutationPlan(3, 0), classes=classes))


def _alt(spec, data):
    return fit_feature_maps(spec, data, PermutationPlan(SEED, EXTRACTOR_INDEX))


AE = AeArchitecture((2,), epochs=2, validation_fraction=0.0)

REPLAY_CASES = {
    # name: (pipeline factory, data factory, m, scheme, labeling)
    "pls_rub_3class": (lambda d: PipelineSpec(reducer="pls"), lambda: _labeled(3), 40, Scheme.RUB, "permute"),
    "pca2_resub": (lambda d: PipelineSpec(reducer="pca", pca_components=2), _labeled, 12, Scheme.RESUB,
                   "permute"),
    "none_kfold_split": (lambda d: PipelineSpec(reducer="none"), lambda: _labeled(1, 24, 3), 9,
                         Scheme.KFOLD, "split"),
    "alt_pls_kfold_3class": (lambda d: _alt(PipelineSpec(reducer="pls"), d), lambda: _labeled(3), 8,
                             Scheme.KFOLD, "permute"),
    "ae_blocks_rub": (lambda d: PipelineSpec(ae=AE, reducer="pls", region_blocks=((0, 1), (2, 3))),
                      _labeled, 6, Scheme.RUB, "permute"),
    "alt_ae_rub": (lambda d: _alt(PipelineSpec(ae=AE, reducer="none"), d), lambda: _labeled(3), 35,
                   Scheme.RUB, "permute"),
    # Integer scores: about one labeling in nine leaves the PLS covariance
    # exactly zero, so several replicates are retried.
    "pls_retried": (lambda d: PipelineSpec(reducer="pls"),
                    lambda: Dataset(np.arange(8.0)[:, None], np.repeat([0, 1], 4), 2), 40,
                    Scheme.RUB, "permute"),
    # The same with three classes: a labeling is retried when any of its
    # pairs' PLS covariance is zero, so failures come from different pairs
    # of one stacked fit.
    "pls_retried_3class": (lambda d: PipelineSpec(reducer="pls"),
                           lambda: Dataset(np.arange(9.0)[:, None], np.repeat([0, 1, 2], 3), 3),
                           40, Scheme.RUB, "permute"),
}
RETRIED = sorted(name for name in REPLAY_CASES if "retried" in name)


@pytest.mark.parametrize("name", sorted(REPLAY_CASES))
def test_replicates_replay_alone_bit_for_bit(monkeypatch, name):
    make_pipeline, make_data, m, scheme, labeling = REPLAY_CASES[name]
    data = make_data()
    pipeline = make_pipeline(data)
    k = 3
    assert batch_width(monkeypatch, data, m) == ([WIDTH, m - WIDTH] if m > WIDTH else [m])
    mu = _mu_for(pipeline, data, scheme, 0.05)
    null = null_distribution(pipeline, data, StudySettings(scheme, m=m, k=k, master_seed=SEED),
                             mu=mu)
    width = k if scheme is Scheme.KFOLD else 1
    retried = sorted({r for r, _, _ in null.retries})
    chosen = set(np.random.default_rng(len(name)).choice(m, size=4, replace=False)) | set(retried)
    for r in sorted(chosen):
        plan = PermutationPlan(SEED, null.replicate_indices[r])
        got = replay(pipeline, data, plan, scheme, k, mu, labeling)
        assert got == list(null.statistics[r * width:(r + 1) * width]), r
    if name in RETRIED:
        assert retried
        for r, attempt, message in null.retries:
            failed = PermutationPlan(SEED, r + attempt * RETRY_STRIDE)
            out = replay(pipeline, data, failed, scheme, k, mu, labeling)
            assert isinstance(out, FitError) and re.search(re.escape(message), str(out))


# Minibatches smaller than the data and a validation split make an
# autoencoder's training depend on the order of its rows.
SHUFFLED_AE = AeArchitecture((2,), epochs=5, learning_rate=0.05, batch_size=4)

# name: (study, spec, scheme)
OBSERVED_CASES = {
    "pls_rub": (power_study, PipelineSpec(reducer="pls"), Scheme.RUB),
    "ae_refit_rub": (power_study, PipelineSpec(ae=SHUFFLED_AE, reducer="none",
                                               region_blocks=((0, 1), (2, 3))), Scheme.RUB),
    "ae_refit_kfold": (power_study, PipelineSpec(ae=SHUFFLED_AE, reducer="pls"), Scheme.KFOLD),
    "alt_ae_rub": (alt_scheme_study, PipelineSpec(ae=SHUFFLED_AE, reducer="none"), Scheme.RUB),
    "alt_ae_kfold": (alt_scheme_study, PipelineSpec(ae=SHUFFLED_AE, reducer="pls"), Scheme.KFOLD),
}


def test_observed_iterations_replay_alone_bit_for_bit(monkeypatch):
    data = _labeled(3)
    monkeypatch.setattr(permtest, "BATCH_BYTES", 0)  # batches of MIN_BATCH columns
    assert [len(chunk) for chunk in permtest._batches(7, data)] == [4, 3]
    for name, (study, spec, scheme) in OBSERVED_CASES.items():
        settings = StudySettings(scheme=scheme, m=5, k=3, master_seed=SEED, observed_iterations=7)
        report = study(spec, data, settings)
        pipeline = _alt(spec, data) if study is alt_scheme_study else spec
        mu = _mu_for(pipeline, data, scheme, 0.05)
        observed = []
        for i in range(7):
            observed += replay(pipeline, data, PermutationPlan(SEED, OBSERVED_BASE + i), scheme, 3,
                               mu, "shuffle")
        assert len(observed) == 7 * (3 if scheme is Scheme.KFOLD else 1), name
        assert report.observed_mean == float(np.mean(observed)), name


@pytest.mark.parametrize("name", RETRIED)
def test_retried_reports_do_not_depend_on_worker_count(monkeypatch, name):
    make_pipeline, make_data, m, scheme, labeling = REPLAY_CASES[name]
    # so that two workers share the chunks
    assert batch_width(monkeypatch, make_data(), m) == [WIDTH, m - WIDTH]
    docs = []
    for workers in (1, 2):
        settings = StudySettings(scheme=scheme, m=m, master_seed=SEED, observed_iterations=3,
                                 workers=workers)
        data = make_data()
        docs.append(json.dumps(power_study(make_pipeline(data), data, settings).to_json_dict()))
    assert docs[0] == docs[1]
    assert json.loads(docs[0])["retries"]


STUDIES = {
    "power": (power_study, lambda: synth_effect(9, 4, 0.7, PermutationPlan(1, 0), classes=3),
              PipelineSpec(reducer="pls")),
    "type1": (type1_study, lambda: synth_effect(13, 4, 0.0, PermutationPlan(2, 0), classes=1),
              PipelineSpec(reducer="none")),
    "alt": (alt_scheme_study, lambda: synth_effect(12, 4, 0.7, PermutationPlan(4, 0)),
            PipelineSpec(reducer="pca", pca_components=2)),
}
REPLICATES = (5, WIDTH, WIDTH + 9)


@pytest.mark.parametrize("i, study, scheme", [
    (i, study, scheme)
    for i, (study, scheme) in enumerate(
        (s, sc) for s in sorted(STUDIES) for sc in (Scheme.RESUB, Scheme.RUB, Scheme.KFOLD)
    )
])
def test_reports_keep_their_promises_at_any_worker_count(monkeypatch, i, study, scheme):
    run, make_data, spec = STUDIES[study]
    m = REPLICATES[i % len(REPLICATES)]
    settings = StudySettings(scheme=scheme, m=m, k=3, master_seed=SEED + i, observed_iterations=3)
    # The study fits its prepared data: a type-1 set of odd size loses a row.
    split = batch_width(monkeypatch, permtest._prepared(make_data(), settings), m)
    assert split == ([WIDTH, 9] if m > WIDTH else [m])
    serial = run(spec, make_data(), settings)
    pooled = run(spec, make_data(), dataclasses.replace(settings, workers=2))
    doc = serial.to_json_dict()
    assert json.dumps(doc, sort_keys=True) == json.dumps(pooled.to_json_dict(), sort_keys=True)
    total = m * (3 if scheme is Scheme.KFOLD else 1)
    assert serial.m == total == sum(doc["histogram"]["counts"])
    if serial.p_value is not None:
        assert 1.0 / (total + 1) <= serial.p_value <= 1.0
    else:
        assert 0.0 <= serial.fwe_rate <= 1.0


# (pipeline, column, scale, shift): a positive affine map of one column
RESCALINGS = [
    (spec, col, scale, shift)
    for spec in (PipelineSpec(reducer="pls"), PipelineSpec(reducer="pca", pca_components=2),
                 PipelineSpec(reducer="none"), PipelineSpec(ae=AE, reducer="none"))
    for col, scale, shift in ((0, 7.5, -3.0), (3, 0.1, 1e4))
]


@pytest.mark.parametrize("i, spec, col, scale, shift",
                         [(i, *case) for i, case in enumerate(RESCALINGS)])
def test_affine_rescaling_of_a_column_keeps_the_report(i, spec, col, scale, shift):
    """Error counts do not change under ``x -> scale * x + shift`` of a column.

    Studies map every column onto [0, 1] first, which undoes the map up to
    rounding: ``scale * x + shift`` is rounded to within ``eps * (|scale * x|
    + |shift|)``, so the scaled columns agree to within a few ulps of
    ``(max|x| + |shift| / scale) / range(x)``, up to 2.3e-12 here for scale
    0.1 and shift 1e4.  Fits on the two can differ in their last bits, and an error
    count changes only where a row's vote lies that close to a tie.  None
    of these cases has such a row, so the reports, which hold error
    fractions, are identical.
    """
    data = synth_effect(10, 4, 0.6, PermutationPlan(i, 0), classes=2 + i % 2)
    x = data.features.copy()
    x[:, col] = scale * x[:, col] + shift
    moved = Dataset(x, data.labels, data.class_count)
    column = data.features[:, col]
    gap = np.abs(scale_unit_interval(data).features - scale_unit_interval(moved).features).max()
    eps = np.finfo(float).eps
    assert gap <= 4 * eps * (1.0 + (np.abs(column).max() + abs(shift) / scale) / np.ptp(column))
    study = alt_scheme_study if i % 4 >= 2 else power_study
    scheme = (Scheme.RUB, Scheme.RESUB, Scheme.KFOLD)[i % 3]
    settings = StudySettings(scheme=scheme, m=20, k=3, master_seed=SEED, observed_iterations=3)
    assert study(spec, data, settings).to_json_dict() == study(spec, moved, settings).to_json_dict()
