"""Null-rejection counts of seven study designs, pinned as reported today.

Each cell runs 100 studies of m replicates on null data, each with master
seed ``study_seed + i``, and counts the p-values at or below alpha = 0.05.
A test that holds its level rejects about 5 of 100 (binomial sd 2.2).  The
data of study ``i`` are the labeled set ``synth_effect(20, d, 0.0,
PermutationPlan(data_seed + i, 0))`` of 20 + 20 rows, except in the
repeated-scan cell.  The counts below are what the studies report now,
defects included, so that any change to them shows:

* ``alt`` with a frozen ``pls`` reducer, RUB, d = 20, m = 99: 95 of 100.
  The reducer is fitted on the true labels, and the null permutes the
  labels against a projection chosen to separate them (ROADMAP item 13).
* ``power`` with ``pca``, RUB, d = 20, m = 99: 13 of 100.  The observed
  statistic, the mean of 20 equal errors, often rounds one ulp below
  them, and then the null values that tie it stop counting (item 10).
* ``power`` with ``pls``, k-fold with k = 5, d = 5, m = 99: 0 of 100, and
  no p below 0.125.  Each null replicate adds its k single-fold errors,
  while the observed statistic is the mean of 20·k of them, so it sits
  near the null's centre (item 14).
* ``power`` with ``pls``, resubstitution, d = 5, m = 99: 3 of 100.
* ``power`` refitting an autoencoder of widths (4, 2) for 10 epochs,
  reducer ``none``, RUB, d = 5, m = 49: 0 of 100, and no p below 0.08
  (1 of 100 at alpha = 0.10).  The observed statistic is a mean over 20
  draws, each null value one draw (item 14).
* ``alt`` with that autoencoder frozen, RUB, d = 5, m = 49: 6 of 100.
* ``power`` with ``pls``, resubstitution, d = 5, m = 99, on 10 + 10
  subjects scanned twice: ``synth_effect(10, 5, 0.0, ...)`` with each row
  repeated, plus noise of sd 0.3 drawn from ``default_rng(data_seed + i)``.
  23 of 100, and smallest p 0.01.  Shuffling scans one by one often gives a
  subject's two scans different labels, which the true labels never do,
  so the observed error sits below the null's (ROADMAP item 18); the
  row-exchangeable cell above gives 3.

One more check runs the ``power`` ``pca`` cell on two workers and finds
the same 100 p-values.  The changes that mend these defects re-record
the counts on purpose, each with its cause.
"""

import numpy as np
import pytest

from permsig.autoenc import AeArchitecture
from permsig.dataset import Dataset, synth_effect
from permsig.permtest import StudySettings, alt_scheme_study, power_study
from permsig.pipeline import PipelineSpec
from permsig.rng import PermutationPlan
from permsig.validate import Scheme

ALPHA = 0.05
STUDIES = 100
AE42 = PipelineSpec(ae=AeArchitecture((4, 2), epochs=10), reducer="none")


def rows(d, seed):
    """20 + 20 independent rows."""
    return synth_effect(20, d, 0.0, PermutationPlan(seed, 0))


def repeated_scans(d, seed):
    """10 + 10 subjects, each row twice with independent noise of sd 0.3."""
    base = synth_effect(10, d, 0.0, PermutationPlan(seed, 0))
    noise = np.random.default_rng(seed).normal(0.0, 0.3, (40, d))
    return Dataset(np.repeat(base.features, 2, axis=0) + noise, np.repeat(base.labels, 2), 2, None)


# name: (study, pipeline, data, d, data seed, study seed, m, settings, rejections, smallest p)
CELLS = {
    "alt_pls_rub_d20": (alt_scheme_study, PipelineSpec(reducer="pls"), rows, 20, 8000, 9300, 99,
                        {"scheme": Scheme.RUB}, 95, 0.01),
    "power_pca_rub_d20": (power_study, PipelineSpec(reducer="pca"), rows, 20, 8000, 9300, 99,
                          {"scheme": Scheme.RUB}, 13, 0.02),
    "power_pls_kfold5_d5": (power_study, PipelineSpec(reducer="pls"), rows, 5, 5000, 9000, 99,
                            {"scheme": Scheme.KFOLD, "k": 5}, 0, 0.125),
    "power_pls_resub_d5": (power_study, PipelineSpec(reducer="pls"), rows, 5, 5000, 9000, 99,
                           {"scheme": Scheme.RESUB}, 3, 0.02),
    "power_ae42_refit_rub_d5": (power_study, AE42, rows, 5, 7000, 9200, 49,
                                {"scheme": Scheme.RUB}, 0, 0.08),
    "alt_ae42_frozen_rub_d5": (alt_scheme_study, AE42, rows, 5, 7000, 9200, 49,
                               {"scheme": Scheme.RUB}, 6, 0.02),
    "power_pls_resub_d5_repeated_scans": (power_study, PipelineSpec(reducer="pls"), repeated_scans,
                                          5, 6000, 9400, 99, {"scheme": Scheme.RESUB}, 23, 0.01),
}


def p_values(name, workers=1):
    study, spec, data, d, data_seed, study_seed, m, settings, *_ = CELLS[name]
    return [
        study(spec, data(d, data_seed + i),
              StudySettings(m=m, alpha=ALPHA, master_seed=study_seed + i, workers=workers,
                            **settings)).p_value
        for i in range(STUDIES)
    ]


@pytest.mark.parametrize("name", CELLS)
def test_null_rejection_count_as_reported(name):
    *_, rejections, smallest = CELLS[name]
    p = p_values(name)
    assert sum(value <= ALPHA for value in p) == rejections
    assert min(p) == smallest


def test_null_cell_does_not_depend_on_worker_count():
    assert p_values("power_pca_rub_d20", workers=2) == p_values("power_pca_rub_d20")
