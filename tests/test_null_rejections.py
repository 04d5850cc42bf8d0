"""Null-rejection counts of three study designs, pinned as reported today.

Each cell runs 100 studies at m = 99 on null data, the labeled set
``synth_effect(20, d, 0.0, PermutationPlan(data_seed + i, 0))`` of
20 + 20 rows, each with master seed ``study_seed + i``, and counts the
p-values at or below alpha = 0.05.  A test that holds its level rejects
about 5 of 100 (binomial sd 2.2).  The counts below are what the studies
report now, defects included, so that any change to them shows:

* ``alt`` with a frozen ``pls`` reducer, RUB, d = 20: 95 of 100.  The
  reducer is fitted on the true labels, and the null permutes the labels
  against a projection chosen to separate them (ROADMAP item 13).
* ``power`` with ``pca``, RUB, d = 20: 13 of 100.  The observed
  statistic, the mean of 20 equal errors, often rounds one ulp below
  them, and then the null values that tie it stop counting (item 10).
* ``power`` with ``pls``, k-fold with k = 5, d = 5: 0 of 100, and no p
  below 0.125.  Each null replicate adds its k single-fold errors, while
  the observed statistic is the mean of 20·k of them, so it sits near the
  null's centre (item 14).

The changes that mend these defects re-record the counts on purpose,
each with its cause.
"""

import pytest

from permsig.dataset import synth_effect
from permsig.permtest import StudySettings, alt_scheme_study, power_study
from permsig.pipeline import PipelineSpec
from permsig.rng import PermutationPlan
from permsig.validate import Scheme

ALPHA = 0.05
STUDIES = 100

# name: (study, pipeline, d, data seed, study seed, settings, rejections, smallest p)
CELLS = {
    "alt_pls_rub_d20": (alt_scheme_study, PipelineSpec(reducer="pls"), 20, 8000, 9300,
                        {"scheme": Scheme.RUB}, 95, 0.01),
    "power_pca_rub_d20": (power_study, PipelineSpec(reducer="pca"), 20, 8000, 9300,
                          {"scheme": Scheme.RUB}, 13, 0.02),
    "power_pls_kfold5_d5": (power_study, PipelineSpec(reducer="pls"), 5, 5000, 9000,
                            {"scheme": Scheme.KFOLD, "k": 5}, 0, 0.125),
}


@pytest.mark.parametrize("name", CELLS)
def test_null_rejection_count_as_reported(name):
    study, spec, d, data_seed, study_seed, settings, rejections, smallest = CELLS[name]
    p = [
        study(spec, synth_effect(20, d, 0.0, PermutationPlan(data_seed + i, 0)),
              StudySettings(m=99, alpha=ALPHA, master_seed=study_seed + i, **settings)).p_value
        for i in range(STUDIES)
    ]
    assert sum(value <= ALPHA for value in p) == rejections
    assert min(p) == smallest
