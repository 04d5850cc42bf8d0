"""Permutation significance tests for learning pipelines.

Compares two routes to a p-value for "does this pipeline separate the
classes better than chance": k-fold cross-validation inside the
permutation loop, and resubstitution error corrected by an analytic
upper bound on its optimism.  Ships a small from-scratch modeling stack
(PLS, PCA, linear SVM, probability calibration, dense autoencoder) so
every refit inside the loop is cheap and fully deterministic.
"""

from .autoenc import (
    AeArchitecture,
    AeModel,
    ae_batch_loss,
    ae_encode,
    ae_fit,
    ae_gradient,
)
from .bounds import BoundSpec, empirical_bound, log_binomial_sum, vapnik_bound
from .dataset import (
    Dataset,
    FoldAssignment,
    load_csv,
    permute_labels,
    save_csv,
    scale_unit_interval,
    shuffle_rows,
    split_null_groups,
    stratified_folds,
    synth_effect,
    trim_to_even,
)
from .dimred import LinearReducer, pca_fit, pls1_fit, reduce
from .errors import ConfigError, DivergenceError, FitError
from .linclass import (
    Calibration,
    LinearSvm,
    calibrate,
    calibrated_probability,
    decision_values,
    svm_fit,
    svm_objective,
)
from .permtest import (
    NullDistribution,
    StudyReport,
    StudySettings,
    alt_scheme_study,
    fwe_rate,
    mc_stddev,
    null_distribution,
    omnibus_pvalues,
    p_value,
    power_study,
    type1_study,
)
from .pipeline import AltPipeline, FittedBatch, PipelineSpec, fit_feature_maps, fit_pipeline
from .rng import PermutationPlan
from .validate import (
    ErrorEstimate,
    GeneralizationDiagnostic,
    Scheme,
    generalization_ratio,
    kfold_errors,
    resub_error,
    rub_error,
)

__version__ = "0.1.0"

__all__ = [
    "AeArchitecture",
    "AeModel",
    "AltPipeline",
    "BoundSpec",
    "Calibration",
    "ConfigError",
    "Dataset",
    "DivergenceError",
    "ErrorEstimate",
    "FitError",
    "FittedBatch",
    "FoldAssignment",
    "GeneralizationDiagnostic",
    "LinearReducer",
    "LinearSvm",
    "NullDistribution",
    "PermutationPlan",
    "PipelineSpec",
    "Scheme",
    "StudyReport",
    "StudySettings",
    "ae_batch_loss",
    "ae_encode",
    "ae_fit",
    "ae_gradient",
    "alt_scheme_study",
    "calibrate",
    "calibrated_probability",
    "decision_values",
    "empirical_bound",
    "fit_feature_maps",
    "fit_pipeline",
    "fwe_rate",
    "generalization_ratio",
    "kfold_errors",
    "load_csv",
    "log_binomial_sum",
    "mc_stddev",
    "null_distribution",
    "omnibus_pvalues",
    "p_value",
    "pca_fit",
    "permute_labels",
    "pls1_fit",
    "power_study",
    "reduce",
    "resub_error",
    "rub_error",
    "save_csv",
    "scale_unit_interval",
    "shuffle_rows",
    "split_null_groups",
    "stratified_folds",
    "svm_fit",
    "svm_objective",
    "synth_effect",
    "trim_to_even",
    "type1_study",
    "vapnik_bound",
]
