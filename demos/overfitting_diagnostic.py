"""How far resubstitution undersells the true error.

Compares resubstitution against k-fold test error on a real effect and
on label-permuted data, and prints the relative-optimism diagnostic.
Raw resubstitution sits below the k-fold estimate; adding mu turns it
into a cautious estimate at or above k-fold instead.
"""

import numpy as np

from permsig.bounds import BoundSpec, empirical_bound
from permsig.dataset import (
    Batch, Dataset, permute_labels, scale_unit_interval, stratified_folds, synth_effect,
)
from permsig.pipeline import PipelineSpec
from permsig.rng import PermutationPlan
from permsig.validate import generalization_ratio, kfold_errors, resub_error

spec = PipelineSpec(reducer="pls")
d = scale_unit_interval(synth_effect(100, 10, 1.0, PermutationPlan(31, 0), classes=2))
mu = empirical_bound(BoundSpec(d.n, spec.classifier_input_dim(d.n_features), 0.05))

print(f"{'data':>10} {'resub':>7} {'kfold':>7} {'resub+mu':>9} {'optimism':>9}")
(permuted,) = permute_labels(d, [PermutationPlan(31, 1)]).labels
for name, labels in (("effect", d.labels), ("permuted", permuted)):
    batch = Batch.of(Dataset(d.features, labels, d.class_count), [PermutationPlan(32, 0)])
    (resub,) = resub_error(spec, batch)
    (tests,) = kfold_errors(spec, batch, stratified_folds(batch, 10))
    kfold = float(np.mean([t.value for t in tests]))
    optimism = generalization_ratio(resub.value, kfold)
    print(
        f"{name:>10} {resub.value:>7.3f} {kfold:>7.3f} "
        f"{resub.value + mu:>9.3f} {optimism:>9.2f}"
    )

print(f"\nmu = {mu:.4f} at n = {d.n}")
