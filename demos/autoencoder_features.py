"""Training the dense autoencoder and inspecting its code layer.

Fits a two-layer encoder on unit-scaled two-cluster data, prints the
loss trajectory, then shows that the two-dimensional code keeps the
clusters apart.
"""

import numpy as np

from permsig.autoenc import AeArchitecture, ae_encode, ae_fit
from permsig.dataset import scale_unit_interval, synth_effect
from permsig.rng import PermutationPlan

d = scale_unit_interval(synth_effect(80, 16, 2.0, PermutationPlan(21, 0), classes=2))
arch = AeArchitecture(
    layer_widths_encoder=(8, 2),
    epochs=60,
    learning_rate=0.01,
    batch_size=16,
)
(model,), _ = ae_fit(d.features[None], arch, [(PermutationPlan(22, 0), "ae")])

print("epoch   train mse   val mse")
for epoch in (0, 9, 19, 29, 39, 49, 59):
    train, val = model.training_history[epoch]
    print(f"{epoch + 1:>5} {train:>11.5f} {val:>9.5f}")

codes = ae_encode(model, d.features)
center_a = codes[d.labels == 0].mean(axis=0)
center_b = codes[d.labels == 1].mean(axis=0)
spread = 0.5 * (codes[d.labels == 0].std(axis=0) + codes[d.labels == 1].std(axis=0))
gap = np.linalg.norm(center_a - center_b) / np.linalg.norm(spread)

print()
print(f"code centers: class 0 {np.round(center_a, 3)}, class 1 {np.round(center_b, 3)}")
print(f"between-cluster gap / within-cluster spread = {gap:.2f}")
