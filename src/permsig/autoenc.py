"""Dense autoencoder trained by backpropagation with Adam.

The encoder maps the input through ``layer_widths_encoder`` (the last
width is the code size); the decoder mirrors the encoder widths in
reverse back to the input width.  Hidden layers share one activation;
the output layer uses a sigmoid when the training data lies in [0, 1]
and the identity otherwise (overridable).

Training is deterministic given ``(x, architecture, plan)``: parameter
initialization, the validation split, and every epoch's batch order are
all drawn from plan-keyed streams.  The validation split is monitored
only — it is scored each epoch but never trained on and never stops
training early.

Loss is the mean squared error over all entries of a batch, i.e.
``mean((x - reconstruction)**2)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, check, is_int, is_real
from .rng import PermutationPlan

_ACTIVATIONS = ("sigmoid", "relu", "identity")

_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


@dataclass(frozen=True)
class AeArchitecture:
    """Shape and training settings of an autoencoder.

    Parameters
    ----------
    layer_widths_encoder : tuple of int
        Encoder layer widths; the last entry is the code width.
        ``(400, 100, 20)`` on 722 inputs builds
        722-400-100-20-100-400-722.
    activation : str
        Hidden-layer activation: ``sigmoid``, ``relu`` or ``identity``.
    output_activation : str
        ``auto`` (sigmoid when inputs lie in [0, 1], identity otherwise),
        ``sigmoid``, or ``identity``.
    epochs, learning_rate, batch_size : training settings.
    validation_fraction : float in [0, 1)
        Fraction of rows held out for monitoring (never trained on).
    """

    layer_widths_encoder: tuple[int, ...]
    activation: str = "sigmoid"
    output_activation: str = "auto"
    epochs: int = 50
    learning_rate: float = 0.001
    batch_size: int = 32
    validation_fraction: float = 0.3

    def __post_init__(self):
        widths = self.layer_widths_encoder
        check(
            isinstance(widths, (list, tuple)) and len(widths) > 0
            and all(is_int(w) and w >= 1 for w in widths),
            "layer_widths_encoder",
            "must be a non-empty list of positive integers",
        )
        object.__setattr__(self, "layer_widths_encoder", tuple(int(w) for w in widths))
        check(self.activation in _ACTIVATIONS, "activation", f"must be one of {_ACTIVATIONS}")
        check(self.output_activation in ("auto",) + _ACTIVATIONS, "output_activation",
              "must be auto, sigmoid or identity")
        for name in ("epochs", "batch_size"):
            value = getattr(self, name)
            check(is_int(value) and value >= 1, name, "must be a positive integer")
        lr, vf = self.learning_rate, self.validation_fraction
        check(is_real(lr) and lr > 0, "learning_rate", "must be a positive number")
        check(is_real(vf) and 0.0 <= vf < 1.0, "validation_fraction", "must lie in [0, 1)")

    @property
    def z_dim(self) -> int:
        return self.layer_widths_encoder[-1]


@dataclass(frozen=True)
class AeModel:
    """Fitted autoencoder: per-layer weights/biases plus training history."""

    architecture: AeArchitecture
    input_width: int
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    output_activation: str
    training_history: tuple[tuple[float, float], ...]

    @property
    def encoder_layers(self) -> int:
        return len(self.architecture.layer_widths_encoder)


def _full_widths(arch: AeArchitecture, input_width: int) -> list[int]:
    enc = list(arch.layer_widths_encoder)
    return [input_width] + enc + list(reversed(enc[:-1])) + [input_width]


def _layer_activations(m_arch: AeArchitecture, n_layers: int, out_act: str) -> list[str]:
    return [m_arch.activation] * (n_layers - 1) + [out_act]


def _apply(kind: str, s: np.ndarray) -> np.ndarray:
    if kind == "sigmoid":
        return 1.0 / (1.0 + np.exp(-s))
    if kind == "relu":
        return np.maximum(s, 0.0)
    return s


def _apply_grad(kind: str, s: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Derivative of the activation at pre-activation s (output a)."""
    if kind == "sigmoid":
        return a * (1.0 - a)
    if kind == "relu":
        return (s > 0.0).astype(np.float64)
    return np.ones_like(s)


def _forward(m: AeModel, x: np.ndarray):
    """All layer outputs and pre-activations for a batch."""
    acts = _layer_activations(m.architecture, len(m.weights), m.output_activation)
    outputs = [x]
    pre = []
    a = x
    for w, b, kind in zip(m.weights, m.biases, acts):
        s = a @ w + b
        a = _apply(kind, s)
        pre.append(s)
        outputs.append(a)
    return outputs, pre, acts


def ae_batch_loss(m: AeModel, batch: np.ndarray) -> float:
    """Mean squared reconstruction error over all entries of ``batch``."""
    batch = np.asarray(batch, dtype=np.float64)
    outputs, _, _ = _forward(m, batch)
    return float(np.mean((outputs[-1] - batch) ** 2))


def ae_gradient(m: AeModel, batch: np.ndarray):
    """Analytic gradient of the batch MSE for every weight and bias.

    Returns ``(weight_grads, bias_grads)`` with the same shapes as the
    model parameters.  Scaling the batch loss by a constant scales every
    entry by the same constant.
    """
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != m.input_width:
        raise ValueError(f"batch must be (b, {m.input_width})")
    outputs, pre, acts = _forward(m, batch)
    recon = outputs[-1]
    delta = 2.0 * (recon - batch) / recon.size
    delta = delta * _apply_grad(acts[-1], pre[-1], recon)
    w_grads: list[np.ndarray] = [None] * len(m.weights)
    b_grads: list[np.ndarray] = [None] * len(m.weights)
    for layer in range(len(m.weights) - 1, -1, -1):
        w_grads[layer] = outputs[layer].T @ delta
        b_grads[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ m.weights[layer].T) * _apply_grad(
                acts[layer - 1], pre[layer - 1], outputs[layer]
            )
    return tuple(w_grads), tuple(b_grads)


def ae_fit(
    x: np.ndarray,
    arch: AeArchitecture,
    plan: PermutationPlan,
    tag: str = "ae",
) -> AeModel:
    """Train an autoencoder on the rows of ``x``.

    Parameters initialize uniformly in ``[-a, a]`` with
    ``a = sqrt(6 / (fan_in + fan_out))``; biases start at zero.  Adam
    with the usual moment constants updates after every minibatch; the
    final partial batch is kept.  The recorded history has exactly
    ``epochs`` entries of ``(train_mse, val_mse)`` (``val_mse`` is NaN
    when ``validation_fraction`` rounds to zero rows).

    Raises
    ------
    ValueError
        If the code width exceeds the input width or ``x`` is malformed.
    DivergenceError
        If a recorded loss stops being finite; carries the epoch index.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("x must be (n, N) with n >= 2")
    n, width = x.shape
    if arch.z_dim > width:
        raise ValueError(f"code width {arch.z_dim} exceeds input width {width}")
    out_act = arch.output_activation
    if out_act == "auto":
        out_act = "sigmoid" if (x.min() >= 0.0 and x.max() <= 1.0) else "identity"

    widths = _full_widths(arch, width)
    init_gen = plan.rng(f"{tag}.init")
    weights = []
    biases = []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        a = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(init_gen.uniform(-a, a, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))

    n_val = int(np.floor(n * arch.validation_fraction))
    split_order = plan.rng(f"{tag}.split").permutation(n)
    train_rows = split_order[: n - n_val]
    val_rows = split_order[n - n_val :]
    x_train = x[train_rows]
    x_val = x[val_rows]

    model = AeModel(arch, width, tuple(weights), tuple(biases), out_act, ())
    m_w = [np.zeros_like(w) for w in weights]
    v_w = [np.zeros_like(w) for w in weights]
    m_b = [np.zeros_like(b) for b in biases]
    v_b = [np.zeros_like(b) for b in biases]
    step = 0
    lr = arch.learning_rate

    batch_gen = plan.rng(f"{tag}.batches")
    history: list[tuple[float, float]] = []
    for epoch in range(arch.epochs):
        order = batch_gen.permutation(x_train.shape[0])
        for start in range(0, x_train.shape[0], arch.batch_size):
            batch = x_train[order[start : start + arch.batch_size]]
            w_grads, b_grads = ae_gradient(model, batch)
            step += 1
            corr1 = 1.0 - _ADAM_BETA1**step
            corr2 = 1.0 - _ADAM_BETA2**step
            new_w = []
            new_b = []
            for idx in range(len(weights)):
                m_w[idx] = _ADAM_BETA1 * m_w[idx] + (1 - _ADAM_BETA1) * w_grads[idx]
                v_w[idx] = _ADAM_BETA2 * v_w[idx] + (1 - _ADAM_BETA2) * w_grads[idx] ** 2
                new_w.append(
                    model.weights[idx]
                    - lr * (m_w[idx] / corr1) / (np.sqrt(v_w[idx] / corr2) + _ADAM_EPS)
                )
                m_b[idx] = _ADAM_BETA1 * m_b[idx] + (1 - _ADAM_BETA1) * b_grads[idx]
                v_b[idx] = _ADAM_BETA2 * v_b[idx] + (1 - _ADAM_BETA2) * b_grads[idx] ** 2
                new_b.append(
                    model.biases[idx]
                    - lr * (m_b[idx] / corr1) / (np.sqrt(v_b[idx] / corr2) + _ADAM_EPS)
                )
            model = AeModel(arch, width, tuple(new_w), tuple(new_b), out_act, ())
        train_mse = ae_batch_loss(model, x_train)
        val_mse = ae_batch_loss(model, x_val) if n_val else float("nan")
        if not np.isfinite(train_mse) or (n_val and not np.isfinite(val_mse)):
            raise DivergenceError(epoch)
        history.append((train_mse, val_mse))
    return AeModel(arch, width, model.weights, model.biases, out_act, tuple(history))


def ae_encode(m: AeModel, x: np.ndarray) -> np.ndarray:
    """Map rows of ``x`` to their code-layer activations."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != m.input_width:
        raise ValueError(f"x must be (n, {m.input_width})")
    a = x
    for layer in range(m.encoder_layers):
        s = a @ m.weights[layer] + m.biases[layer]
        a = _apply(m.architecture.activation, s)
    return a

