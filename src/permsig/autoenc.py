"""Dense autoencoder trained by backpropagation with Adam.

The encoder maps the input through ``layer_widths_encoder`` (the last
width is the code size); the decoder mirrors the encoder widths in
reverse back to the input width.  Hidden layers share one activation;
the output layer uses a sigmoid when the training data lies in [0, 1]
and the identity otherwise (overridable).

Training is deterministic given ``(x, architecture, plan, tag)``:
parameter initialization, the validation split, and every epoch's batch
order are all drawn from plan-keyed streams.  The validation split is
monitored only — it is scored each epoch but never trained on and never
stops training early.

:func:`ae_fit` trains a stack of columns at once, one autoencoder per
column: the columns' parameters and Adam moments are stacked along a
leading axis and every product is one stacked ``matmul``.  A column's
arithmetic stays its own, so it gets the bits it gets in a stack of
one, and a column whose loss stops being finite is recorded as failed
without stopping the others.  :class:`AeModel`, :func:`ae_encode`,
:func:`ae_batch_loss` and :func:`ae_gradient` are per model.

Loss is the mean squared error over all entries of a batch, i.e.
``mean((x - reconstruction)**2)``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, check, is_int, is_real
from .rng import PermutationPlan

_ACTIVATIONS = ("sigmoid", "relu", "identity")

_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8

# A stack whose training buffers would pass this many bytes trains in
# parts, so memory stays near one column's when the columns are large.
_STACK_BYTES = 1 << 26


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
        check(is_real(lr) and 0 < lr < np.inf, "learning_rate", "must be a positive finite number")
        check(is_real(vf) and 0.0 <= vf < 1.0, "validation_fraction", "must lie in [0, 1)")

    @property
    def z_dim(self) -> int:
        return self.layer_widths_encoder[-1]

    def output_for(self, x: np.ndarray) -> str:
        """The output activation of a model trained on the rows ``x``."""
        if self.output_activation != "auto":
            return self.output_activation
        return "sigmoid" if (x.min() >= 0.0 and x.max() <= 1.0) else "identity"


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


def _forward(weights, biases, acts, x: np.ndarray):
    """All layer outputs and pre-activations for a batch.

    Works on one model's (n, w) rows or, with every parameter stacked
    along a leading axis, on a stack of models' (R, n, w) rows.
    """
    outputs = [x]
    pre = []
    a = x
    for w, b, kind in zip(weights, biases, acts):
        s = a @ w + b
        a = _apply(kind, s)
        pre.append(s)
        outputs.append(a)
    return outputs, pre


def _gradient(weights, biases, acts, batch: np.ndarray):
    """Gradient of each model's batch MSE for every weight and bias.

    Parameters and ``batch`` may carry leading stack axes; each model's
    gradient then comes from its own slices alone, with the products and
    sums a single model takes, so it has the bits of that model alone.
    """
    outputs, pre = _forward(weights, biases, acts, batch)
    recon = outputs[-1]
    delta = 2.0 * (recon - batch) / (batch.shape[-2] * batch.shape[-1])
    delta = delta * _apply_grad(acts[-1], pre[-1], recon)
    w_grads: list[np.ndarray] = [None] * len(weights)
    b_grads: list[np.ndarray] = [None] * len(weights)
    for layer in range(len(weights) - 1, -1, -1):
        w_grads[layer] = np.swapaxes(outputs[layer], -1, -2) @ delta
        b_grads[layer] = delta.sum(axis=-2).reshape(biases[layer].shape)
        if layer > 0:
            delta = (delta @ np.swapaxes(weights[layer], -1, -2)) * _apply_grad(
                acts[layer - 1], pre[layer - 1], outputs[layer]
            )
    return w_grads, b_grads


def _activations(m: AeModel) -> list[str]:
    return _layer_activations(m.architecture, len(m.weights), m.output_activation)


def ae_batch_loss(m: AeModel, batch: np.ndarray) -> float:
    """Mean squared reconstruction error over all entries of ``batch``."""
    batch = np.asarray(batch, dtype=np.float64)
    outputs, _ = _forward(m.weights, m.biases, _activations(m), batch)
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
    w_grads, b_grads = _gradient(m.weights, m.biases, _activations(m), batch)
    return tuple(w_grads), tuple(b_grads)


def ae_fit(
    x: np.ndarray,
    arch: AeArchitecture,
    keys: Sequence[tuple[PermutationPlan, str]],
) -> tuple[list[AeModel], dict[int, DivergenceError]]:
    """Train one autoencoder on the rows of each column of a stack.

    ``x`` is (R, n, w): column ``j`` trains on the rows ``x[j]`` with the
    random streams of ``keys[j]``, a ``(plan, tag)`` pair.  Every column
    must resolve to the same output activation (see
    :meth:`AeArchitecture.output_for`).  The columns train together, each
    parameter and Adam moment stacked along a leading axis, and every
    column gets the bits it gets trained alone.  A stack whose training
    buffers would pass ``_STACK_BYTES`` trains in parts of as many
    columns as fit, at least one.

    Parameters initialize uniformly in ``[-a, a]`` with
    ``a = sqrt(6 / (fan_in + fan_out))``; biases start at zero.  Adam
    with the usual moment constants updates after every minibatch; the
    final partial batch is kept.  The recorded history has exactly
    ``epochs`` entries of ``(train_mse, val_mse)`` (``val_mse`` is NaN
    when ``validation_fraction`` rounds to zero rows).

    Returns ``(models, failures)``: each column's model, and a
    ``DivergenceError`` carrying the epoch for each column whose recorded
    loss stopped being finite.  Such a column leaves the stack at the end
    of that epoch; its model is the one it left with, and its history
    holds the epochs before.

    Raises
    ------
    ValueError
        If the code width exceeds the input width, ``x`` is malformed, or
        the columns resolve to different output activations.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[1] < 2:
        raise ValueError("x must be (R, n, N) with n >= 2")
    if len(keys) != x.shape[0]:
        raise ValueError("need one (plan, tag) per column of x")
    size, n, width = x.shape
    if arch.z_dim > width:
        raise ValueError(f"code width {arch.z_dim} exceeds input width {width}")
    out_act = arch.output_for(x[0])
    if any(arch.output_for(col) != out_act for col in x[1:]):
        raise ValueError("the columns of x resolve to different output activations")

    widths = _full_widths(arch, width)
    # Adam's view: every weight, then every bias
    shapes = list(zip(widths[:-1], widths[1:])) + [(1, fan_out) for fan_out in widths[1:]]
    n_params = sum(a * b for a, b in shapes)
    # a column's parameters, gradient and moments, and its rows' activations
    part = max(1, _STACK_BYTES // (8 * (4 * n_params + 3 * n * sum(widths))))
    if size > part:
        models, failures = [], {}
        for at in range(0, size, part):
            fitted, failed = ae_fit(x[at : at + part], arch, keys[at : at + part])
            models += fitted
            failures.update((at + k, exc) for k, exc in failed.items())
        return models, failures
    layers = len(widths) - 1
    theta = np.zeros((size, n_params))
    init_gens = [plan.rng(f"{tag}.init") for plan, tag in keys]
    for w, (fan_in, fan_out) in zip(_views(theta, shapes), shapes[:layers]):
        a = np.sqrt(6.0 / (fan_in + fan_out))
        for k, g in enumerate(init_gens):
            w[k] = g.uniform(-a, a, size=(fan_in, fan_out))

    n_val = int(np.floor(n * arch.validation_fraction))
    n_train = n - n_val
    split = np.stack([plan.rng(f"{tag}.split").permutation(n) for plan, tag in keys])
    stack = np.arange(size)[:, None]
    x_train = x[stack, split[:, :n_train]]
    x_val = x[stack, split[:, n_train:]]

    acts = _layer_activations(arch, layers, out_act)
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    step = 0
    lr = arch.learning_rate

    batch_gens = [plan.rng(f"{tag}.batches") for plan, tag in keys]
    live = list(range(size))  # the stack's columns, in stack order
    histories: list[list[tuple[float, float]]] = [[] for _ in range(size)]
    models: list[AeModel | None] = [None] * size
    failures: dict[int, DivergenceError] = {}

    def leave(k: int, j: int) -> None:
        """Record stack position ``k``'s model as column ``j``'s."""
        params = _views(theta[k : k + 1], shapes)
        models[j] = AeModel(arch, width, tuple(p[0] for p in params[:layers]),
                            tuple(p[0, 0] for p in params[layers:]), out_act,
                            tuple(histories[j]))

    for epoch in range(arch.epochs):
        params = _views(theta, shapes)
        grad = np.empty_like(theta)
        grads = _views(grad, shapes)
        order = np.stack([batch_gens[j].permutation(n_train) for j in live])
        stack = np.arange(len(live))[:, None]
        for start in range(0, n_train, arch.batch_size):
            batch = x_train[stack, order[:, start : start + arch.batch_size]]
            w_grads, b_grads = _gradient(params[:layers], params[layers:], acts, batch)
            for into, g in zip(grads, w_grads + b_grads):
                into[...] = g
            step += 1
            corr1 = 1.0 - _ADAM_BETA1**step
            corr2 = 1.0 - _ADAM_BETA2**step
            # In place, with the operations and order of
            # m = b1 * m + (1 - b1) * g, v = b2 * v + (1 - b2) * g**2 and
            # theta = theta - lr * (m / corr1) / (sqrt(v / corr2) + eps).
            m *= _ADAM_BETA1
            m += (1 - _ADAM_BETA1) * grad
            v *= _ADAM_BETA2
            v += (1 - _ADAM_BETA2) * grad**2
            theta -= lr * (m / corr1) / (np.sqrt(v / corr2) + _ADAM_EPS)
        train_mse = _stack_losses(params, layers, acts, x_train)
        val_mse = (_stack_losses(params, layers, acts, x_val) if n_val
                   else [float("nan")] * len(live))
        keep = []
        for k, j in enumerate(live):
            if np.isfinite(train_mse[k]) and (not n_val or np.isfinite(val_mse[k])):
                histories[j].append((train_mse[k], val_mse[k]))
                keep.append(k)
            else:
                failures[j] = DivergenceError(epoch)
                leave(k, j)
        if len(keep) < len(live):
            live = [live[k] for k in keep]
            theta, m, v, x_train, x_val = (a[keep] for a in (theta, m, v, x_train, x_val))
        if not live:
            break
    for k, j in enumerate(live):
        leave(k, j)
    return models, failures


def _views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Views of each column's parameters in its row of ``flat``, one
    (R, rows, cols) array per shape; each column's slice is C-contiguous."""
    out, at = [], 0
    for rows, cols in shapes:
        out.append(flat[:, at : at + rows * cols].reshape(len(flat), rows, cols))
        at += rows * cols
    return out


def _stack_losses(params, layers: int, acts, x: np.ndarray) -> list[float]:
    """Each stacked model's mean squared error over its own rows of ``x``."""
    outputs, _ = _forward(params[:layers], params[layers:], acts, x)
    sq = (outputs[-1] - x) ** 2
    return [float(np.mean(col)) for col in sq]


def ae_encode(m: AeModel, x: np.ndarray) -> np.ndarray:
    """Map rows of ``x`` to their code-layer activations."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != m.input_width:
        raise ValueError(f"x must be (n, {m.input_width})")
    layers = m.encoder_layers
    outputs, _ = _forward(m.weights[:layers], m.biases[:layers],
                          (m.architecture.activation,) * layers, x)
    return outputs[-1]

