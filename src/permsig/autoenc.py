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
and stays in the stack, unread, so the stack keeps one shape for the
whole fit; it ends with the zero model.  One Adam step writes only into
buffers made once per fit (each layer's pre-activations, outputs and
deltas, each gradient's view of the flat gradient, two temporaries for
the moment and parameter updates), with the operations and order of
the textbook expressions, so its bits are those of new arrays.
:class:`AeModel`, :func:`ae_encode`, :func:`ae_batch_loss` and
:func:`ae_gradient` are per model.

Loss is the mean squared error over all entries of a batch, i.e.
``mean((x - reconstruction)**2)``.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, check, is_int, is_real
from .rng import PermutationPlan

_ACTIVATIONS = ("sigmoid", "relu", "identity")

_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8

# Entered once per public call: a diverging fit ends in its DivergenceError, not a warning.
_QUIET = functools.partial(np.errstate, over="ignore", invalid="ignore")

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


def _buffers(lead: tuple[int, ...], widths: Sequence[int], acts) -> list[tuple]:
    """Per layer, for rows of shape ``lead``: its pre-activations, outputs (the
    pre-activations for the identity), deltas, and a transposed view of its outputs."""
    out = []
    for width, kind in zip(widths[1:], acts):
        s = np.empty(lead + (width,))
        a = s if kind == "identity" else np.empty_like(s)
        out.append((s, a, np.empty_like(s), a.swapaxes(-1, -2)))
    return out


def _outputs(lead: tuple[int, ...], widths: Sequence[int]) -> list[tuple]:
    """Per layer, one buffer for rows of shape ``lead``: outputs overwrite pre-activations."""
    return [(s, s) for s in (np.empty(lead + (width,)) for width in widths[1:])]


def _forward(weights, biases, acts, x: np.ndarray, bufs) -> np.ndarray:
    """The last layer's outputs for rows ``x``, each layer's pre-activations and
    outputs written to the first two buffers of its ``bufs`` entry: one model's
    (n, w) rows or, with every parameter stacked, a stack of models' (R, n, w)."""
    a = x
    for w, b, kind, (s, out, *_) in zip(weights, biases, acts, bufs):
        np.matmul(a, w, out=s)
        s += b
        if kind == "sigmoid":
            np.exp(np.negative(s, out=out), out=out)
            np.divide(1.0, np.add(out, 1.0, out=out), out=out)  # 1 / (1 + e^-s)
        elif kind == "relu":
            np.maximum(s, 0.0, out=out)
        a = out
    return a


def _gradient(weights, biases, acts, batch: np.ndarray, grads, bufs, transposed) -> None:
    """Write into ``grads`` (every weight's, then every bias's) the gradient
    of each model's batch MSE, overwriting the :func:`_buffers` ``bufs``;
    ``transposed`` holds the weights' transposes.

    Parameters and ``batch`` may carry leading stack axes; each model's
    gradient then comes from its own slices alone, with the products and
    sums a single model takes, so it has the bits of that model alone.
    """
    layers = len(weights)
    delta = np.subtract(_forward(weights, biases, acts, batch, bufs), batch, out=bufs[-1][2])
    delta *= 2.0
    delta /= batch.shape[-2] * batch.shape[-1]
    for layer in range(layers - 1, -1, -1):
        s, a, delta, _ = bufs[layer]
        # times the activation's derivative at s (output a); the identity's is 1
        if acts[layer] == "sigmoid":
            delta *= np.multiply(np.subtract(1.0, a, out=s), a, out=s)
        elif acts[layer] == "relu":
            delta *= np.greater(s, 0.0, out=a)
        np.matmul(bufs[layer - 1][3] if layer else batch.swapaxes(-1, -2), delta, out=grads[layer])
        np.add.reduce(delta, axis=-2, keepdims=True, out=grads[layers + layer])
        if layer:
            np.matmul(delta, transposed[layer], out=bufs[layer - 1][2])


def _activations(m: AeModel) -> list[str]:
    return _layer_activations(m.architecture, len(m.weights), m.output_activation)


def ae_batch_loss(m: AeModel, batch: np.ndarray) -> float:
    """Mean squared reconstruction error over all entries of ``batch``."""
    batch, acts = np.asarray(batch, dtype=np.float64), _activations(m)
    bufs = _outputs(batch.shape[:-1], _full_widths(m.architecture, m.input_width))
    with _QUIET():
        return float(np.mean((_forward(m.weights, m.biases, acts, batch, bufs) - batch) ** 2))


def ae_gradient(m: AeModel, batch: np.ndarray):
    """Analytic gradient of the batch MSE for every weight and bias.

    Returns ``(weight_grads, bias_grads)`` with the same shapes as the
    model parameters.  Scaling the batch loss by a constant scales every
    entry by the same constant.
    """
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != m.input_width:
        raise ValueError(f"batch must be (b, {m.input_width})")
    acts = _activations(m)
    grads = [np.empty_like(w) for w in m.weights] + [np.empty((1,) + b.shape) for b in m.biases]
    bufs = _buffers(batch.shape[:-1], _full_widths(m.architecture, m.input_width), acts)
    with _QUIET():
        _gradient(m.weights, m.biases, acts, batch, grads, bufs, [w.T for w in m.weights])
    return tuple(grads[: len(m.weights)]), tuple(g[0] for g in grads[len(m.weights) :])


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
    loss stopped being finite.  Such a column stays in the stack, unread,
    and gets the zero model: every weight and bias is zero, and its
    history holds the epochs before.  The fit ends early only when every
    column has diverged.

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
    # a column's parameters, gradient, moments and temporaries, and its rows' activations
    part = max(1, _STACK_BYTES // (8 * (6 * n_params + 3 * n * sum(widths))))
    if size > part:
        models, failures = [], {}
        for at in range(0, size, part):
            fitted, failed = ae_fit(x[at : at + part], arch, keys[at : at + part])
            models += fitted
            failures.update((at + k, exc) for k, exc in failed.items())
        return models, failures
    layers = len(widths) - 1
    theta = np.zeros((size, n_params))
    params = _views(theta, shapes)
    init_gens = [plan.rng(f"{tag}.init") for plan, tag in keys]
    for w, (fan_in, fan_out) in zip(params, shapes[:layers]):
        a = np.sqrt(6.0 / (fan_in + fan_out))
        for k, g in enumerate(init_gens):
            w[k] = g.uniform(-a, a, size=(fan_in, fan_out))

    n_val = int(np.floor(n * arch.validation_fraction))
    n_train = n - n_val
    gen = None
    split = np.stack([(gen := plan.rng(f"{tag}.split", gen)).permutation(n) for plan, tag in keys])
    # Each column's training rows, then its validation rows: one pass scores both.
    stack = np.arange(size)[:, None]
    x_split = x[stack, split]

    acts = _layer_activations(arch, layers, out_act)
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    grad, temp, temp2 = (np.empty_like(theta) for _ in range(3))
    grads = _views(grad, shapes)
    weights, biases = params[:layers], params[layers:]
    transposed = [w.swapaxes(-1, -2) for w in weights]
    step = 0
    lr, bs = arch.learning_rate, arch.batch_size
    bufs = {rows: _buffers((size, rows), widths, acts)  # full and last batches
            for rows in (min(bs, n_train), n_train % bs or bs)}
    scored = _outputs((size, n), widths)

    batch_gens = [plan.rng(f"{tag}.batches") for plan, tag in keys]
    histories: list[list[tuple[float, float]]] = [[] for _ in range(size)]
    failures: dict[int, DivergenceError] = {}
    with _QUIET():
        for epoch in range(arch.epochs):
            order = np.stack([g.permutation(n_train) for g in batch_gens])
            shuffled = x_split[stack, order]
            for start in range(0, n_train, bs):
                batch = shuffled[:, start : start + bs]
                _gradient(weights, biases, acts, batch, grads, bufs[batch.shape[1]], transposed)
                step += 1
                corr1 = 1.0 - _ADAM_BETA1**step
                corr2 = 1.0 - _ADAM_BETA2**step
                # In place, with the operations and order of
                # m = b1 * m + (1 - b1) * g, v = b2 * v + (1 - b2) * g**2 and
                # theta = theta - lr * (m / corr1) / (sqrt(v / corr2) + eps).
                m *= _ADAM_BETA1
                m += np.multiply(grad, 1 - _ADAM_BETA1, out=temp)
                v *= _ADAM_BETA2
                v += np.multiply(np.square(grad, out=temp2), 1 - _ADAM_BETA2, out=temp2)
                np.multiply(np.divide(m, corr1, out=temp), lr, out=temp)
                np.add(np.sqrt(np.divide(v, corr2, out=temp2), out=temp2), _ADAM_EPS, out=temp2)
                theta -= np.divide(temp, temp2, out=temp)
            # Each split's mean squared error, with the bits of its rows alone.
            sq = _forward(weights, biases, acts, x_split, scored)
            np.square(np.subtract(sq, x_split, out=sq), out=sq)
            train_mse = sq[:, :n_train].mean(axis=(1, 2))
            val_mse = sq[:, n_train:].mean(axis=(1, 2)) if n_val else np.full(size, np.nan)
            for j in range(size):
                if j in failures:
                    continue
                if np.isfinite(train_mse[j]) and (not n_val or np.isfinite(val_mse[j])):
                    histories[j].append((float(train_mse[j]), float(val_mse[j])))
                else:
                    failures[j] = DivergenceError(epoch)
            if len(failures) == size:
                break
    theta[list(failures)] = 0.0
    return [AeModel(arch, width, tuple(p[j] for p in weights), tuple(p[j, 0] for p in biases),
                    out_act, tuple(histories[j])) for j in range(size)], failures


def _views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Views of each column's parameters in its row of ``flat``, one
    (R, rows, cols) array per shape; each column's slice is C-contiguous."""
    out, at = [], 0
    for rows, cols in shapes:
        out.append(flat[:, at : at + rows * cols].reshape(len(flat), rows, cols))
        at += rows * cols
    return out


def ae_encode(m: AeModel, x: np.ndarray) -> np.ndarray:
    """Map rows of ``x`` to their code-layer activations."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != m.input_width:
        raise ValueError(f"x must be (n, {m.input_width})")
    layers = m.encoder_layers
    acts = (m.architecture.activation,) * layers
    bufs = _outputs(x.shape[:-1], _full_widths(m.architecture, m.input_width)[: layers + 1])
    with _QUIET():
        return _forward(m.weights[:layers], m.biases[:layers], acts, x, bufs)

