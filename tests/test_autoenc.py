import hashlib
import warnings

import numpy as np
import pytest

from permsig import autoenc
from permsig.autoenc import (
    AeArchitecture,
    AeModel,
    ae_batch_loss,
    ae_encode,
    ae_fit,
    ae_gradient,
)
from permsig.errors import DivergenceError
from permsig.rng import PermutationPlan


def fit_one(x, arch, plan, tag="ae"):
    """The model of the stack of one column, ``x`` under ``plan``, which
    must not fail."""
    models, failures = ae_fit(x[None], arch, [(plan, tag)])
    assert failures == {}
    return models[0]


def make_model(input_width, enc_widths, activation="sigmoid", out="identity", seed=0):
    """Assemble an untrained model with random weights, bypassing ae_fit."""
    arch = AeArchitecture(layer_widths_encoder=enc_widths, activation=activation,
                          output_activation=out)
    widths = [input_width] + list(enc_widths) + list(reversed(enc_widths[:-1])) + [input_width]
    gen = np.random.Generator(np.random.Philox(seed))
    weights = tuple(gen.standard_normal((a, b)) * 0.4 for a, b in zip(widths[:-1], widths[1:]))
    biases = tuple(gen.standard_normal(b) * 0.1 for b in widths[1:])
    return AeModel(arch, input_width, weights, biases, out, ())


def central_difference_check(model, batch, step=1e-5):
    """Max relative error between analytic and numeric gradients."""
    w_grads, b_grads = ae_gradient(model, batch)
    worst = 0.0
    for layer in range(len(model.weights)):
        for grads, params, is_weight in (
            (w_grads, model.weights, True),
            (b_grads, model.biases, False),
        ):
            p = params[layer]
            it = np.ndindex(*p.shape)
            for idx in it:
                bumped_up = [np.array(w, copy=True) for w in model.weights]
                bumped_dn = [np.array(w, copy=True) for w in model.weights]
                biases_up = [np.array(b, copy=True) for b in model.biases]
                biases_dn = [np.array(b, copy=True) for b in model.biases]
                if is_weight:
                    bumped_up[layer][idx] += step
                    bumped_dn[layer][idx] -= step
                else:
                    biases_up[layer][idx] += step
                    biases_dn[layer][idx] -= step
                up = AeModel(model.architecture, model.input_width,
                             tuple(bumped_up), tuple(biases_up),
                             model.output_activation, ())
                dn = AeModel(model.architecture, model.input_width,
                             tuple(bumped_dn), tuple(biases_dn),
                             model.output_activation, ())
                numeric = (ae_batch_loss(up, batch) - ae_batch_loss(dn, batch)) / (2 * step)
                analytic = grads[layer][idx]
                scale = max(abs(numeric), abs(analytic), 1e-8)
                worst = max(worst, abs(numeric - analytic) / scale)
    return worst


def test_gradient_matches_central_differences_sigmoid():
    gen = np.random.Generator(np.random.Philox(50))
    model = make_model(5, (4, 2), activation="sigmoid", out="sigmoid", seed=1)
    batch = gen.random((6, 5))
    assert central_difference_check(model, batch) < 1e-4


def test_gradient_matches_central_differences_relu():
    gen = np.random.Generator(np.random.Philox(51))
    model = make_model(4, (3,), activation="relu", out="identity", seed=2)
    batch = gen.standard_normal((5, 4)) + 0.1  # keep pre-activations off the kink
    assert central_difference_check(model, batch) < 1e-4


def test_gradient_matches_central_differences_identity():
    gen = np.random.Generator(np.random.Philox(52))
    model = make_model(3, (2,), activation="identity", out="identity", seed=3)
    batch = gen.standard_normal((4, 3))
    assert central_difference_check(model, batch) < 1e-4


def test_gradient_scales_with_loss():
    gen = np.random.Generator(np.random.Philox(53))
    model = make_model(4, (2,), seed=4)
    batch = gen.random((5, 4))
    w1, b1 = ae_gradient(model, batch)
    # doubling the batch rows doubles nothing: MSE is a mean, so the
    # gradient of the duplicated batch equals the original
    w2, b2 = ae_gradient(model, np.vstack([batch, batch]))
    for a, b in zip(w1, w2):
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_linear_ae_reaches_near_zero_loss():
    # identity activations and a full-width code can represent the identity
    gen = np.random.Generator(np.random.Philox(54))
    x = gen.standard_normal((60, 3))
    arch = AeArchitecture(
        layer_widths_encoder=(3,),
        activation="identity",
        output_activation="identity",
        epochs=400,
        learning_rate=0.01,
        batch_size=16,
        validation_fraction=0.0,
    )
    model = fit_one(x, arch, PermutationPlan(1, 0))
    assert model.training_history[-1][0] < 1e-3


def test_fit_is_deterministic():
    gen = np.random.Generator(np.random.Philox(55))
    x = gen.random((30, 6))
    arch = AeArchitecture(layer_widths_encoder=(4, 2), epochs=5)
    a = fit_one(x, arch, PermutationPlan(9, 3))
    b = fit_one(x, arch, PermutationPlan(9, 3))
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)
    assert a.training_history == b.training_history
    c = fit_one(x, arch, PermutationPlan(9, 4))
    assert not np.array_equal(a.weights[0], c.weights[0])


def _model_digest(model):
    h = hashlib.sha256()
    for a in model.weights + model.biases:
        h.update(a.tobytes())
    h.update(repr(model.training_history).encode())
    return h.hexdigest()


# name: (seed, n, width, signed data, encoder widths, activation, output
#        activation, validation fraction, batch size, epochs, learning rate, digest)
AE_PINS = {
    "sigmoid_auto_val": (70, 50, 6, False, (4, 2), "sigmoid", "auto", 0.3, 32, 8, 0.01,
                         "56e39da35794a321f9de5b3669f6413641aa08640ca278ff5c441c349bff42f6"),
    "relu_identity_nosplit": (71, 40, 5, True, (3,), "relu", "identity", 0.0, 16, 10, 0.01,
                              "f09b85d52f01291b054854a6dd67727fec654c41919207a07bed6aeb41b6a9d6"),
    "identity_auto_signed": (72, 30, 4, True, (3, 2), "identity", "auto", 0.3, 8, 6, 0.005,
                             "e83654059c23215c9f8e0143b089020835d380442734ff902cc4ed3fdc6b05ba"),
    "sigmoid_identity_deep": (73, 45, 8, True, (6, 4, 2), "sigmoid", "identity", 0.0, 10, 5,
                              0.02,
                              "f5a8b561daa49fd80eab875633cc858e8d90613b2832763ef5d429245af27620"),
    "relu_auto_unit": (74, 36, 6, False, (5, 3), "relu", "auto", 0.3, 7, 7, 0.01,
                       "04421813938cffb1c6e5d569ea6967b67566c82f594f9233e51e6198b6ed00d5"),
    "one_partial_batch": (75, 20, 5, True, (2,), "sigmoid", "auto", 0.0, 64, 12, 0.05,
                          "193c8b649be7ebb0363c215ccda1497a41afc22fb9cb95e7f74b2de30cc7e341"),
}


def test_ae_fit_bits_pinned():
    # Weights, biases and history of six fits, by SHA-256: every hidden
    # activation, auto and identity outputs, with and without a
    # validation split, and minibatch sizes that leave a partial last batch.
    digests = {}
    for name, (seed, n, w, signed, widths, act, out, vf, bs, epochs, lr, _) in AE_PINS.items():
        gen = np.random.Generator(np.random.Philox(seed))
        x = gen.standard_normal((n, w)) * 2 if signed else gen.random((n, w))
        arch = AeArchitecture(widths, activation=act, output_activation=out, epochs=epochs,
                              learning_rate=lr, batch_size=bs, validation_fraction=vf)
        digests[name] = _model_digest(fit_one(x, arch, PermutationPlan(seed, 1), tag="pin"))
    assert digests == {name: pin[-1] for name, pin in AE_PINS.items()}


def test_history_has_exactly_epochs_entries():
    gen = np.random.Generator(np.random.Philox(56))
    x = gen.random((20, 4))
    arch = AeArchitecture(layer_widths_encoder=(2,), epochs=7, validation_fraction=0.25)
    model = fit_one(x, arch, PermutationPlan(0, 0))
    assert len(model.training_history) == 7
    assert all(np.isfinite(t) and np.isfinite(v) for t, v in model.training_history)


def test_validation_fraction_zero_gives_nan_val():
    gen = np.random.Generator(np.random.Philox(57))
    x = gen.random((20, 4))
    arch = AeArchitecture(layer_widths_encoder=(2,), epochs=3, validation_fraction=0.0)
    model = fit_one(x, arch, PermutationPlan(0, 0))
    assert all(np.isnan(v) for _, v in model.training_history)
    assert all(np.isfinite(t) for t, _ in model.training_history)


def test_training_reduces_loss():
    gen = np.random.Generator(np.random.Philox(58))
    x = gen.random((50, 8))
    arch = AeArchitecture(layer_widths_encoder=(4,), epochs=60, learning_rate=0.005,
                          validation_fraction=0.2)
    model = fit_one(x, arch, PermutationPlan(2, 0))
    assert model.training_history[-1][0] <= model.training_history[0][0]


def test_auto_output_activation_resolution():
    arch = AeArchitecture(layer_widths_encoder=(2,), epochs=1)
    gen = np.random.Generator(np.random.Philox(59))
    in_unit = fit_one(gen.random((10, 3)), arch, PermutationPlan(0, 0))
    assert in_unit.output_activation == "sigmoid"
    signed = fit_one(gen.standard_normal((10, 3)) * 3, arch, PermutationPlan(0, 0))
    assert signed.output_activation == "identity"


def test_divergence_carries_epoch():
    gen = np.random.Generator(np.random.Philox(60))
    x = gen.standard_normal((20, 4)) * 50
    # Adam caps the step size near the learning rate, so only an lr big
    # enough to overflow float64 in the forward pass actually diverges.
    arch = AeArchitecture(
        layer_widths_encoder=(3,),
        activation="identity",
        output_activation="identity",
        epochs=50,
        learning_rate=1e76,
        validation_fraction=0.0,
    )
    _, failures = ae_fit(x[None], arch, [(PermutationPlan(0, 0), "ae")])
    assert list(failures) == [0]
    assert isinstance(failures[0], DivergenceError)
    assert 0 <= failures[0].epoch < 50


def test_a_diverging_fit_ends_in_its_error_without_a_warning():
    # The sigmoid of a pre-activation below -709 overflows e^-s, and the
    # loss of inputs near 1e200 overflows; each public call silences both.
    gen = np.random.Generator(np.random.Philox(65))
    x = gen.standard_normal((20, 4)) * 1e200
    arch = AeArchitecture(layer_widths_encoder=(2,), output_activation="identity", epochs=3,
                          validation_fraction=0.0)
    with warnings.catch_warnings(), np.errstate(over="warn", invalid="warn"):
        warnings.simplefilter("error")
        (model,), failures = ae_fit(x[None], arch, [(PermutationPlan(0, 0), "ae")])
        assert str(failures[0]) == "non-finite training loss at epoch 0"
        assert not np.isfinite(ae_batch_loss(model, x))
        ae_gradient(model, x)
        ae_encode(model, x)
    assert np.geterr()["over"] == np.geterr()["invalid"] == "warn"


def test_encode_shape_and_width_check():
    gen = np.random.Generator(np.random.Philox(61))
    x = gen.random((12, 5))
    arch = AeArchitecture(layer_widths_encoder=(4, 2), epochs=2)
    model = fit_one(x, arch, PermutationPlan(0, 0))
    z = ae_encode(model, x)
    assert z.shape == (12, 2)
    with pytest.raises(ValueError):
        ae_encode(model, np.zeros((3, 6)))


@pytest.mark.parametrize("out", ["sigmoid", "identity"])
@pytest.mark.parametrize("activation", ["sigmoid", "relu", "identity"])
def test_encode_and_loss_equal_a_forward_pass_of_new_arrays_bit_for_bit(activation, out):
    # Both write each layer's outputs over its pre-activations, in one
    # buffer per layer; every product here is a new array.
    apply = {"sigmoid": lambda s: 1.0 / (1.0 + np.exp(-s)),
             "relu": lambda s: np.maximum(s, 0.0), "identity": lambda s: s}
    model = make_model(6, (4, 2), activation=activation, out=out, seed=7)
    x = np.random.Generator(np.random.Philox(65)).standard_normal((23, 6))
    outputs = [x]
    for w, b, kind in zip(model.weights, model.biases, [activation] * 3 + [out]):
        outputs.append(apply[kind](outputs[-1] @ w + b))
    assert ae_encode(model, x).tobytes() == outputs[model.encoder_layers].tobytes()
    assert ae_batch_loss(model, x) == float(np.mean((outputs[-1] - x) ** 2))


def test_code_wider_than_input_rejected():
    arch = AeArchitecture(layer_widths_encoder=(9,), epochs=1)
    with pytest.raises(ValueError, match="code width"):
        fit_one(np.zeros((5, 3)), arch, PermutationPlan(0, 0))


def test_large_stack_trains_in_parts_with_the_same_bits(monkeypatch):
    gen = np.random.Generator(np.random.Philox(60))
    x = gen.standard_normal((1, 20, 4)) * np.array([1e-3, 1.0, 50.0, 1.0])[:, None, None]
    # at this learning rate only the widest column's loss overflows
    arch = AeArchitecture(layer_widths_encoder=(3,), activation="identity",
                          output_activation="identity", epochs=5, learning_rate=1e76,
                          validation_fraction=0.0)
    keys = [(PermutationPlan(0, j), "ae") for j in range(4)]
    runs = []
    for budget in (autoenc._STACK_BYTES, 1):
        monkeypatch.setattr(autoenc, "_STACK_BYTES", budget)
        models, failures = ae_fit(x, arch, keys)
        assert {j: exc.epoch for j, exc in failures.items()} == {2: 0}
        runs.append([_model_digest(m) for m in models])
    assert runs[0] == runs[1]


def test_stack_input_validation():
    gen = np.random.Generator(np.random.Philox(62))
    arch = AeArchitecture(layer_widths_encoder=(2,), epochs=1)
    keys = [(PermutationPlan(0, j), "ae") for j in range(2)]
    mixed = np.stack([gen.random((10, 3)), gen.standard_normal((10, 3)) * 3])
    with pytest.raises(ValueError, match="different output activations"):
        ae_fit(mixed, arch, keys)
    with pytest.raises(ValueError, match=r"one \(plan, tag\) per column"):
        ae_fit(mixed[:1], arch, keys)
    with pytest.raises(ValueError, match=r"x must be \(R, n, N\)"):
        ae_fit(mixed[0], arch, keys[:1])


def test_architecture_validation():
    with pytest.raises(ValueError):
        AeArchitecture(layer_widths_encoder=())
    with pytest.raises(ValueError):
        AeArchitecture(layer_widths_encoder=(4, 0))
    with pytest.raises(ValueError):
        AeArchitecture(layer_widths_encoder=(4,), activation="tanh")
    with pytest.raises(ValueError):
        AeArchitecture(layer_widths_encoder=(4,), epochs=0)
    with pytest.raises(ValueError):
        AeArchitecture(layer_widths_encoder=(4,), validation_fraction=1.0)


@pytest.mark.parametrize("field, value", [
    ("epochs", True),
    ("epochs", 2.0),
    ("batch_size", True),
    ("learning_rate", "x"),
    ("learning_rate", True),
    ("learning_rate", float("inf")),
    ("validation_fraction", False),
])
def test_architecture_rejects_wrong_types(field, value):
    with pytest.raises(ValueError, match=field):
        AeArchitecture((2,), **{field: value})


@pytest.mark.parametrize("widths", [(2.7,), (True,), [4, "2"], 4])
def test_architecture_rejects_non_integer_widths(widths):
    with pytest.raises(ValueError, match="layer_widths_encoder"):
        AeArchitecture(widths)



@pytest.mark.parametrize("columns, n, width, widths, vf", [
    (1, 20, 4, (2,), 0.3), (5, 37, 6, (4, 2), 0.25), (34, 30, 16, (12, 6, 2), 0.3),
    (3, 12, 5, (3,), 0.0),
])
def test_one_pass_scores_each_split_as_its_rows_alone(columns, n, width, widths, vf):
    # The last recorded losses are those of the final model over its
    # training rows and over its validation rows, each scored on its own.
    gen = np.random.Generator(np.random.Philox(63))
    x = gen.random((columns, n, width))
    arch = AeArchitecture(widths, epochs=2, batch_size=8, validation_fraction=vf)
    keys = [(PermutationPlan(4, j), "ae") for j in range(columns)]
    models, failures = ae_fit(x, arch, keys)
    assert failures == {}
    n_train = n - int(np.floor(n * vf))
    for j, (model, (plan, tag)) in enumerate(zip(models, keys)):
        rows = x[j][plan.rng(f"{tag}.split").permutation(n)]
        train, val = model.training_history[-1]
        assert train == ae_batch_loss(model, rows[:n_train])
        assert val == ae_batch_loss(model, rows[n_train:]) if vf else np.isnan(val)


def _reference_fit(x, arch, plan, tag):
    """One column's fit by the step :func:`ae_fit` took before it wrote
    into reused buffers: every product a new array, the gradient copied
    into the flat one, and Adam's moments and update as whole-array
    expressions.  Returns ``(weights, biases, history, failed epoch or None)``."""
    n, width = x.shape
    widths = autoenc._full_widths(arch, width)
    layers = len(widths) - 1
    shapes = list(zip(widths[:-1], widths[1:])) + [(1, w) for w in widths[1:]]
    theta = np.zeros((1, sum(a * b for a, b in shapes)))
    init = plan.rng(f"{tag}.init")
    for w, (fan_in, fan_out) in zip(autoenc._views(theta, shapes), shapes[:layers]):
        a = np.sqrt(6.0 / (fan_in + fan_out))
        w[0] = init.uniform(-a, a, size=(fan_in, fan_out))
    n_train = n - int(np.floor(n * arch.validation_fraction))
    rows = x[plan.rng(f"{tag}.split").permutation(n)][None]
    acts = [arch.activation] * (layers - 1) + [arch.output_for(x)]
    apply = {"sigmoid": lambda s: 1.0 / (1.0 + np.exp(-s)),
             "relu": lambda s: np.maximum(s, 0.0), "identity": lambda s: s}
    slope = {"sigmoid": lambda s, a: a * (1.0 - a),
             "relu": lambda s, a: (s > 0.0).astype(np.float64),
             "identity": lambda s, a: np.ones_like(s)}

    def forward(params, batch):
        outputs, pre = [batch], []
        for w, b, kind in zip(params[:layers], params[layers:], acts):
            pre.append(outputs[-1] @ w + b)
            outputs.append(apply[kind](pre[-1]))
        return outputs, pre

    m, v, step, history = np.zeros_like(theta), np.zeros_like(theta), 0, []
    batches = plan.rng(f"{tag}.batches")
    for epoch in range(arch.epochs):
        params = autoenc._views(theta, shapes)
        grad = np.empty_like(theta)
        order = batches.permutation(n_train)
        for start in range(0, n_train, arch.batch_size):
            batch = rows[:, order[start : start + arch.batch_size]]
            outputs, pre = forward(params, batch)
            delta = 2.0 * (outputs[-1] - batch) / (batch.shape[-2] * batch.shape[-1])
            delta = delta * slope[acts[-1]](pre[-1], outputs[-1])
            grads = [None] * (2 * layers)
            for layer in range(layers - 1, -1, -1):
                grads[layer] = np.swapaxes(outputs[layer], -1, -2) @ delta
                grads[layers + layer] = delta.sum(axis=-2).reshape(params[layers + layer].shape)
                if layer > 0:
                    delta = (delta @ np.swapaxes(params[layer], -1, -2)) * slope[acts[layer - 1]](
                        pre[layer - 1], outputs[layer])
            for into, g in zip(autoenc._views(grad, shapes), grads):
                into[...] = g
            step += 1
            corr1, corr2 = 1.0 - 0.9**step, 1.0 - 0.999**step
            m = 0.9 * m + (1 - 0.9) * grad
            v = 0.999 * v + (1 - 0.999) * grad**2
            theta -= arch.learning_rate * (m / corr1) / (np.sqrt(v / corr2) + 1e-8)
        sq = (forward(params, rows)[0][-1] - rows) ** 2
        train = sq[:, :n_train].mean(axis=(1, 2))[0]
        val = sq[:, n_train:].mean(axis=(1, 2))[0] if n_train < n else np.nan
        if not (np.isfinite(train) and (n_train == n or np.isfinite(val))):
            break
        history.append((float(train), float(val)))
    else:
        epoch = None
    params = autoenc._views(theta, shapes)
    return params[:layers], params[layers:], history, epoch


# name: (columns, n, width, encoder widths, activation, output activation,
#        validation fraction, batch size, epochs, learning rate)
REFERENCE_CASES = {
    "sigmoid_sigmoid_partial": (2, 23, 5, (3, 2), "sigmoid", "sigmoid", 0.3, 4, 4, 0.01),
    "relu_identity_no_split": (16, 14, 4, (3,), "relu", "identity", 0.0, 5, 3, 0.02),
    "identity_identity_code_1": (1, 17, 3, (2, 1), "identity", "identity", 0.25, 6, 5, 0.01),
    "relu_sigmoid_one_batch": (2, 9, 4, (3, 2), "relu", "sigmoid", 0.0, 32, 6, 0.05),
    # Adam's steps are about the learning rate, so at this one columns 9,
    # 15, 4 and 11 overflow at epochs 9, 11, 17 and 17, stay in the stack,
    # unread, and end with the zero model.
    "sigmoid_identity_diverging": (16, 20, 4, (3,), "sigmoid", "identity", 0.0, 1, 20, 5e152),
}


def _reference_case(case):
    """The stack ``x``, architecture and keys of a reference case."""
    columns, n, width, widths, act, out, vf, bs, epochs, lr = REFERENCE_CASES[case]
    gen = np.random.Generator(np.random.Philox(64))
    shape = (columns, n, width)
    x = gen.random(shape) if out == "sigmoid" else gen.standard_normal(shape)
    arch = AeArchitecture(widths, activation=act, output_activation=out, epochs=epochs,
                          learning_rate=lr, batch_size=bs, validation_fraction=vf)
    return x, arch, [(PermutationPlan(6, j), "ae") for j in range(columns)]


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_fit_equals_the_step_without_reused_buffers_bit_for_bit(case):
    x, arch, keys = _reference_case(case)
    models, failures = ae_fit(x, arch, keys)
    with np.errstate(over="ignore", invalid="ignore"):
        want = [_reference_fit(x[j], arch, *key) for j, key in enumerate(keys)]
    assert {j: exc.epoch for j, exc in failures.items()} == {
        j: epoch for j, (*_, epoch) in enumerate(want) if epoch is not None}
    assert len(failures) == (4 if "diverging" in case else 0)
    for model, (weights, biases, history, epoch) in zip(models, want):
        if epoch is not None:  # a diverged column gets the zero model
            weights, biases = map(np.zeros_like, weights), map(np.zeros_like, biases)
        assert [w.tobytes() for w in model.weights] == [w[0].tobytes() for w in weights]
        assert [b.tobytes() for b in model.biases] == [b[0, 0].tobytes() for b in biases]
        assert repr(model.training_history) == repr(tuple(history))  # NaN != NaN


def test_diverged_columns_stay_in_the_stack_to_the_last_step(monkeypatch):
    # Four of the 16 columns diverge mid-fit; every Adam step still takes
    # a gradient of all 16, one row each (batch size 1, no validation rows).
    x, arch, keys = _reference_case("sigmoid_identity_diverging")
    stacks, gradient = [], autoenc._gradient

    def recording(weights, biases, acts, batch, *rest):
        stacks.append(batch.shape[:2])
        return gradient(weights, biases, acts, batch, *rest)

    monkeypatch.setattr(autoenc, "_gradient", recording)
    _, failures = ae_fit(x, arch, keys)
    assert len(failures) == 4
    assert stacks == [(len(keys), 1)] * (arch.epochs * x.shape[1])
