import hashlib

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
    with np.errstate(over="ignore", invalid="ignore"):
        _, failures = ae_fit(x[None], arch, [(PermutationPlan(0, 0), "ae")])
    assert list(failures) == [0]
    assert isinstance(failures[0], DivergenceError)
    assert 0 <= failures[0].epoch < 50


def test_encode_shape_and_width_check():
    gen = np.random.Generator(np.random.Philox(61))
    x = gen.random((12, 5))
    arch = AeArchitecture(layer_widths_encoder=(4, 2), epochs=2)
    model = fit_one(x, arch, PermutationPlan(0, 0))
    z = ae_encode(model, x)
    assert z.shape == (12, 2)
    with pytest.raises(ValueError):
        ae_encode(model, np.zeros((3, 6)))


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
        with np.errstate(over="ignore", invalid="ignore"):
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

