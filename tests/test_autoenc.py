import numpy as np
import pytest

from permsig.autoenc import (
    AeArchitecture,
    AeModel,
    ae_batch_loss,
    ae_encode,
    ae_fit,
    ae_gradient,
    load_model,
    save_model,
)
from permsig.errors import DivergenceError
from permsig.rng import PermutationPlan


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
    model = ae_fit(x, arch, PermutationPlan(1, 0))
    assert model.training_history[-1][0] < 1e-3


def test_fit_is_deterministic():
    gen = np.random.Generator(np.random.Philox(55))
    x = gen.random((30, 6))
    arch = AeArchitecture(layer_widths_encoder=(4, 2), epochs=5)
    a = ae_fit(x, arch, PermutationPlan(9, 3))
    b = ae_fit(x, arch, PermutationPlan(9, 3))
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)
    assert a.training_history == b.training_history
    c = ae_fit(x, arch, PermutationPlan(9, 4))
    assert not np.array_equal(a.weights[0], c.weights[0])


def test_history_has_exactly_epochs_entries():
    gen = np.random.Generator(np.random.Philox(56))
    x = gen.random((20, 4))
    arch = AeArchitecture(layer_widths_encoder=(2,), epochs=7, validation_fraction=0.25)
    model = ae_fit(x, arch, PermutationPlan(0, 0))
    assert len(model.training_history) == 7
    assert all(np.isfinite(t) and np.isfinite(v) for t, v in model.training_history)


def test_validation_fraction_zero_gives_nan_val():
    gen = np.random.Generator(np.random.Philox(57))
    x = gen.random((20, 4))
    arch = AeArchitecture(layer_widths_encoder=(2,), epochs=3, validation_fraction=0.0)
    model = ae_fit(x, arch, PermutationPlan(0, 0))
    assert all(np.isnan(v) for _, v in model.training_history)
    assert all(np.isfinite(t) for t, _ in model.training_history)


def test_training_reduces_loss():
    gen = np.random.Generator(np.random.Philox(58))
    x = gen.random((50, 8))
    arch = AeArchitecture(layer_widths_encoder=(4,), epochs=60, learning_rate=0.005,
                          validation_fraction=0.2)
    model = ae_fit(x, arch, PermutationPlan(2, 0))
    assert model.training_history[-1][0] <= model.training_history[0][0]


def test_auto_output_activation_resolution():
    arch = AeArchitecture(layer_widths_encoder=(2,), epochs=1)
    gen = np.random.Generator(np.random.Philox(59))
    in_unit = ae_fit(gen.random((10, 3)), arch, PermutationPlan(0, 0))
    assert in_unit.output_activation == "sigmoid"
    signed = ae_fit(gen.standard_normal((10, 3)) * 3, arch, PermutationPlan(0, 0))
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
        with pytest.raises(DivergenceError) as exc_info:
            ae_fit(x, arch, PermutationPlan(0, 0))
    assert 0 <= exc_info.value.epoch < 50


def test_encode_shape_and_width_check():
    gen = np.random.Generator(np.random.Philox(61))
    x = gen.random((12, 5))
    arch = AeArchitecture(layer_widths_encoder=(4, 2), epochs=2)
    model = ae_fit(x, arch, PermutationPlan(0, 0))
    z = ae_encode(model, x)
    assert z.shape == (12, 2)
    with pytest.raises(ValueError):
        ae_encode(model, np.zeros((3, 6)))


def test_code_wider_than_input_rejected():
    arch = AeArchitecture(layer_widths_encoder=(9,), epochs=1)
    with pytest.raises(ValueError, match="code width"):
        ae_fit(np.zeros((5, 3)), arch, PermutationPlan(0, 0))


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
    ("validation_fraction", False),
])
def test_architecture_rejects_wrong_types(field, value):
    with pytest.raises(ValueError, match=field):
        AeArchitecture((2,), **{field: value})


@pytest.mark.parametrize("widths", [(2.7,), (True,), [4, "2"], 4])
def test_architecture_rejects_non_integer_widths(widths):
    with pytest.raises(ValueError, match="layer_widths_encoder"):
        AeArchitecture(widths)


def test_save_load_round_trip_bit_exact(tmp_path):
    gen = np.random.Generator(np.random.Philox(62))
    x = gen.random((25, 6))
    arch = AeArchitecture(layer_widths_encoder=(4, 3), epochs=4, validation_fraction=0.2)
    model = ae_fit(x, arch, PermutationPlan(5, 1))
    path = tmp_path / "model.npz"
    save_model(model, str(path))
    back = load_model(str(path))
    assert back.architecture == model.architecture
    assert back.input_width == model.input_width
    assert back.output_activation == model.output_activation
    for wa, wb in zip(model.weights, back.weights):
        np.testing.assert_array_equal(wa, wb)
    for ba, bb in zip(model.biases, back.biases):
        np.testing.assert_array_equal(ba, bb)
    assert back.training_history == model.training_history
    np.testing.assert_array_equal(ae_encode(back, x), ae_encode(model, x))
