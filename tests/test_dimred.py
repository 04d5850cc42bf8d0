import re

import numpy as np
import pytest

from permsig.dimred import LinearReducer, pca_fit, pls1_fit, reduce
from permsig.errors import FitError


def labeled_cloud(n=40, n_feat=6, seed=0):
    gen = np.random.Generator(np.random.Philox(seed))
    x = gen.standard_normal((n, n_feat))
    y = np.where(gen.random(n) < 0.5, 1.0, -1.0)
    if np.unique(y).size < 2:  # pathological draw, nudge one entry
        y[0] = -y[0]
    return x, y


def pls_one(x, y) -> LinearReducer:
    """The PLS reducer of one labeling, fitted as a batch of one, which
    must not fail."""
    red, failures = pls1_fit(x[None], y[None])
    assert failures == {}
    return red.column(0)


# ------------------------------------------------------------------- PLS


def test_pls_two_point_example():
    m = pls_one(np.array([[1.0], [-1.0]]), np.array([1.0, -1.0]))
    np.testing.assert_allclose(m.mean, [0.0])
    np.testing.assert_allclose(m.directions, [[1.0]])
    np.testing.assert_allclose(reduce(m, np.array([[1.0], [-1.0]])), [[1.0], [-1.0]])


def test_pls_direction_matches_covariance_vector():
    for seed in range(5):
        x, y = labeled_cloud(seed=seed)
        m = pls_one(x, y)
        xc = x - x.mean(axis=0)
        yc = y - y.mean()
        w = np.einsum("ij,i->j", xc, yc)
        w = w / np.linalg.norm(w)
        np.testing.assert_allclose(m.directions[:, 0], w, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(m.directions[:, 0]), 1.0, rtol=1e-12)


def test_pls_maximizes_label_covariance():
    x, y = labeled_cloud(seed=3)
    m = pls_one(x, y)
    xc = x - x.mean(axis=0)
    yc = y - y.mean()
    best = abs(float(xc @ m.directions[:, 0] @ yc))
    gen = np.random.Generator(np.random.Philox(99))
    for _ in range(200):
        u = gen.standard_normal(x.shape[1])
        u /= np.linalg.norm(u)
        assert abs(float(xc @ u @ yc)) <= best + 1e-9


def test_pls_label_validation():
    x = np.zeros((4, 2))
    with pytest.raises(ValueError, match="-1 and \\+1"):
        pls1_fit(x, np.array([[0.0, 1.0, 0.0, 1.0]]))
    with pytest.raises(ValueError, match="both"):
        pls1_fit(x, np.array([[1.0, 1.0, 1.0, 1.0]]))
    # One labeling is a batch of one: a 1-D y is a shape error.
    with pytest.raises(ValueError, match=re.escape("y (R, n)")):
        pls1_fit(x, np.array([1.0, -1.0, 1.0, -1.0]))


def test_pls_degenerate_direction():
    x = np.ones((6, 3))  # constant features, zero covariance
    y = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    _, failures = pls1_fit(x[None], y[None])
    assert list(failures) == [0]
    assert isinstance(failures[0], FitError) and re.search("degenerate", str(failures[0]))


# ------------------------------------------------------------------- PCA


def test_pca_orthonormal_and_ordered():
    gen = np.random.Generator(np.random.Philox(1))
    # anisotropic cloud: variances 9, 4, 1, 0.25
    x = gen.standard_normal((300, 4)) * np.array([3.0, 2.0, 1.0, 0.5])
    m = pca_fit(x, 3)
    gram = m.directions.T @ m.directions
    np.testing.assert_allclose(gram, np.eye(3), atol=1e-10)
    var = reduce(m, x).var(axis=0, ddof=1)
    assert var[0] > var[1] > var[2]
    # leading direction should be close to the first axis
    assert abs(m.directions[0, 0]) > 0.98


def test_pca_sign_is_deterministic():
    gen = np.random.Generator(np.random.Philox(2))
    x = gen.standard_normal((50, 5))
    a = pca_fit(x, 4)
    b = pca_fit(x, 4)
    np.testing.assert_array_equal(a.directions, b.directions)
    for j in range(a.directions.shape[1]):
        lead = np.argmax(np.abs(a.directions[:, j]))
        assert a.directions[lead, j] > 0


def test_pca_captures_rank_one_structure():
    gen = np.random.Generator(np.random.Philox(3))
    t = gen.standard_normal(80)
    direction = np.array([0.6, 0.0, 0.8])
    x = np.outer(t, direction)
    m = pca_fit(x, 1)
    np.testing.assert_allclose(np.abs(m.directions[:, 0]), np.abs(direction), atol=1e-10)
    # projections reconstruct the latent coordinate up to sign
    scores = reduce(m, x)[:, 0]
    np.testing.assert_allclose(np.abs(scores), np.abs(t - t.mean()), atol=1e-10)


def test_pca_projected_variance_rotation_invariant():
    gen = np.random.Generator(np.random.Philox(4))
    x = gen.standard_normal((120, 3)) * np.array([2.0, 1.0, 0.5])
    rot, _ = np.linalg.qr(gen.standard_normal((3, 3)))
    a = reduce(pca_fit(x, 2), x).var(axis=0, ddof=1)
    b = reduce(pca_fit(x @ rot, 2), x @ rot).var(axis=0, ddof=1)
    np.testing.assert_allclose(a, b, rtol=1e-9)


def test_pca_isotropic_eigenvalues_are_flat():
    gen = np.random.Generator(np.random.Philox(5))
    x = gen.standard_normal((5000, 3))
    var = reduce(pca_fit(x, 3), x).var(axis=0, ddof=1)
    assert var[0] / var[2] < 1.25


def test_pca_r_validation():
    x = np.zeros((5, 3))
    with pytest.raises(ValueError):
        pca_fit(x, 0)
    with pytest.raises(ValueError):
        pca_fit(x, 4)  # r > N
    with pytest.raises(ValueError):
        pca_fit(np.zeros((3, 10)), 3)  # r > n - 1
    with pytest.raises(ValueError):
        pca_fit(np.zeros((1, 3)), 1)


# ------------------------------------------------------------------- reduce


def test_reduce_subtracts_mean():
    m = LinearReducer(np.array([1.0, 2.0]), np.array([[1.0], [0.0]]))
    out = reduce(m, np.array([[3.0, 7.0]]))
    np.testing.assert_allclose(out, [[2.0]])


def test_reduce_rejects_wrong_width():
    m = LinearReducer(np.zeros(2), np.eye(2))
    with pytest.raises(ValueError):
        reduce(m, np.zeros((4, 3)))


def test_reducer_is_immutable():
    m = LinearReducer(np.zeros(2), np.eye(2))
    with pytest.raises(ValueError):
        m.directions[0, 0] = 5.0


# ----------------------------------------------------------------- batches


@pytest.mark.parametrize("cols", [1, 3, 40])
def test_batched_pls_equals_single_fits_bit_for_bit(cols):
    gen = np.random.Generator(np.random.Philox(80))
    x = gen.standard_normal((cols, 30, 5))
    y = np.stack([gen.permutation(np.repeat([1.0, -1.0], 15)) for _ in range(cols)])
    (own, failed), (shared, _) = pls1_fit(x, y), pls1_fit(x[0], y)
    assert failed == {}
    assert own.directions.shape == (cols, 5, 1) and own.mean.shape == (cols, 5)
    for j in range(cols):
        one = pls_one(x[j], y[j])
        np.testing.assert_array_equal(own.column(j).directions, one.directions)
        np.testing.assert_array_equal(own.column(j).mean, one.mean)
        np.testing.assert_array_equal(reduce(own, x)[j], reduce(one, x[j]))
        np.testing.assert_array_equal(shared.column(j).directions, pls_one(x[0], y[j]).directions)
        np.testing.assert_array_equal(reduce(shared, x[0])[j], reduce(shared.column(j), x[0]))


def test_batched_pls_names_degenerate_columns():
    x = np.array([[0.0], [1.0], [1.0], [0.0]])
    y = np.array([[-1.0, -1.0, 1.0, 1.0], [-1.0, 1.0, 1.0, -1.0], [1.0, 1.0, -1.0, -1.0]])
    red, failures = pls1_fit(x, y)
    assert list(failures) == [0, 2]
    assert "degenerate" in str(failures[0])
    # Degenerate columns get a zero direction, so their scores stay finite.
    assert np.array_equal(red.directions[[0, 2]], np.zeros((2, 1, 1)))
    assert red.directions[1, 0, 0] == 1.0 and np.isfinite(reduce(red, x)).all()


def test_batched_pca_equals_single_fits_bit_for_bit():
    gen = np.random.Generator(np.random.Philox(81))
    x = gen.standard_normal((4, 20, 5))
    batch = pca_fit(x, 2)
    for j in range(4):
        one = pca_fit(x[j], 2)
        np.testing.assert_array_equal(batch.column(j).directions, one.directions)
        np.testing.assert_array_equal(reduce(batch, x)[j], reduce(one, x[j]))
    shared = LinearReducer(batch.mean[0], batch.directions[0])
    assert shared.column(3) is shared
