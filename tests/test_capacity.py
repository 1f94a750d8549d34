import numpy as np
import pytest

from relayflow import CapacityModel, capacity, capacity_gradient, capacity_matrix
from relayflow.capacity import gradient_factor_matrix, pairwise_distances


def fd_gradient(model, p, q, h=1e-6):
    """Central finite difference of the rate, the independent check."""
    out = np.zeros(2)
    for dim in range(2):
        up = np.array(p, dtype=float)
        dn = np.array(p, dtype=float)
        up[dim] += h
        dn[dim] -= h
        out[dim] = (capacity(model, up, q) - capacity(model, dn, q)) / (2 * h)
    return out


def test_rate_at_zero_distance_is_one(model):
    assert capacity(model, (0.0, 0.0), (0.0, 0.0)) == 1.0


def test_rate_at_unit_distance(model):
    assert capacity(model, (0.0, 0.0), (1.0, 0.0)) == pytest.approx(np.exp(-1), rel=1e-12)


def test_rate_at_distance_two(model):
    assert capacity(model, (0.0, 0.0), (0.0, 2.0)) == pytest.approx(np.exp(-4), rel=1e-12)


def test_gradient_zero_at_coincident_points(model):
    np.testing.assert_array_equal(capacity_gradient(model, (0.0, 0.0), (0.0, 0.0)), np.zeros(2))


def test_gradient_unit_distance_matches_closed_form(model):
    g = capacity_gradient(model, (1.0, 0.0), (0.0, 0.0))
    np.testing.assert_allclose(g, [-2 * np.exp(-1), 0.0], atol=1e-12)
    np.testing.assert_allclose(g, fd_gradient(model, (1.0, 0.0), (0.0, 0.0)), atol=1e-6)


def test_gradient_distance_two_matches_closed_form(model):
    g = capacity_gradient(model, (0.0, 2.0), (0.0, 0.0))
    np.testing.assert_allclose(g, [0.0, -4 * np.exp(-4)], atol=1e-12)
    np.testing.assert_allclose(g, fd_gradient(model, (0.0, 2.0), (0.0, 0.0)), atol=1e-6)


def test_gradient_matches_finite_difference_randomly(model):
    rng = np.random.default_rng(0)
    for _ in range(100):
        direction = rng.normal(size=2)
        direction /= np.linalg.norm(direction)
        dist = rng.uniform(0.1, 5.0)
        p = rng.uniform(-3, 3, 2)
        q = p + dist * direction
        g = capacity_gradient(model, p, q)
        g_fd = fd_gradient(model, p, q)
        denom = max(np.max(np.abs(g_fd)), 1e-12)
        assert np.max(np.abs(g - g_fd)) / denom <= 1e-5


def test_rate_strictly_decreases_with_distance(model):
    direction = np.array([0.6, 0.8])
    rates = [capacity(model, d * direction, (0.0, 0.0)) for d in np.linspace(0.0, 6.0, 25)]
    assert all(a > b for a, b in zip(rates, rates[1:]))


def test_symmetry(model):
    rng = np.random.default_rng(3)
    for _ in range(20):
        p, q = rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2)
        assert capacity(model, p, q) == pytest.approx(capacity(model, q, p), rel=1e-14)
        np.testing.assert_allclose(
            capacity_gradient(model, p, q), -capacity_gradient(model, q, p), atol=1e-14
        )


def test_rate_range(model):
    # strict positivity holds until exp underflows around 27 km separation;
    # sample the realistic operating envelope
    rng = np.random.default_rng(5)
    for _ in range(50):
        p, q = rng.uniform(-8, 8, 2), rng.uniform(-8, 8, 2)
        rate = capacity(model, p, q)
        assert 0.0 < rate <= 1.0


def test_higher_exponent_gradient_still_consistent():
    model = CapacityModel(d0_km=0.7, exponent=3.0)
    g = capacity_gradient(model, (0.5, 0.2), (-0.3, 0.9))
    np.testing.assert_allclose(g, fd_gradient(model, (0.5, 0.2), (-0.3, 0.9)), atol=1e-6)
    np.testing.assert_array_equal(capacity_gradient(model, (1.0, 1.0), (1.0, 1.0)), np.zeros(2))


def test_model_rejects_bad_parameters():
    with pytest.raises(ValueError):
        CapacityModel(d0_km=0.0)
    with pytest.raises(ValueError):
        CapacityModel(d0_km=-1.0)
    with pytest.raises(ValueError):
        CapacityModel(exponent=1.0)
    with pytest.raises(ValueError):
        CapacityModel(exponent=np.nan)


@pytest.mark.parametrize(
    "p, message", [((0.0, 0.0, 1.0), "shape"), ((np.nan, 0.0), "finite"), ((0.0, np.inf), "finite")]
)
def test_scalar_rate_rejects_a_position_that_is_not_a_finite_pair(model, p, message):
    with pytest.raises(ValueError, match=message):
        capacity(model, p, (1.0, 0.0))


def test_matrix_agrees_with_scalar_rate(model):
    rng = np.random.default_rng(7)
    pts = rng.uniform(0, 3, (5, 2))
    mat = capacity_matrix(model, pts)
    assert np.all(np.diag(mat) == 0.0)
    np.testing.assert_allclose(mat, mat.T, atol=1e-15)
    for i in range(5):
        for j in range(5):
            if i != j:
                assert mat[i, j] == pytest.approx(capacity(model, pts[i], pts[j]), rel=1e-14)


def test_gradient_factor_matrix_reconstructs_gradients(model):
    rng = np.random.default_rng(11)
    pts = rng.uniform(0, 3, (4, 2))
    factors = gradient_factor_matrix(model, pts)
    for i in range(4):
        for j in range(4):
            if i != j:
                expected = capacity_gradient(model, pts[i], pts[j])
                np.testing.assert_allclose(factors[i, j] * (pts[i] - pts[j]), expected, atol=1e-13)


def test_pairwise_distances():
    pts = np.array([[0.0, 0.0], [3.0, 4.0]])
    np.testing.assert_allclose(pairwise_distances(pts), [[0.0, 5.0], [5.0, 0.0]])
