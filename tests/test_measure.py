import numpy as np
import pytest

from optpred import ChebPoly, DiscreteMeasure, RankDeficiencyError
from optpred.imaginary import closed_form_design
from polyhelp import (
    christoffel,
    christoffel_lagrange,
    directional_derivative,
    fd_kernel_derivative,
    gram,
    kernel_poly,
)

NODES3 = np.array([-1.0, 0.0, 1.0])
UNIFORM3 = DiscreteMeasure(NODES3, np.array([1, 1, 1]) / 3)
# Hoel-Levine weights for z0 = 2 on these nodes: |l| = (1, 3, 3) by hand
HL3 = DiscreteMeasure(NODES3, np.array([1, 3, 3]) / 7)


def _random_measure(rng, n_nodes):
    # gaps bounded away from 0 keep the Gram matrix decently conditioned
    g = 0.4 + rng.random(n_nodes - 1)
    x = np.concatenate(([0.0], np.cumsum(g)))
    nodes = -1.0 + 2.0 * x / x[-1]
    w = rng.uniform(0.2, 1.0, n_nodes)
    return DiscreteMeasure(nodes, w / w.sum())


def test_measure_validation():
    with pytest.raises(ValueError):
        DiscreteMeasure(NODES3, np.array([0.5, 0.5, 0.0]))
    with pytest.raises(ValueError):
        DiscreteMeasure(NODES3, np.array([0.5, 0.5, 0.5]))
    with pytest.raises(ValueError):
        DiscreteMeasure(NODES3, np.array([0.5, 0.5]))


def test_measure_rejects_nonfinite():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="weights must be finite"):
            DiscreteMeasure(NODES3, np.array([0.5, bad, 0.5]))
        with pytest.raises(ValueError, match="nodes must be finite"):
            DiscreteMeasure(np.array([-1.0, bad, 1.0]), np.ones(3) / 3)


def test_measure_json_round_trip():
    mu = DiscreteMeasure.from_json(HL3.to_json())
    np.testing.assert_array_equal(mu.nodes, HL3.nodes)
    np.testing.assert_array_equal(mu.weights, HL3.weights)
    assert abs(mu.weights.sum() - 1.0) <= 1e-14


def test_gram_orthonormal_two_point():
    mu = DiscreteMeasure(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
    G = gram(mu, 1)
    np.testing.assert_allclose(G, np.eye(2), atol=1e-15)


def test_gram_uniform_entry():
    G = gram(UNIFORM3, 2)
    assert type(G) is np.ndarray
    # (1*1 + 1*(-1) + 1*1)/3 by hand
    assert G[0, 2] == pytest.approx(1.0 / 3.0, abs=1e-15)
    np.testing.assert_allclose(G, G.T, atol=1e-14)
    assert np.linalg.eigvalsh(G).min() > 0


def test_gram_degree_zero():
    np.testing.assert_allclose(gram(HL3, 0), [[1.0]], atol=1e-15)


def test_christoffel_hand_values():
    assert type(christoffel(HL3, 2, 2.0)) is float
    assert type(christoffel_lagrange(HL3, 2, 2.0)) is float
    assert christoffel(HL3, 2, 2.0) == pytest.approx(49.0, rel=1e-12)
    assert christoffel(UNIFORM3, 2, 2.0) == pytest.approx(57.0, rel=1e-12)


def test_christoffel_at_support_node():
    for mu in (UNIFORM3, HL3):
        for i, x in enumerate(mu.nodes):
            assert christoffel(mu, 2, x) == pytest.approx(
                1.0 / mu.weights[i], rel=1e-12
            )


def test_christoffel_rank_deficiency():
    mu = DiscreteMeasure(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
    with pytest.raises(RankDeficiencyError):
        christoffel(mu, 2, 2.0)
    with pytest.raises(RankDeficiencyError):
        kernel_poly(mu, 2, 2.0)


def test_two_path_agreement():
    rng = np.random.default_rng(21)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        mu = _random_measure(rng, n + 1)
        z0 = rng.uniform(-3, 3) + 1j * rng.uniform(0.2, 2)
        a = christoffel(mu, n, z0)
        b = christoffel_lagrange(mu, n, z0)
        assert a == pytest.approx(b, rel=1e-9)
    # optimal supports; at a = 1e-9 their weights span ten to eleven decades
    for n in (8, 64, 192):
        for a in (1e-9, 1e-3, 1.0, 2.5):
            mu = closed_form_design(n, a).measure
            assert christoffel(mu, n, 1j * a) == pytest.approx(
                christoffel_lagrange(mu, n, 1j * a), rel=1e-12)


def test_lagrange_path_requires_square_support():
    with pytest.raises(ValueError):
        christoffel_lagrange(UNIFORM3, 1, 2.0)
    for bad in (np.nan, np.inf, complex(0, np.nan)):
        with pytest.raises(ValueError, match="not finite"):
            christoffel_lagrange(UNIFORM3, 2, bad)


def test_christoffel_exceeds_one_outside():
    # p = 1 is admissible in the variational form, so K >= 1
    for z0 in (2.0, 1j, -1.5 + 0.3j):
        assert christoffel(UNIFORM3, 2, z0) >= 1.0


def test_variational_lower_bound():
    rng = np.random.default_rng(33)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        mu = _random_measure(rng, n + 2)
        z0 = rng.uniform(1.1, 3) * (1 if rng.random() < 0.5 else 1j)
        K = christoffel(mu, n, z0)
        c = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        p = ChebPoly(c)
        mass = np.sum(mu.weights * np.abs(p(mu.nodes)) ** 2)
        assert abs(p(z0)) ** 2 <= K * mass + 1e-9


def test_kernel_poly_two_point_imaginary():
    mu = DiscreteMeasure(np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
    for a in (0.5, 1.0, 2.0):
        P = kernel_poly(mu, 1, a * 1j)
        s = np.sqrt(a * a + 1.0)
        np.testing.assert_allclose(P.coeffs, [1 / s, -1j * a / s], atol=1e-14)


def test_kernel_poly_hoel_levine_is_identity_poly():
    # |l(2)| = (1/2, 3/2) on {-1, 1}, so Hoel-Levine weights are (1/4, 3/4)
    # and the signed combination -l_0 + l_1 = z; the kernel polynomial must
    # agree through the Gram route
    mu = DiscreteMeasure(np.array([-1.0, 1.0]), np.array([0.25, 0.75]))
    P = kernel_poly(mu, 1, 2.0)
    np.testing.assert_allclose(P.coeffs, [0.0, 1.0], atol=1e-13)


def test_kernel_poly_unit_l2_norm():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        mu = _random_measure(rng, n + 1 + int(rng.integers(0, 3)))
        z0 = rng.uniform(-2, 2) + 1j * rng.uniform(0.3, 2)
        P = kernel_poly(mu, n, z0)
        mass = np.sum(mu.weights * np.abs(P(mu.nodes)) ** 2)
        assert mass == pytest.approx(1.0, abs=1e-10)


def test_kernel_poly_rejects_support_point():
    with pytest.raises(ValueError):
        kernel_poly(UNIFORM3, 2, 0.0)


def test_kernel_functions_reject_nonfinite_point():
    for bad in (np.nan, np.inf, complex(0, np.nan)):
        with pytest.raises(ValueError, match="not finite"):
            christoffel(UNIFORM3, 2, bad)


def test_kernel_functions_refuse_non_integer_degree():
    for bad in (True, 2.0):
        with pytest.raises(TypeError, match="degree must be an integer"):
            christoffel(UNIFORM3, bad, 2.0)
    with pytest.raises(ValueError, match="degree must be >= 0"):
        christoffel(UNIFORM3, -1, 2.0)


def test_kernel_poly_maximality():
    rng = np.random.default_rng(29)
    mu = _random_measure(rng, 4)
    z0 = 1.8 + 0.4j
    n = 3
    P = kernel_poly(mu, n, z0)
    target = abs(P(z0))
    for _ in range(1000):
        c = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        q = ChebPoly(c)
        mass = np.sqrt(np.sum(mu.weights * np.abs(q(mu.nodes)) ** 2))
        assert abs(q(z0)) / mass <= target * (1 + 1e-12)


def test_directional_derivative_matches_finite_differences():
    rng = np.random.default_rng(41)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        mu = _random_measure(rng, n + 1 + int(rng.integers(0, 2)))
        z0 = 2.0 if rng.random() < 0.5 else 1j
        a = rng.uniform(-1, 1)
        formula = directional_derivative(mu, a, n, z0)
        fd = fd_kernel_derivative(mu, a, n, z0)
        assert formula == pytest.approx(fd, rel=1e-5)


def test_directional_derivative_uniform_example():
    formula = directional_derivative(UNIFORM3, 0.5, 2, 2.0)
    fd = fd_kernel_derivative(UNIFORM3, 0.5, 2, 2.0)
    assert formula == pytest.approx(fd, rel=1e-5)


def test_directional_derivative_zero_on_optimal_support():
    d = closed_form_design(2, 1.0)
    for x in d.measure.nodes:
        assert abs(directional_derivative(d.measure, x, 2, 1j)) <= 1e-9


def test_directional_derivative_nonnegative_when_p_bounded():
    d = closed_form_design(3, 1.0)
    rng = np.random.default_rng(51)
    for a in rng.uniform(-1, 1, 100):
        assert directional_derivative(d.measure, a, 3, 1j) >= -1e-9


def test_directional_derivative_domain():
    with pytest.raises(ValueError):
        directional_derivative(UNIFORM3, 1.5, 2, 2.0)
