import math

import numpy as np
import pytest

from optpred import (
    Certificate,
    Design,
    DiscreteMeasure,
    certify,
    christoffel,
    design_from_support,
    extremal_signed_poly,
    hoel_levine_weights,
    kernel_poly,
    lagrange_values,
    optimize_support,
    require_exterior,
)
from optpred.imaginary import closed_form_design

NODES3 = np.array([-1.0, 0.0, 1.0])


def _cheb_t_squared(n, x):
    """T_n(x)^2 at real |x| > 1 in closed form, cosh(n acosh|x|)^2."""
    return math.cosh(n * math.acosh(abs(x))) ** 2


def _lebesgue(nodes, z0):
    """Lebesgue function sum_i |l_i(z0)|; its square is K under Hoel-Levine weights."""
    return float(np.sum(np.abs(lagrange_values(nodes, z0))))


def test_require_exterior():
    for bad in (0.5, 1.0, -1.0, 0.5 + 1e-13j, complex(-0.3, 0),
                np.nan, np.inf, complex(0, np.nan)):
        with pytest.raises(ValueError):
            require_exterior(bad)
    for good in (1.5, -3.0, 1j, 1 + 1j, 0.5 + 1e-9j):
        require_exterior(good)


def test_hoel_levine_two_point_imaginary():
    for a in (0.5, 1.0, 4.0):
        w = hoel_levine_weights(np.array([-1.0, 1.0]), a * 1j)
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-15)


def test_hoel_levine_hand_value():
    w = hoel_levine_weights(NODES3, 2.0)
    np.testing.assert_allclose(w, np.array([1.0, 3.0, 3.0]) / 7.0, atol=1e-14)
    assert abs(w.sum() - 1.0) <= 1e-14


def test_hoel_levine_chebyshev_nodes_give_squared_chebyshev():
    for n in (2, 3, 5):
        nodes = np.cos(np.pi * np.arange(n, -1, -1) / n)
        for z0 in (1.5, 2.0):
            mu = DiscreteMeasure(nodes, hoel_levine_weights(nodes, z0))
            K = christoffel(mu, n, z0)
            assert K == pytest.approx(_cheb_t_squared(n, z0), rel=1e-10)


def test_hoel_levine_rejects_node_point():
    for f in (hoel_levine_weights, extremal_signed_poly):
        with pytest.raises(ValueError, match="is a node"):
            f(NODES3, 0.0)
    for bad in (np.nan, np.inf, complex(0, np.nan)):
        with pytest.raises(ValueError, match="not finite"):
            hoel_levine_weights(NODES3, bad)


def test_lebesgue_values():
    assert _lebesgue(NODES3, 2.0) == pytest.approx(7.0, rel=1e-13)
    for x in NODES3:
        assert _lebesgue(NODES3, x) == pytest.approx(1.0, abs=1e-14)
    for a in (0.5, 1.0, 2.0):
        assert _lebesgue(np.array([-1.0, 1.0]), a * 1j) == pytest.approx(
            np.sqrt(1 + a * a), rel=1e-13
        )


def test_lebesgue_squared_is_kernel_value():
    rng = np.random.default_rng(13)
    for _ in range(25):
        g = 0.4 + rng.random(4)
        x = np.concatenate(([0.0], np.cumsum(g)))
        nodes = -1.0 + 2.0 * x / x[-1]
        z0 = rng.uniform(1.1, 2.5) + 1j * rng.uniform(0, 1)
        mu = DiscreteMeasure(nodes, hoel_levine_weights(nodes, z0))
        K = christoffel(mu, len(nodes) - 1, z0)
        assert K == pytest.approx(_lebesgue(nodes, z0) ** 2, rel=1e-10)


def test_extremal_signed_poly_two_point():
    for a in (0.5, 1.0, 2.0):
        P = extremal_signed_poly(np.array([-1.0, 1.0]), a * 1j)
        s = np.sqrt(a * a + 1)
        np.testing.assert_allclose(P.coeffs, [1 / s, -1j * a / s], atol=1e-14)


def test_extremal_signed_poly_three_point_imaginary():
    # coefficients (1/s)(-(a+s), -i, s) on (z^2, z, 1), Chebyshev converted
    for a in (0.5, 1.0, 2.0):
        s = np.sqrt(a * a + 1)
        P = extremal_signed_poly(NODES3, a * 1j)
        expected = [1 - (a + s) / (2 * s), -1j / s, -(a + s) / (2 * s)]
        np.testing.assert_allclose(P.coeffs_padded(3), expected, atol=1e-14)


def test_extremal_signed_poly_rejects_nonfinite_point():
    for bad in (np.nan, np.inf, complex(0, np.nan)):
        with pytest.raises(ValueError, match="not finite"):
            extremal_signed_poly(NODES3, bad)


def test_extremal_signed_poly_real_point_is_chebyshev():
    P = extremal_signed_poly(NODES3, 2.0)
    np.testing.assert_allclose(P.coeffs_padded(3), [0, 0, 1.0], atol=1e-14)


def test_extremal_poly_attains_lebesgue_value():
    rng = np.random.default_rng(19)
    for _ in range(20):
        g = 0.4 + rng.random(5)
        x = np.concatenate(([0.0], np.cumsum(g)))
        nodes = -1.0 + 2.0 * x / x[-1]
        z0 = rng.uniform(-2, 2) + 1j * rng.uniform(0.3, 1.5)
        P = extremal_signed_poly(nodes, z0)
        val = P(z0)
        assert abs(val.imag) <= 1e-10
        assert val.real == pytest.approx(_lebesgue(nodes, z0), abs=1e-10)


def test_extremal_signed_poly_matches_kernel_poly():
    rng = np.random.default_rng(23)
    for _ in range(20):
        g = 0.4 + rng.random(4)
        x = np.concatenate(([0.0], np.cumsum(g)))
        nodes = -1.0 + 2.0 * x / x[-1]
        z0 = rng.uniform(1.2, 3) * (1 if rng.random() < 0.5 else 1j)
        mu = DiscreteMeasure(nodes, hoel_levine_weights(nodes, z0))
        P = extremal_signed_poly(nodes, z0)
        Q = kernel_poly(mu, len(nodes) - 1, z0)
        np.testing.assert_allclose(P.coeffs_padded(len(nodes)),
                                   Q.coeffs_padded(len(nodes)), atol=1e-10)


def test_hoel_levine_weights_are_optimal():
    rng = np.random.default_rng(31)
    nodes = np.array([-1.0, -0.4, 0.3, 1.0])
    z0 = 1.7 + 0.2j
    mu = DiscreteMeasure(nodes, hoel_levine_weights(nodes, z0))
    best = christoffel(mu, 3, z0)
    for _ in range(100):
        w = mu.weights * np.exp(0.3 * rng.standard_normal(4))
        perturbed = DiscreteMeasure(nodes, w / w.sum())
        assert best <= christoffel(perturbed, 3, z0) * (1 + 1e-12)


def test_design_validation():
    d = design_from_support(2, 2.0, NODES3)
    assert d.certified
    with pytest.raises(ValueError):
        design_from_support(2, 2.0, np.array([-0.9, 0.0, 1.0]))
    with pytest.raises(ValueError):
        design_from_support(3, 2.0, NODES3)
    with pytest.raises(TypeError):
        design_from_support(2.0, 2.0, NODES3)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="nodes must be finite"):
            design_from_support(2, 2.0, np.array([-1.0, bad, 1.0]))


def test_design_json_round_trip():
    d = design_from_support(2, 1j, NODES3)
    d2 = Design.from_json(d.to_json())
    np.testing.assert_array_equal(d2.measure.nodes, d.measure.nodes)
    np.testing.assert_array_equal(d2.measure.weights, d.measure.weights)
    assert d2.z0 == d.z0 and d2.n == d.n and d2.K_value == d.K_value
    np.testing.assert_array_equal(d2.extremal_poly.coeffs, d.extremal_poly.coeffs)
    assert d2.certificate == d.certificate
    # re-certification reproduces the stored certificate
    fresh = certify(d2)
    assert fresh.sup_norm == pytest.approx(d.certificate.sup_norm, abs=1e-12)
    assert fresh.duality_gap == pytest.approx(d.certificate.duality_gap, abs=1e-12)


def test_certify_closed_form_designs():
    for n in range(1, 9):
        d = closed_form_design(n, 1.0)
        assert d.certified
        np.testing.assert_allclose(d.certificate.on_support_moduli, 1.0, atol=1e-9)
        assert d.certificate.l2_mu_norm == pytest.approx(1.0, abs=1e-10)


def test_certify_detects_perturbed_node():
    d = closed_form_design(3, 1.0)
    nodes = d.measure.nodes.copy()
    nodes[1] += 1e-2
    perturbed = design_from_support(3, 1j, nodes)
    assert perturbed.certificate.max_violation > 0


def test_two_point_design_always_certified():
    for z0 in (1.5, -2.0, 1j, 0.7 + 0.9j, -1.2 - 3j):
        d = design_from_support(1, z0, np.array([-1.0, 1.0]))
        assert d.certified


def test_optimize_support_real_point():
    d = optimize_support(4, 1.5)
    expected = np.cos(np.pi * np.arange(3, 0, -1) / 4)
    np.testing.assert_allclose(d.measure.nodes[1:-1], expected, atol=1e-6)
    assert d.K_value == pytest.approx(_cheb_t_squared(4, 1.5), rel=1e-8)
    assert d.certified


@pytest.mark.parametrize("n, a", [(3, 1.0), (24, 1.0), (32, 1.0), (6, 0.001)])
def test_optimize_support_imaginary_point(n, a):
    d = optimize_support(n, 1j * a)
    np.testing.assert_allclose(
        d.measure.nodes, closed_form_design(n, a).measure.nodes, atol=1e-6
    )
    assert d.certified


# the cases a near-zero start coordinate used to stall: 6e-17 where the
# Chebyshev start has an exact 0 spoils MINPACK's difference Jacobian
@pytest.mark.parametrize("n, z0", [(2, 1 + 1j), (2, 0.5 + 0.5j), (4, 2.0), (8, 1.2j)])
def test_optimize_support_certifies_from_symmetric_start(n, z0):
    d = optimize_support(n, z0)
    assert d.certified, d.certificate


@pytest.mark.parametrize("a", [0.001, 0.01, 1.0])
@pytest.mark.parametrize("n", [3, 8, 32])
def test_optimize_support_nodes_to_rounding(n, a):
    d = optimize_support(n, 1j * a)
    exact = closed_form_design(n, a).measure.nodes
    assert np.abs(d.measure.nodes - exact).max() <= 1e-12


def test_optimize_support_general_complex_point():
    d = optimize_support(2, 1 + 1j)
    assert d.certified
    assert d.certificate.max_violation <= 1e-8


def test_optimize_support_rejects_interior_point():
    with pytest.raises(ValueError):
        optimize_support(3, 0.2)
    with pytest.raises(ValueError):
        optimize_support(0, 2.0)
    for bad in (np.nan, np.inf, complex(0, np.nan)):
        with pytest.raises(ValueError, match="not finite"):
            optimize_support(4, bad)
    for bad in (2.5, 2.0):
        with pytest.raises(TypeError):
            optimize_support(bad, 2.0)


def test_optimize_support_degree_one():
    d = optimize_support(1, 2 + 1j)
    np.testing.assert_array_equal(d.measure.nodes, [-1.0, 1.0])
    assert d.certified


def test_optimize_support_deterministic():
    a = optimize_support(3, 1.2 + 0.7j)
    b = optimize_support(3, 1.2 + 0.7j)
    np.testing.assert_array_equal(a.measure.nodes, b.measure.nodes)
    assert a.K_value == b.K_value


def test_optimize_support_warns_when_uncertified(monkeypatch):
    # below zero, so that no certificate passes whatever the rounding
    monkeypatch.setattr("optpred.design._CERT_TOL", -1.0)
    with pytest.warns(UserWarning, match="failed certification") as record:
        d = optimize_support(4, 2j)
    assert not d.certified
    assert len(d.measure.nodes) == 5
    message = str(record[0].message)
    for field in ("max_violation", "duality_gap", "residual", "solver:"):
        assert field in message


def test_certificate_json_round_trip():
    d = design_from_support(2, 2.0, NODES3)
    c = Certificate.from_json(d.certificate.to_json())
    assert c == d.certificate
    assert d.certificate.to_json()["certified"] is True
