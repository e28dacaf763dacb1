import numpy as np
import numpy.polynomial.chebyshev as cheb
import pytest

from optpred import (
    ChebPoly,
    as_nodes,
    from_lagrange_combination,
    lagrange_values,
    sup_norm_interval,
)
from optpred.imaginary import growth_poly

NODES3 = np.array([-1.0, 0.0, 1.0])


def test_as_nodes_validation():
    with pytest.raises(ValueError):
        as_nodes([0.5])
    with pytest.raises(ValueError):
        as_nodes([-1.2, 0.0, 1.0])
    with pytest.raises(ValueError):
        as_nodes([0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        as_nodes([0.5, -0.5])


def test_nonfinite_nodes_rejected():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="nodes must be finite"):
            as_nodes([-1.0, bad, 1.0])
        with pytest.raises(ValueError, match="nodes must be finite"):
            lagrange_values([-1.0, bad, 1.0], 2.0)


def test_chebpoly_basics():
    p = ChebPoly([1.0, 0.0, 2.0, 0.0])
    assert p.degree == 2  # trailing zero dropped
    assert ChebPoly([0.0, 0.0]).is_zero()
    assert p(0.5) == pytest.approx(1.0 + 2.0 * (2 * 0.25 - 1), abs=1e-14)
    q = p.reflected()
    xs = np.linspace(-1, 1, 11)
    np.testing.assert_allclose(q(xs), p(-xs), atol=1e-14)
    with pytest.raises(ValueError):
        ChebPoly([])
    with pytest.raises(ValueError):
        ChebPoly([np.nan])


def test_chebpoly_json_round_trip():
    p = ChebPoly([1.5, -2j, 0.25 + 0.5j])
    q = ChebPoly.from_json(p.to_json())
    np.testing.assert_array_equal(p.coeffs, q.coeffs)
    assert p.to_json()["basis"] == "chebyshev"
    with pytest.raises(ValueError):
        ChebPoly.from_json({"basis": "monomial", "coeffs": [[1, 0]]})


def test_lagrange_values_examples():
    # l_0(z) = z(z-1)/2 at z=2
    assert lagrange_values(NODES3, 2.0)[0] == pytest.approx(1.0, abs=1e-14)
    # cardinal property of l_1
    for j, x in enumerate(NODES3):
        assert lagrange_values(NODES3, x)[1] == pytest.approx(
            1.0 if j == 1 else 0.0, abs=1e-14
        )
    # l_1(z) = 1 - z^2 at z=2
    assert lagrange_values(NODES3, 2.0)[1] == pytest.approx(-3.0, abs=1e-13)


def test_lagrange_values_matches_product_formula():
    nodes = np.array([-1.0, -0.3, 0.2, 0.9, 1.0])
    z = 1.7 + 0.4j
    ell = lagrange_values(nodes, z)
    for i, xi in enumerate(nodes):
        # l_i(z) = prod_{j != i} (z - x_j) / (x_i - x_j), one factor at a time
        expected = 1.0
        for j, xj in enumerate(nodes):
            if j != i:
                expected *= (z - xj) / (xi - xj)
        assert ell[i] == pytest.approx(expected, rel=1e-13)


def test_partition_of_unity():
    rng = np.random.default_rng(3)
    nodes = np.array([-1.0, -0.6, -0.1, 0.4, 1.0])
    for _ in range(50):
        z = rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2)
        assert abs(lagrange_values(nodes, z).sum() - 1.0) <= 1e-12


def test_from_lagrange_combination_examples():
    p = from_lagrange_combination(np.array([-1.0, 1.0]), [-1.0, 1.0])
    np.testing.assert_allclose(p.coeffs, [0.0, 1.0], atol=1e-14)
    t2 = from_lagrange_combination(NODES3, [1.0, -1.0, 1.0])
    np.testing.assert_allclose(t2.coeffs, [0.0, 0.0, 1.0], atol=1e-14)
    const = from_lagrange_combination(NODES3, [1.0, 1.0, 1.0])
    np.testing.assert_allclose(const.coeffs, [1.0], atol=1e-14)
    with pytest.raises(ValueError):
        from_lagrange_combination(NODES3, [1.0, 2.0])


def test_interpolation_round_trip():
    rng = np.random.default_rng(5)
    nodes = np.array([-1.0, -0.7, -0.2, 0.3, 0.8, 1.0])
    for _ in range(25):
        c = rng.standard_normal(len(nodes)) + 1j * rng.standard_normal(len(nodes))
        p = ChebPoly(c)
        q = from_lagrange_combination(nodes, p(nodes))
        np.testing.assert_allclose(q.coeffs_padded(len(c)), c, atol=1e-11)


def test_sup_norm_t5():
    t5 = ChebPoly([0, 0, 0, 0, 0, 1.0])
    est = sup_norm_interval(t5)
    assert est.value == pytest.approx(1.0, abs=1e-12)
    assert abs(t5(est.argmax)) == pytest.approx(est.value, abs=1e-13)
    expected = np.cos(np.pi * np.arange(5, -1, -1) / 5)
    assert len(est.near_extreme_points) == 6
    np.testing.assert_allclose(est.near_extreme_points, expected, atol=1e-9)


def test_sup_norm_growth_poly():
    est = sup_norm_interval(growth_poly(2, 1.0))
    assert est.value == pytest.approx(1.0, abs=1e-10)


def test_sup_norm_linear():
    est = sup_norm_interval(ChebPoly([0.0, 2.0]))
    assert est.value == pytest.approx(2.0, abs=1e-12)
    assert abs(est.argmax) == pytest.approx(1.0, abs=1e-12)


def test_sup_norm_scaling():
    rng = np.random.default_rng(9)
    c = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    base = sup_norm_interval(ChebPoly(c)).value
    for factor in [0.125, 3.0, -2.5, 1j * 4]:
        scaled = sup_norm_interval(ChebPoly(c * factor)).value
        assert scaled == pytest.approx(abs(factor) * base, rel=1e-12)
    with pytest.raises(ValueError):
        sup_norm_interval(ChebPoly([0.0]))


def test_sup_norm_never_below_fine_grid():
    # the certificate uses no grid; |p| sampled on 200 001 Chebyshev-spaced
    # points cross-checks it, in blocks of one Vandermonde product each
    rng = np.random.default_rng(17)
    polys = [ChebPoly(rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1))
             for d in range(81)]
    coeffs = np.array([p.coeffs_padded(81) for p in polys]).T
    sampled = np.zeros(len(polys))
    for block in np.array_split(np.cos(np.linspace(np.pi, 0.0, 200_001)), 20):
        values = cheb.chebvander(block, 80) @ coeffs
        sampled = np.maximum(sampled, np.abs(values).max(axis=0))
    for p, grid_max in zip(polys, sampled):
        est = sup_norm_interval(p)
        assert grid_max <= est.value * (1 + 1e-12)
        assert abs(p(est.argmax)) == est.value
