import json
import warnings

import numpy as np
import numpy.polynomial.chebyshev as cheb
import pytest
import scipy.fft

from optpred import (
    ChebPoly,
    as_nodes,
    extremal_signed_poly,
    lagrange_values,
    vandermonde,
)
from optpred.imaginary import closed_form_support, growth_poly
from optpred.polynomial import (
    _barycentric,
    _dct1,
    _lagrange_moduli,
    _lobatto,
    _lobatto_weights,
    _node_signs,
)
from polyhelp import (
    is_zero,
    lagrange_moduli_rows,
    lagrange_pairwise,
    lagrange_to_cheb_solve,
    padded,
    sup_norm_interval,
)

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
        # the point and the rows of a Vandermonde matrix meet the same rule
        for z in (bad, complex(0.0, bad)):
            with pytest.raises(ValueError, match="is not finite"):
                lagrange_values([-1.0, 0.0, 1.0], z)
        with pytest.raises(ValueError, match="x must be finite"):
            vandermonde([bad, 0.0, 1.0], 2)


def test_chebpoly_basics():
    p = ChebPoly([1.0, 0.0, 2.0, 0.0])
    assert p.degree == 2  # trailing zero dropped
    assert is_zero(ChebPoly([0.0, 0.0]))
    assert p(0.5) == pytest.approx(1.0 + 2.0 * (2 * 0.25 - 1), abs=1e-14)
    with pytest.raises(ValueError):
        ChebPoly([])
    with pytest.raises(ValueError):
        ChebPoly([np.nan])


def test_chebpoly_json_round_trip():
    # the design payload's "poly" block: [re, im] pairs that read back exactly
    p = ChebPoly([1.5, -2j, 0.25 + 0.5j])
    data = json.loads(json.dumps(p.to_json()))
    assert data["basis"] == "chebyshev"
    np.testing.assert_array_equal([complex(*c) for c in data["coeffs"]], p.coeffs)


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


def _perturbed_chebyshev(rng, n):
    """The Chebyshev extrema, each interior one moved by up to 0.3 of a gap."""
    x = np.cos(np.pi * np.arange(n, -1, -1) / n)
    x[1:-1] += rng.uniform(-0.3, 0.3, n - 1) * np.diff(x)[:-1] / 2
    return x


@pytest.mark.parametrize("n", [4, 32, 128, 256])
def test_lagrange_values_matches_pairwise_oracle(n):
    # each l_i(z0) to 1e-12 of its own modulus, near the interval and away
    rng = np.random.default_rng(n)
    for im in np.geomspace(1e-9, 3.0, 6):
        closed = closed_form_support(n, im)
        for x, z0 in ((closed, 1j * im),
                      (_perturbed_chebyshev(rng, n), complex(rng.uniform(-2, 2), -im))):
            oracle = lagrange_pairwise(x, z0)
            err = np.abs(lagrange_values(x, z0) - oracle) / np.abs(oracle)
            assert err.max() <= 1e-12, (n, z0, err.max())


def test_lagrange_moduli_down_columns_are_the_row_products():
    # _lagrange_moduli takes its products down the columns of the symmetric
    # ratio array; along the rows (polyhelp) each m_i multiplies the same
    # ratios in the same order, so the two agree bit for bit: on seeded
    # supports up to n = 512, at z0 next to a node, in the plane and so far
    # out that the products overflow to inf
    rng = np.random.default_rng(73)
    for n in (1, 2, 3, 8, 33, 64, 191, 256, 512):
        lobatto = _lobatto(n)
        perturbed = lobatto.copy()
        perturbed[1:-1] += rng.uniform(-0.2, 0.2, n - 1) * np.diff(lobatto)[:-1] / 2
        uniform = np.concatenate(([-1.0], np.sort(rng.uniform(-1, 1, n - 1)), [1.0]))
        for x in (lobatto, perturbed, uniform):
            k = int(rng.integers(0, n + 1))
            for z0 in (x[k] + 1e-9j, x[k] + rng.uniform(1e-12, 1e-6),
                       complex(rng.uniform(-2, 2), rng.uniform(0.01, 2)),
                       1e8, 1e30 * (1 + 1j)):
                d = np.abs(z0 - x)
                pairs = np.abs(np.subtract.outer(x, x))
                with np.errstate(over="ignore"):
                    want = lagrange_moduli_rows(d, pairs)
                    got = _lagrange_moduli(d, pairs)
                assert np.array_equal(got, want), (n, z0)
                if z0 == 1e30 * (1 + 1j) and n >= 64:
                    assert np.isinf(got).any(), n


def test_lagrange_values_on_node_and_real_point():
    x = _perturbed_chebyshev(np.random.default_rng(11), 16)
    for j in (0, 7, 16):
        for z in (x[j], complex(x[j])):
            expected = np.zeros(17)
            expected[j] = 1.0
            np.testing.assert_array_equal(lagrange_values(x, z), expected)
    assert lagrange_values(x, 1.5).dtype == np.float64
    assert lagrange_values(x, 1.5 + 0.5j).dtype == np.complex128
    np.testing.assert_allclose(lagrange_values(x, 1.5), lagrange_pairwise(x, 1.5),
                               rtol=1e-12)


def _assert_matches_solve(nodes, z0):
    """The coefficients of extremal_signed_poly, the Lagrange combination
    sum_i sgn(l_i(z0)) l_i, against the dense solve of its values at the
    nodes, to 1e-12 of the largest coefficient (or absolutely, when that is
    below 1)."""
    ell = lagrange_values(nodes, z0)
    oracle = lagrange_to_cheb_solve(nodes, np.conj(ell) / np.abs(ell))
    got = padded(extremal_signed_poly(nodes, z0), len(oracle))
    tol = 1e-12 * max(1.0, np.abs(oracle).max())
    err = np.abs(got - oracle).max()
    assert err <= tol, (len(nodes) - 1, err)


@pytest.mark.parametrize("n", [8, 64, 192, 512])
def test_from_lagrange_combination_matches_solve_on_closed_form_supports(n):
    for a in (0.5, 1.0):
        x = closed_form_support(n, a)
        _assert_matches_solve(x, 1j * a)


def test_from_lagrange_combination_matches_solve_on_perturbed_chebyshev():
    rng = np.random.default_rng(61)
    for _ in range(40):
        n = int(rng.integers(2, 129))
        x = np.cos(np.pi * np.arange(n, -1, -1) / n)
        x[1:-1] += rng.uniform(-0.3, 0.3, n - 1) * np.diff(x)[:-1] / 2
        z0 = complex(rng.uniform(-2, 2), rng.uniform(0.1, 2))
        _assert_matches_solve(x, z0)


def test_from_lagrange_combination_lobatto_point_on_node():
    # the Lobatto points cos(k pi / n) include 0 for even n: on the Lobatto
    # support itself every point is a node, and on a perturbed support with
    # x_{n/2} = 0 kept exact, one point is
    rng = np.random.default_rng(67)
    for n in (2, 8, 16, 64):
        lobatto = np.sin(np.pi * np.arange(-n, n + 1, 2) / (2 * n))
        perturbed = lobatto.copy()
        perturbed[1:-1] += rng.uniform(-0.2, 0.2, n - 1) * np.diff(lobatto)[:-1] / 2
        perturbed[n // 2] = 0.0
        for x in (lobatto, perturbed):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                _assert_matches_solve(x, 0.5 + 0.5j)


def test_barycentric_reproduces_polynomial_from_lobatto_values():
    # a random degree-n polynomial is its own interpolant at the n + 1
    # Lobatto points; points on a Lobatto point take its value exactly
    rng = np.random.default_rng(41)
    for n in (1, 2, 7, 64, 255):
        c = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        x = _lobatto(n)
        values = cheb.chebval(x, c)
        t = np.sort(np.concatenate((rng.uniform(-1, 1, 50), x[[0, n // 2, -1]])))
        got = _barycentric(t, x, _lobatto_weights(n), values)[0]
        scale = np.abs(c).sum()
        assert np.abs(got - cheb.chebval(t, c)).max() <= 1e-14 * scale, n
        for j in (0, n // 2, n):
            assert got[np.searchsorted(t, x[j])] == values[j], (n, j)
    # any node set, with the weights 1/prod_k (x_j - x_k)
    x = np.array([-1.0, -0.3, 0.2, 0.9, 1.0])
    b = 1.0 / np.array([np.prod(xj - np.delete(x, j)) for j, xj in enumerate(x)])
    c = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    t = np.array([-1.0, -0.5, 0.2, 0.95])
    got, den, d, hits = _barycentric(t, x, b, cheb.chebval(x, c))
    assert np.abs(got - cheb.chebval(t, c)).max() <= 1e-14 * np.abs(c).sum()
    assert got[2] == cheb.chebval(0.2, c)
    # with these weights the denominators are 1/l(t) for the node polynomial
    # l, and infinite on a node
    ell = np.prod(np.subtract.outer(t, x), axis=1)
    assert np.allclose(den[[1, 3]] * ell[[1, 3]], 1.0, rtol=1e-14, atol=0.0)
    assert den[0] == den[2] == np.inf
    # the array handed back holds b_j / (t - x_j) off the nodes, and the
    # hits (t_i, x_j) = (-1, -1) and (0.2, 0.2)
    assert np.array_equal(d[[1, 3]], b / np.subtract.outer(t[[1, 3]], x))
    assert [k.tolist() for k in hits] == [[0, 2], [0, 2]]


def test_lobatto_grids_are_cached_read_only():
    for m in (1, 8, 384):
        assert _lobatto(m) is _lobatto(m)
        with pytest.raises(ValueError, match="read-only"):
            _lobatto(m)[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        _lobatto_weights(8)[0] = 0.0
    # the weights halve the ends of a copy of the cached signs
    assert _node_signs(9) is _node_signs(9)
    assert _node_signs(9).tolist() == [1.0, -1.0] * 4 + [1.0]
    assert _lobatto_weights(8)[[0, -1]].tolist() == [0.5, 0.5]
    with pytest.raises(ValueError, match="read-only"):
        _node_signs(9)[0] = 0.0


def test_dct1_matches_scipy():
    rng = np.random.default_rng(23)
    for size in range(2, 1025):
        v = rng.standard_normal(size)
        for x in (v, v + 1j * rng.standard_normal(size)):
            y, ref = _dct1(x), scipy.fft.dct(x, type=1)
            assert y.dtype == ref.dtype
            assert np.linalg.norm(y - ref) <= 1e-15 * np.linalg.norm(ref)
    # scipy refuses N = 1; the even extension of one entry is itself
    for x in (np.array([0.75]), np.array([0.75 - 2j])):
        assert np.array_equal(_dct1(x), x)


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
    coeffs = np.array([padded(p, 81) for p in polys]).T
    sampled = np.zeros(len(polys))
    for block in np.array_split(np.cos(np.linspace(np.pi, 0.0, 200_001)), 20):
        values = cheb.chebvander(block, 80) @ coeffs
        sampled = np.maximum(sampled, np.abs(values).max(axis=0))
    for p, grid_max in zip(polys, sampled):
        est = sup_norm_interval(p)
        assert grid_max <= est.value * (1 + 1e-12)
        assert abs(p(est.argmax)) == est.value
