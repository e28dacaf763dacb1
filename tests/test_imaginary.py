import numpy as np
import numpy.polynomial.chebyshev as cheb
import pytest

from optpred import (
    closed_form_design,
    companion_zeros,
    extremal_signed_poly,
    growth_gap,
    growth_poly,
    growth_value,
    pell_companion,
    pell_residual,
)


def _t_coeffs(n):
    c = np.zeros(n + 1)
    c[n] = 1.0
    return c


def _u_coeffs(n):
    """U_n written in the T basis: 2(T_n + T_{n-2} + ...), T_0 term halved."""
    if n < 0:
        return np.zeros(1)
    c = np.zeros(n + 1)
    c[n % 2 :: 2] = 2.0
    if n % 2 == 0:
        c[0] = 1.0
    return c


def _growth_closed(n, a):
    """(1/s)(-(az + i) T_{n-1} + s (1 - z^2) U_{n-2}), assembled by chebmul."""
    s = np.sqrt(a * a + 1.0)
    c = cheb.chebmul([-1j, -a], _t_coeffs(n - 1))
    if n >= 2:
        one_minus_z2 = np.array([0.5, 0.0, -0.5])
        tail = s * cheb.chebmul(one_minus_z2, _u_coeffs(n - 2))
        c[: len(tail)] += tail
    return c / s


def _companion_closed(n, a):
    """(1/s)(s z U_{n-1} + a T_n), assembled by chebmul."""
    s = np.sqrt(a * a + 1.0)
    c = a * _t_coeffs(n)
    if n >= 1:
        c = c + s * cheb.chebmul([0.0, 1.0], _u_coeffs(n - 1))[: n + 1]
    return c / s


def test_growth_poly_degree_one():
    s = np.sqrt(2.0)
    np.testing.assert_allclose(growth_poly(1, 1.0).coeffs, [-1j / s, -1 / s],
                               atol=1e-15)


def test_growth_poly_degree_two():
    # (1/s)(-(a+s) z^2 - iz + s) at a=1
    s = np.sqrt(2.0)
    expected = [1 - (1 + s) / (2 * s), -1j / s, -(1 + s) / (2 * s)]
    np.testing.assert_allclose(growth_poly(2, 1.0).coeffs, expected, atol=1e-15)


def test_growth_poly_degree_three_by_hand_recurrence():
    q1 = growth_poly(1, 1.0).coeffs_padded(4)
    q2 = growth_poly(2, 1.0).coeffs_padded(4)
    hand = 2 * cheb.chebmul([0.0, 1.0], q2[:3])[:4] - q1
    np.testing.assert_allclose(growth_poly(3, 1.0).coeffs, hand, atol=1e-15)


@pytest.mark.parametrize("a", [0.25, 1.0, 4.0])
def test_growth_poly_matches_closed_form(a):
    for n in [*range(1, 13), 64, 191, 512]:
        got = growth_poly(n, a).coeffs
        np.testing.assert_allclose(got, _growth_closed(n, a), atol=1e-11)


@pytest.mark.parametrize("a", [0.001, 1.0, 4.0])
def test_growth_poly_has_three_chebyshev_terms(a):
    # Q_n = beta T_{|n-2|} - (i/s) T_{n-1} - gamma T_n: every other entry is 0
    rng = np.random.default_rng(5)
    for n in [1, 2, 3, *rng.integers(4, 512, 12), 512]:
        n = int(n)
        c = growth_poly(n, a).coeffs
        assert len(c) == n + 1
        assert set(np.flatnonzero(c)) <= {abs(n - 2), n - 1, n}


@pytest.mark.parametrize("a", [0.25, 1.0, 4.0])
def test_pell_companion_matches_closed_form(a):
    for n in [*range(0, 13), 64, 191, 512]:
        got = pell_companion(n, a).coeffs
        np.testing.assert_allclose(got, _companion_closed(n, a), atol=1e-11)


def test_pell_companion_low_degrees():
    s = np.sqrt(2.0)
    np.testing.assert_allclose(pell_companion(0, 1.0).coeffs, [1 / s], atol=1e-15)
    np.testing.assert_allclose(pell_companion(1, 1.0).coeffs, [0, (1 + s) / s],
                               atol=1e-15)
    # 2 z R_1 - R_0 = (2(1+sqrt2)z^2 - 1)/sqrt2 by hand
    r2 = pell_companion(2, 1.0)
    x = np.linspace(-1, 1, 9)
    np.testing.assert_allclose(
        r2(x).real, (2 * (1 + s) * x * x - 1) / s, atol=1e-14
    )
    assert np.all(r2.coeffs.imag == 0.0)


def test_domain_checks():
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            growth_poly(2, bad)
        with pytest.raises(ValueError):
            pell_companion(2, bad)
    with pytest.raises(ValueError):
        growth_poly(0, 1.0)
    with pytest.raises(ValueError):
        closed_form_design(2, 0.0)
    with pytest.raises(ValueError):
        growth_value(2, 0.0)
    for bad in (np.nan, np.inf, -np.inf):
        for f in (growth_poly, pell_companion, companion_zeros,
                  closed_form_design, growth_value, growth_gap):
            with pytest.raises(ValueError, match="a = .* is not finite"):
                f(3, bad)


def test_pell_residual_examples():
    assert pell_residual(3, 1.0, 1.0) <= 1e-14
    assert abs(growth_poly(3, 1.0)(1.0)) == pytest.approx(1.0, abs=1e-14)
    assert pell_residual(2, 1.0, 0.0) <= 1e-14
    assert pell_residual(7, 0.3, 0.42) <= 1e-10


def test_pell_residual_random():
    rng = np.random.default_rng(2)
    for _ in range(40):
        n = int(rng.integers(1, 21))
        a = 10.0 * (1.0 - rng.random())
        x = rng.uniform(-1, 1, 50)
        assert pell_residual(n, a, x).max() <= 1e-9
    for n in (64, 256, 512):
        a = 10.0 * (1.0 - rng.random())
        x = rng.uniform(-1, 1, 50)
        assert pell_residual(n, a, x).max() <= 1e-12


def test_companion_zeros_low_degree():
    np.testing.assert_allclose(companion_zeros(1, 1.0), [0.0], atol=1e-14)
    expected = 1.0 / np.sqrt(2 * (1 + np.sqrt(2)))
    np.testing.assert_allclose(companion_zeros(2, 1.0), [-expected, expected],
                               atol=1e-13)
    assert companion_zeros(0, 1.0).size == 0


@pytest.mark.parametrize("a", [0.25, 1.0, 4.0])
@pytest.mark.parametrize("n", [2, 3, 5, 8, 64, 191])
def test_companion_interlacing_and_signs(n, a):
    pts = np.cos(np.pi * np.arange(n, -1, -1) / n)
    zeros = companion_zeros(n, a)
    assert len(zeros) == n
    # strict interlacing with the extreme points of T_n
    assert np.all(zeros > pts[:-1]) and np.all(zeros < pts[1:])
    # sign alternation at the extreme points (increasing order reverses k)
    vals = pell_companion(n, a)(pts).real
    signs = (-1.0) ** np.arange(n, -1, -1)
    assert np.all(np.sign(vals) == signs)


def test_companion_zeros_symmetric():
    for n in (2, 3, 6):
        z = companion_zeros(n, 1.0)
        np.testing.assert_allclose(z, -z[::-1], atol=1e-13)


def test_closed_form_design_degree_one():
    for a in (-2.0, 0.5, 1.0):
        d = closed_form_design(1, a)
        np.testing.assert_array_equal(d.measure.nodes, [-1.0, 1.0])
        assert d.K_value == pytest.approx(a * a + 1, rel=1e-12)
        assert d.certified


def test_closed_form_design_degree_two():
    for a in (0.25, 1.0, 4.0):
        d = closed_form_design(2, a)
        np.testing.assert_allclose(d.measure.nodes, [-1.0, 0.0, 1.0], atol=1e-14)


def test_closed_form_design_degree_three():
    d = closed_form_design(3, 1.0)
    np.testing.assert_allclose(np.abs(d.measure.nodes[1:-1]),
                               0.45508986056222733, atol=1e-12)


@pytest.mark.parametrize("a", [0.25, 1.0, 4.0])
def test_closed_form_design_kernel_value(a):
    s = np.sqrt(a * a + 1.0)
    for n in range(1, 9):
        d = closed_form_design(n, a)
        assert d.K_value == pytest.approx((a * a + 1) * (a + s) ** (2 * n - 2),
                                          rel=1e-8)
        assert d.certified


def test_closed_form_design_reflection():
    for n in (1, 2, 3, 5):
        plus = closed_form_design(n, 1.5)
        minus = closed_form_design(n, -1.5)
        np.testing.assert_allclose(minus.measure.nodes,
                                   -plus.measure.nodes[::-1], atol=1e-14)
        assert minus.K_value == pytest.approx(plus.K_value, rel=1e-12)
        assert minus.certified


@pytest.mark.parametrize("n", [1, 2, 5, 8, 17, 32])
def test_closed_form_design_mirror_is_identical(n):
    # R_{n-1} has parity (-1)^(n-1): the support at -ai is the one at ai, and
    # weights and K at the mirrored point come out bit for bit the same
    for a in (0.01, 1.5):
        plus = closed_form_design(n, a)
        minus = closed_form_design(n, -a)
        assert np.array_equal(minus.measure.nodes, plus.measure.nodes)
        assert np.array_equal(minus.measure.weights, plus.measure.weights)
        assert minus.K_value == plus.K_value


def test_extremality_bridge():
    # growth polynomial equals -(i)^n times the signed extremal polynomial
    for a in (0.25, 1.0, 4.0):
        for n in range(1, 9):
            d = closed_form_design(n, a)
            q = growth_poly(n, a).coeffs_padded(n + 1)
            p = d.extremal_poly.coeffs_padded(n + 1)
            np.testing.assert_allclose(q, -(1j**n) * p, atol=1e-9)


def test_growth_value_examples():
    assert growth_value(1, 1.0) == pytest.approx(np.sqrt(2.0), rel=1e-14)
    assert growth_value(2, 1.0) == pytest.approx(np.sqrt(2) * (1 + np.sqrt(2)),
                                                 rel=1e-14)
    assert growth_value(2, 1.0) == pytest.approx(3.4142136, abs=5e-8)
    assert growth_value(5, 1e-9) == pytest.approx(1.0, rel=1e-7)


def test_growth_value_is_modulus_at_point():
    for a in (0.25, 1.0, 4.0, -2.0):
        for n in range(1, 11):
            q = growth_poly(n, abs(a))
            assert growth_value(n, a) == pytest.approx(abs(q(1j * abs(a))),
                                                       rel=1e-12)


def test_growth_gap_examples():
    lhs, rhs = growth_gap(1, 0.7)
    assert lhs == pytest.approx(np.sqrt(1.49) - 0.7, rel=1e-13)
    assert lhs == pytest.approx(rhs, rel=1e-13)
    lhs, rhs = growth_gap(2, 1.0)
    assert rhs == pytest.approx(np.sqrt(2.0) - 1.0, rel=1e-13)
    assert lhs == pytest.approx(np.sqrt(2) + 2 - 3, rel=1e-12)
    lhs, rhs = growth_gap(6, 2.5)
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, rhs)


def test_supports_depend_on_exterior_point():
    # unlike the real case, interior nodes move with a
    for n in (3, 4, 6):
        near = closed_form_design(n, 0.25).measure.nodes
        far = closed_form_design(n, 4.0).measure.nodes
        assert np.abs(near - far).max() > 1e-3


def test_bridge_against_direct_signed_combination():
    # same support, signed combination computed independently of Design
    for n, a in [(2, 0.5), (4, 1.0), (6, 4.0)]:
        nodes = np.concatenate(([-1.0], companion_zeros(n - 1, a), [1.0]))
        P = extremal_signed_poly(nodes, 1j * a)
        val = P(1j * a)
        assert abs(val.imag) <= 1e-10
        assert val.real == pytest.approx(
            np.sqrt(a * a + 1) * (a + np.sqrt(a * a + 1)) ** (n - 1), rel=1e-10
        )


def test_growth_value_never_below_chebyshev():
    for a in (0.1, 1.0, 5.0):
        for n in range(1, 11):
            s = np.sqrt(a * a + 1.0)
            # |T_n(ai)| = |(a+s)^n + (a-s)^n| / 2
            assert growth_value(n, a) >= abs((a + s) ** n + (a - s) ** n) / 2
