"""Chebyshev polynomials T_n as the package evaluates them.

T_n is the unit series ChebPoly(e_n), and growth_gap reads T_n(ai) from one
chebvander row; both are checked against closed forms that need no numpy.
"""

import numpy as np
import pytest

from optpred import (
    ChebPoly,
    companion_zeros,
    growth_gap,
    growth_poly,
    growth_value,
    pell_companion,
)


def _t(n):
    c = np.zeros(n + 1)
    c[n] = 1.0
    return ChebPoly(c)


def test_t_known_values():
    assert _t(3)(0.5) == pytest.approx(-1.0, abs=1e-14)
    assert _t(7)(1.0) == pytest.approx(1.0, abs=1e-14)
    # (i^2/2)((1+sqrt2)^2 + (1-sqrt2)^2) = -3, also 2i^2 - 1
    assert _t(2)(1j) == pytest.approx(-3.0 + 0j, abs=1e-14)


def test_t_array_argument():
    x = np.linspace(-1, 1, 7)
    np.testing.assert_allclose(_t(2)(x), 2 * x * x - 1, atol=1e-14)


@pytest.mark.parametrize("seed", [0, 1])
def test_imaginary_axis_closed_forms(seed):
    rng = np.random.default_rng(seed)
    for _ in range(250):
        n = int(rng.integers(1, 21))
        a = 10.0 * (1.0 - rng.random())
        s = np.sqrt(a * a + 1.0)
        t_closed = (1j**n / 2.0) * ((a + s) ** n + (a - s) ** n)
        assert abs(_t(n)(a * 1j) - t_closed) <= 1e-11 * abs(t_closed)
        lhs, _ = growth_gap(n, a)
        expected = growth_value(n, a) - abs(t_closed)
        assert abs(lhs - expected) <= 1e-11 * abs(t_closed)


def test_degree_validation():
    with pytest.raises(ValueError):
        pell_companion(-1, 1.0)
    with pytest.raises(ValueError):
        growth_poly(0, 1.0)
    with pytest.raises(ValueError):
        growth_poly(513, 1.0)
    with pytest.raises(ValueError):
        companion_zeros(513, 1.0)
    with pytest.raises(TypeError):
        growth_poly(2.5, 1.0)
    with pytest.raises(TypeError):
        growth_gap(2.5, 1.0)
