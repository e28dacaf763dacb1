"""Property tests: optimize_support certifies at random exterior points.

On the real axis the optimal nodes are the Chebyshev extrema and
K = T_n(x)^2 = cosh(n acosh|x|)^2; on the imaginary axis the closed-form
design gives the nodes and K = (a^2 + 1)(|a| + sqrt(a^2 + 1))^(2n - 2).
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from optpred import closed_form_design, optimize_support

DEGREES = st.integers(1, 32)
SIGNS = st.sampled_from([-1.0, 1.0])
PROPERTY = settings(max_examples=60, derandomize=True, deadline=None)


def _signed(low, high):
    return st.builds(lambda s, v: s * v, SIGNS, st.floats(low, high))


def _certified(n, z0):
    d = optimize_support(n, z0)
    assert d.certified, (n, z0, d.certificate)
    return d


@PROPERTY
@given(n=DEGREES, x=_signed(1.01, 4.0))
def test_real_point_certifies_at_chebyshev_extrema(n, x):
    d = _certified(n, x)
    extrema = np.cos(np.pi * np.arange(n, -1, -1) / n)
    assert np.abs(d.measure.nodes - extrema).max() <= 1e-6
    log_K = 2.0 * math.log(math.cosh(n * math.acosh(abs(x))))
    assert abs(math.log(d.K_value) - log_K) <= 1e-8


@PROPERTY
@given(n=DEGREES, a=_signed(0.01, 4.0))
def test_imaginary_point_certifies_at_closed_form(n, a):
    d = _certified(n, 1j * a)
    exact = closed_form_design(n, a).measure.nodes
    assert np.abs(d.measure.nodes - exact).max() <= 1e-6
    s = math.sqrt(a * a + 1.0)
    log_K = math.log(a * a + 1.0) + (2 * n - 2) * math.log(abs(a) + s)
    assert abs(math.log(d.K_value) - log_K) <= 1e-8


@PROPERTY
@given(n=DEGREES, re=st.floats(-3.0, 3.0), im=_signed(0.01, 3.0))
def test_complex_point_certifies(n, re, im):
    _certified(n, complex(re, im))
