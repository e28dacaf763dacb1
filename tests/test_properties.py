"""Property tests: optimize_support certifies at random exterior points.

On the real axis the optimal nodes are the Chebyshev extrema and
K = T_n(x)^2 = cosh(n acosh|x|)^2; on the imaginary axis the closed-form
design gives the nodes and K = (a^2 + 1)(|a| + sqrt(a^2 + 1))^(2n - 2).
Everywhere else K is bracketed by two closed forms: |T_n(z0)|^2 <= K on
every support, and K <= |phi(z0)|^(2n) on a certified one.
"""

import cmath
import math
import warnings

import numpy as np
import numpy.polynomial.chebyshev as cheb
from hypothesis import example, given, settings
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
# points where damped, step-capped and Newton-first variants of Newton fail
@example(n=7, re=0.125, im=-0.015625)
@example(n=10, re=0.125, im=-0.01)
@example(n=31, re=0.125, im=-0.015625)
# near-band points where MINPACK's hybrid method stopped uncertified
@example(n=7, re=0.8319432471450254, im=0.01220590673145695)
@example(n=10, re=0.8724417875710577, im=0.010896119317311766)
def test_complex_point_certifies(n, re, im):
    _certified(n, complex(re, im))


def test_kernel_value_within_closed_form_bracket():
    # K = Lambda^2 >= |p(z0)|^2 for every p with |p| <= 1 at the nodes, T_n
    # among them; a certified design has sup |P| = 1 on [-1, 1], so K =
    # |P(z0)|^2 <= |phi(z0)|^(2n) by the Bernstein-Walsh inequality, with
    # phi(z) = z + sqrt(z - 1) sqrt(z + 1), the branch with |phi| > 1
    rng = np.random.default_rng(5)
    certified = 0
    for _ in range(100):
        n = int(rng.integers(2, 33))
        re = rng.uniform(-2, 2)
        z0 = complex(re, 10 ** rng.uniform(-9, 0.5) * rng.choice([-1, 1]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            d = optimize_support(n, z0)
        log_K = math.log(d.K_value)
        t_n = cheb.chebval(z0, [0.0] * n + [1.0])
        assert log_K >= 2.0 * math.log(abs(t_n)) - 1e-12, (n, z0)
        if d.certified:
            certified += 1
            phi = z0 + cmath.sqrt(z0 - 1) * cmath.sqrt(z0 + 1)
            assert log_K <= 2 * n * math.log(abs(phi)) + 1e-12, (n, z0)
    assert certified >= 50
