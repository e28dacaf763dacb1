"""Closed-form optimal designs for purely imaginary exterior points z0 = ai.

Two polynomial families drive everything.  With s = sqrt(a^2 + 1), a > 0,
beta = (s - a)/(2s) and gamma = (a + s)/(2s), both have short Chebyshev forms:

    growth_poly:     Q_n = beta T_{|n-2|} - (i/s) T_{n-1} - gamma T_n,  n >= 1
    pell_companion:  R_n = U_n + (a/s - 1) T_n,                        n >= 0

Both also obey p_{k+1} = 2z p_k - p_{k-1}: 2z T_j = T_{j+1} + T_{j-1} shifts
the three terms of Q_n up by one index.  At n = 1, T_{-1} = T_1 merges the
first and last terms of Q_1 into (beta - gamma) T_1 = -(a/s) T_1.

They satisfy the Pell-type identity |Q_n(x)|^2 - (x^2 - 1) R_{n-1}(x)^2 = 1
on the real line, which pins |Q_n| = 1 exactly at the endpoints and at the
zeros of R_{n-1} and below 1 elsewhere on [-1, 1].  Those points, with
Hoel-Levine weights, form the optimal prediction design for ai, the kernel
value is (a^2+1)(|a| + s)^{2n-2}, and Q_n is (up to the phase -(i)^n) the
polynomial of extremal growth.  R_{n-1} has parity (-1)^(n-1), so its zeros
are symmetric about 0 and one support serves both ai and -ai.
"""

import math

import numpy as np
import numpy.polynomial.chebyshev as cheb

from .design import design_from_support
from .polynomial import ChebPoly, _check_degree


def _check_a(a, positive=True):
    """a as a float, finite and nonzero; positive unless the caller reflects."""
    a = float(a)
    if not math.isfinite(a):
        raise ValueError(f"a = {a} is not finite")
    if a == 0:
        raise ValueError("a must be nonzero; ai must be exterior to [-1, 1]")
    if positive and a < 0:
        raise ValueError(f"a must be positive, got {a}; reflect at the caller for a < 0")
    return a


def growth_poly(n, a):
    """Q_n for a > 0: beta T_{|n-2|} - (i/s) T_{n-1} - gamma T_n, no other terms."""
    _check_degree(n, lowest=1)
    a = _check_a(a)
    s = np.sqrt(a * a + 1.0)
    c = np.zeros(n + 1, dtype=complex)
    # beta = (s - a)/(2s) written without the cancellation in s - a
    c[abs(n - 2)] = 1.0 / (2 * s * (a + s))
    c[n - 1] -= 1j / s
    c[n] -= (a + s) / (2 * s)  # at n = 1 this merges into T_1 with beta
    return ChebPoly(c)


def pell_companion(n, a):
    """R_n for a > 0: U_n + (a/s - 1) T_n; real coefficients, parity (-1)^n.

    U_n in the T basis is 2 T_n + 2 T_{n-2} + ..., its T_0 term counted once,
    so the entries of the other parity are exact zeros.
    """
    _check_degree(n)
    a = _check_a(a)
    s = np.sqrt(a * a + 1.0)
    c = np.zeros(n + 1)
    c[n % 2 :: 2] = 2.0
    c[0] /= 2
    # subtracting 1 before adding a/s keeps R_0 = a/s exact
    c[n] = c[n] - 1.0 + a / s
    return ChebPoly(c)


def pell_residual(n, a, x):
    """|  |Q_n(x)|^2 - (x^2 - 1) R_{n-1}(x)^2 - 1  | at real x; 0 in exact math."""
    q = growth_poly(n, a)(x)
    r = pell_companion(n - 1, a)(x)
    return np.abs(np.abs(q) ** 2 - (x * x - 1.0) * (r * r).real - 1.0)


def companion_zeros(n, a):
    """All n zeros of R_n in increasing order, as the eigenvalues of its
    colleague matrix (chebroots).

    The zeros are real, simple and strictly interlace the extreme points
    cos(k pi / n) of T_n, where R_n alternates sign as (-1)^k; the real parts
    of the eigenvalues are taken because rounding may leave a tiny imaginary
    part.  closed_form_design hands them to design_from_support, which
    rejects a support that is unordered or leaves [-1, 1].
    """
    _check_degree(n)
    a = _check_a(a)
    return np.sort(cheb.chebroots(pell_companion(n, a).coeffs.real).real)


def closed_form_design(n, a):
    """The optimal design at z0 = ai without any optimizer run.

    Support is {-1} union zeros(R_{n-1}(|a|)) union {+1}, the same for a and
    -a since the zeros are symmetric.  Weights, kernel value, extremal
    polynomial and certificate are assembled the same way the numerical route
    assembles them, so the two routes stay comparable.
    """
    _check_degree(n, lowest=1)
    a = _check_a(a, positive=False)
    nodes = np.concatenate(([-1.0], companion_zeros(n - 1, abs(a)), [1.0]))
    return design_from_support(n, 1j * a, nodes)


def growth_value(n, a):
    """max |p(ai)| over polynomials with sup-norm <= 1 on [-1, 1], degree <= n:

        sqrt(a^2 + 1) * (|a| + sqrt(a^2 + 1))^(n-1),

    attained by Q_n (up to phase)."""
    _check_degree(n, lowest=1)
    a = abs(_check_a(a, positive=False))
    s = np.sqrt(a * a + 1.0)
    return float(s * (a + s) ** (n - 1))


def growth_gap(n, a):
    """How far the extremal growth exceeds the naive Chebyshev value |T_n(ai)|.

    Returns (lhs, rhs) with lhs = growth_value - |T_n(ai)| and
    rhs = (sqrt(a^2+1) - |a|) |T_{n-1}(ai)|; the two agree identically.
    T_{n-1}(ai) and T_n(ai) are the last two entries of one chebvander row.
    """
    _check_degree(n, lowest=1)
    a = _check_a(a, positive=False)
    t = cheb.chebvander(1j * a, n)[0]
    lhs = growth_value(n, a) - abs(t[n])
    rhs = (np.sqrt(a * a + 1.0) - abs(a)) * abs(t[n - 1])
    return float(lhs), float(rhs)
