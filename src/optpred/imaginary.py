"""Closed-form optimal designs for purely imaginary exterior points z0 = ai.

Two polynomial families drive everything, both built by the Chebyshev
recurrence p_{k+1} = 2z p_k - p_{k-1} with s = sqrt(a^2 + 1), a > 0:

    growth_poly:     Q_1 = -(az + i)/s,
                     Q_2 = (1/s)(-(a+s) z^2 - iz + s)
    pell_companion:  R_0 = a/s,
                     R_1 = (a+s) z / s

They satisfy the Pell-type identity |Q_n(x)|^2 - (x^2 - 1) R_{n-1}(x)^2 = 1
on the real line, which pins |Q_n| = 1 exactly at the endpoints and at the
zeros of R_{n-1} and below 1 elsewhere on [-1, 1].  Those points, with
Hoel-Levine weights, form the optimal prediction design for ai, the kernel
value is (a^2+1)(|a| + s)^{2n-2}, and Q_n is (up to the phase -(i)^n) the
polynomial of extremal growth.  Designs for a < 0 come from reflecting the
a > 0 design through x -> -x; the certificate re-verifies that symmetry
rather than assuming it.
"""

import math

import numpy as np
import numpy.polynomial.chebyshev as cheb

from .design import design_from_support
from .polynomial import ChebPoly, _check_degree


def _recur(prev, cur, steps):
    """Apply p_{k+1} = 2z p_k - p_{k-1} to Chebyshev coefficients `steps` times."""
    for _ in range(steps):
        nxt = 2 * cheb.chebmulx(cur)
        nxt[: len(prev)] -= prev
        prev, cur = cur, nxt
    return ChebPoly(cur)


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
    """Q_n for a > 0, by the coefficient recurrence Q_{k+1} = 2z Q_k - Q_{k-1}."""
    _check_degree(n, lowest=1)
    a = _check_a(a)
    s = np.sqrt(a * a + 1.0)
    q1 = np.array([-1j / s, -a / s])
    if n == 1:
        return ChebPoly(q1)
    # z^2 = (T_0 + T_2)/2 splits the leading term of Q_2 across T_0 and T_2
    q2 = np.array([1.0 - (a + s) / (2 * s), -1j / s, -(a + s) / (2 * s)])
    return _recur(q1, q2, n - 2)


def pell_companion(n, a):
    """R_n for a > 0; real coefficients, parity (-1)^n, same recurrence."""
    _check_degree(n)
    a = _check_a(a)
    s = np.sqrt(a * a + 1.0)
    r0 = np.array([a / s])
    if n == 0:
        return ChebPoly(r0)
    r1 = np.array([0.0, (a + s) / s])
    return _recur(r0, r1, n - 1)


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

    Support is {-1} union zeros(R_{n-1}) union {+1} for a > 0; for a < 0 the
    a > 0 support is reflected through the origin.  Weights, kernel value,
    extremal polynomial and certificate are assembled the same way the
    numerical route assembles them, so the two routes stay comparable.
    """
    _check_degree(n, lowest=1)
    a = _check_a(a, positive=False)
    interior = companion_zeros(n - 1, abs(a))
    if a < 0:
        interior = -interior[::-1]
    nodes = np.concatenate(([-1.0], interior, [1.0]))
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
