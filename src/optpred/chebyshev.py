"""Chebyshev polynomials of the first and second kinds at real or complex points.

Both kinds are evaluated by one forward three-term recurrence, so real and
complex arguments share one code path; T and U differ only in the degree-one
term, z against 2z.  The recurrence is stable for arguments of moderate size,
which is all this package ever needs.
"""

import cmath

import numpy as np

# Beyond this the forward recurrence can silently lose precision, so refuse.
MAX_DEGREE = 512


def _check_degree(n, lowest=0):
    if not isinstance(n, (int, np.integer)):
        raise TypeError(f"degree must be an integer, got {type(n).__name__}")
    if n < lowest:
        raise ValueError(f"degree must be >= {lowest}, got {n}")
    if n > MAX_DEGREE:
        raise ValueError(f"degree {n} exceeds supported maximum {MAX_DEGREE}")


def _finite_point(z0):
    z0 = complex(z0)
    if not cmath.isfinite(z0):
        raise ValueError(f"z0 = {z0} is not finite")
    return z0


def _recurrence(n, z, first):
    """p_n for p_0 = 1, p_1 = first, p_{k+1} = 2 z p_k - p_{k-1}."""
    if n == 0:
        return 1.0 + 0 * z
    prev, cur = 1.0 + 0 * z, first
    for _ in range(n - 1):
        prev, cur = cur, 2 * z * cur - prev
    return cur


def cheb_t(n, z):
    """T_n(z) via T_0 = 1, T_1 = z, T_{k+1} = 2 z T_k - T_{k-1}.

    Accepts scalars or numpy arrays, real or complex.
    """
    _check_degree(n)
    return _recurrence(n, z, z)


def cheb_u(n, z):
    """U_n(z), second kind, same recurrence with U_{-1} = 0, U_0 = 1, U_1 = 2z."""
    _check_degree(n, lowest=-1)
    if n == -1:
        return 0.0 * z
    return _recurrence(n, z, 2 * z)


def cheb_pell_residual(n, z):
    """|T_n(z)^2 - (z^2 - 1) U_{n-1}(z)^2 - 1|.

    The identity T_n^2 - (z^2-1) U_{n-1}^2 = 1 holds on all of C; the
    residual measures how well the recurrences reproduce it.  In floating
    point the residual is small relative to |T_n(z)|^2, a few 1e-15 of it
    for |z| <= 2 and n <= 30, so it stays below 1e-10 in absolute terms
    wherever |T_n(z)|^2 is not itself astronomically large; on [-1, 1] the
    terms are O(n^2) and the residual is effectively exact.
    """
    _check_degree(n, lowest=1)
    t = cheb_t(n, z)
    u = cheb_u(n - 1, z)
    return abs(t * t - (z * z - 1) * u * u - 1)
