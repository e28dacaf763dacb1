"""Shared test helpers: padded Chebyshev coefficient vectors, the exact
sup-norm over [-1, 1] that the tests hold the design certificate against,
the dense interpolation solve that from_lagrange_combination is held
against, and the complex pairwise-ratio product that lagrange_values is
held against."""

from dataclasses import dataclass

import numpy as np
import numpy.polynomial.chebyshev as cheb

from optpred import ChebPoly

_NEAR_TOL = 1e-9


def padded(p, length):
    """The coefficients of ChebPoly p, zero-padded to length (never truncated)."""
    if length < len(p.coeffs):
        raise ValueError("cannot pad below current length")
    return np.pad(p.coeffs, (0, length - len(p.coeffs)))


def is_zero(p):
    """True for the zero polynomial, whose ChebPoly keeps the single coefficient 0."""
    return bool(np.all(p.coeffs == 0))


def lagrange_pairwise(nodes, z):
    """l_0(z), ..., l_n(z) as products of the complex pairwise ratios
    (z - x_k) / (x_i - x_k), one (n+1)^2 matrix; exact at a node z."""
    x = np.asarray(nodes, dtype=float)
    ratios = (z - x[None, :]) / (x[:, None] - x[None, :] + np.eye(len(x)))
    np.fill_diagonal(ratios, 1.0)
    return ratios.prod(axis=1)


def lagrange_to_cheb_solve(nodes, values):
    """Chebyshev coefficients of the interpolant of values at nodes by one
    dense O(n^3) solve of the chebvander system V c = values."""
    x = np.asarray(nodes, dtype=float)
    return np.linalg.solve(cheb.chebvander(x, len(x) - 1),
                           np.asarray(values, dtype=complex))


@dataclass(frozen=True)
class SupNormEstimate:
    """max |p| over [-1, 1] plus where it is (nearly) attained."""

    value: float
    argmax: float
    near_extreme_points: list


def sup_norm_interval(p):
    """max_{x in [-1,1]} |p(x)| for a ChebPoly, over its exact candidate set.

    With p = a + ib for real Chebyshev series a and b, every interior maximum
    of |p|^2 = a^2 + b^2 is a real root of d = a a' + b b', a real series of
    degree 2n - 1.  The candidates are +-1 and the real parts of the roots of
    d (eigenvalues of its colleague matrix, chebroots) clipped to [-1, 1];
    |p| is evaluated once on all of them.  A spurious candidate inside
    [-1, 1] can only add a point, never raise the maximum above the true sup.
    Points within 1e-9 of the maximum modulus are reported as near-extreme.
    """
    if not isinstance(p, ChebPoly):
        p = ChebPoly(p)
    if is_zero(p):
        raise ValueError("sup norm of the zero polynomial is not estimated")

    a, b = p.coeffs.real, p.coeffs.imag
    d = cheb.chebadd(cheb.chebmul(a, cheb.chebder(a)),
                     cheb.chebmul(b, cheb.chebder(b)))
    roots = np.clip(cheb.chebroots(d).real, -1.0, 1.0)
    x = np.unique(np.concatenate(([-1.0, 1.0], roots)))
    v = p(x)
    # hypot, as scalar abs() uses: numpy's vectorised complex abs can differ in
    # the last bit, and then value would not reproduce as abs(p(argmax))
    vals = np.hypot(v.real, v.imag)
    best = int(np.argmax(vals))
    value = float(vals[best])
    near = x[vals >= value - _NEAR_TOL].tolist()
    return SupNormEstimate(value=value, argmax=float(x[best]), near_extreme_points=near)
