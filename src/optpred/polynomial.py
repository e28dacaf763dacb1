"""Complex-coefficient polynomials in the Chebyshev basis on [-1, 1].

The Chebyshev basis is used everywhere; monomial coefficients are far worse
conditioned on [-1, 1] and are never stored.  This module supplies the
polynomial arithmetic the rest of the package needs: the values of all
Lagrange fundamental polynomials of a node set at a point (lagrange_values,
the package's one Lagrange evaluator), conversion of Lagrange combinations
into Chebyshev coefficients, and the exact sup-norm over [-1, 1], taken over
+-1 and the real roots of d/dx |p|^2.  Real roots of a Chebyshev series come from
the eigenvalues of its colleague matrix (numpy's chebroots), so no result
depends on a sampling grid.  The input checks every other module applies to
degrees, points and node sets live here too, so each has one home.
"""

import cmath
from dataclasses import dataclass

import numpy as np
import numpy.polynomial.chebyshev as cheb

_NEAR_TOL = 1e-9

# A cap on work (solve and certificate cost O(n^3)), not a range guarantee:
# K overflows far earlier once |z0| >~ 2, closed_form_design(192, 4.0) already
# returns K = nan.
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


class ChebPoly:
    """Polynomial sum_k c[k] T_k(z) with complex coefficients c."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        nz = np.nonzero(c)[0]
        # drop exactly-zero trailing coefficients; the zero polynomial keeps [0]
        self.coeffs = c[: nz[-1] + 1].copy() if nz.size else np.zeros(1, dtype=complex)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return bool(np.all(self.coeffs == 0))

    def __call__(self, z):
        return cheb.chebval(z, self.coeffs)

    def __repr__(self):
        return f"ChebPoly({self.coeffs.tolist()})"

    def reflected(self):
        """The polynomial p(-z); flips the sign of odd Chebyshev coefficients."""
        signs = (-1.0) ** np.arange(len(self.coeffs))
        return ChebPoly(self.coeffs * signs)

    def coeffs_padded(self, length):
        if length < len(self.coeffs):
            raise ValueError("cannot pad below current length")
        return np.pad(self.coeffs, (0, length - len(self.coeffs)))

    def to_json(self):
        return {
            "basis": "chebyshev",
            "coeffs": [[float(c.real), float(c.imag)] for c in self.coeffs],
        }

    @classmethod
    def from_json(cls, data):
        if data.get("basis") != "chebyshev":
            raise ValueError(f"unsupported basis {data.get('basis')!r}")
        return cls([complex(re, im) for re, im in data["coeffs"]])


def as_nodes(nodes):
    """Validate and return a node set: >= 2 strictly increasing reals in [-1, 1]."""
    x = np.atleast_1d(np.asarray(nodes, dtype=float))
    if x.ndim != 1 or x.size < 2:
        raise ValueError("need at least 2 nodes")
    if not np.all(np.isfinite(x)):
        raise ValueError("nodes must be finite")
    if x[0] < -1.0 or x[-1] > 1.0:
        raise ValueError(f"nodes must lie in [-1, 1], got range [{x[0]}, {x[-1]}]")
    if np.any(np.diff(x) <= 0):
        raise ValueError("nodes must be strictly increasing")
    return x


def lagrange_values(nodes, z):
    """All fundamental Lagrange polynomials l_0(z), ..., l_n(z) at a scalar z.

    Uses the pairwise-ratio product, which never divides by z - x_j and is
    therefore exact (up to rounding) even when z coincides with a node.
    """
    x = as_nodes(nodes)
    ratios = (z - x[None, :]) / (x[:, None] - x[None, :] + np.eye(len(x)))
    np.fill_diagonal(ratios, 1.0)
    return ratios.prod(axis=1)


def from_lagrange_combination(nodes, coefficients):
    """Chebyshev coefficients of sum_i c_i l_i(z), i.e. the polynomial of
    degree <= n interpolating the values c_i at the nodes x_i."""
    x = as_nodes(nodes)
    c = np.atleast_1d(np.asarray(coefficients, dtype=complex))
    if c.shape != x.shape:
        raise ValueError(f"expected {len(x)} coefficients, got {len(c)}")
    V = cheb.chebvander(x, len(x) - 1)
    return ChebPoly(np.linalg.solve(V, c))


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
    if p.is_zero():
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
