"""Discrete probability measures on [-1, 1] and their Christoffel kernels.

A measure mu with at least n+1 support points has a nonsingular Gram matrix
G[i, j] = integral T_i T_j dmu over the Chebyshev basis {T_0, ..., T_n}.  The
kernel value

    K(z0) = t(z0)^H G^{-1} t(z0),    t(z) = (T_0(z), ..., T_n(z)),

is the largest value of |p(z0)|^2 over polynomials of degree <= n with
L^2(mu) norm 1, and sigma^2/m * K(z0) is the variance of the least-squares
polynomial predictor at z0.  The Monte Carlo check in regression takes K of
a realized observation plan from christoffel.  The design path does not use
this module's kernels: on a Hoel-Levine support K is the squared Lebesgue
function (design.design_from_support), and the kernel functions here are
its independent cross-checks, with the normalized kernel polynomial
attaining the maximum and the derivative of K along the segment toward a
point mass.  They solve against the R factor of one QR of
B = diag(sqrt(w)) V, with V the chebvander matrix of rows t(x_k), so
R^T R = G and cond(B) is never squared.  Degrees go through the package's
integer rule.  K and G are returned as a plain float and a symmetric
ndarray.
"""

from dataclasses import dataclass

import numpy as np
import numpy.polynomial.chebyshev as cheb
from scipy.linalg import solve_triangular

from .polynomial import (
    ChebPoly,
    _check_degree,
    _finite,
    _finite_point,
    as_nodes,
    lagrange_values,
)

_MIN_PIVOT = 1e-13
_WEIGHT_SUM_TOL = 1e-12


class RankDeficiencyError(Exception):
    """A weighted basis is numerically rank-deficient (too few rows or a tiny pivot)."""


def _full_rank(R):
    """R, if square with min|r_ii|^2 >= _MIN_PIVOT max|r_ii|^2 (an all-zero R fails).

    The one rank rule of the kernel functions and least_squares_fit.  For a
    probability measure max|r_ii| = r_00 = 1, and r_ii^2 are the pivots of G.
    """
    d = np.abs(np.diag(R)) ** 2
    if R.shape[0] < R.shape[1] or not d.min() >= _MIN_PIVOT * d.max():
        raise RankDeficiencyError(
            f"{R.shape} R factor, squared pivots {d.min():.3e} to {d.max():.3e}: "
            f"rank below {R.shape[1]}; refusing to regularize"
        )
    return R


@dataclass(frozen=True)
class DiscreteMeasure:
    """Probability measure sum_k weights[k] * delta(nodes[k]) on [-1, 1]."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        x = as_nodes(self.nodes)
        w = _finite("weights", self.weights)
        if w.shape != x.shape:
            raise ValueError(f"{len(x)} nodes but {len(w)} weights")
        if np.any(w <= 0):
            raise ValueError("weights must be strictly positive")
        if abs(w.sum() - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {w.sum()!r}, expected 1")
        object.__setattr__(self, "nodes", x)
        object.__setattr__(self, "weights", w)

    def __len__(self):
        return len(self.nodes)

    def to_json(self):
        return {"nodes": self.nodes.tolist(), "weights": self.weights.tolist()}

    @classmethod
    def from_json(cls, data):
        return cls(data["nodes"], data["weights"])

    @classmethod
    def uniform(cls, nodes):
        x = as_nodes(nodes)
        return cls(x, np.full(len(x), 1.0 / len(x)))


def gram(mu, n):
    """G[i, j] = sum_k w_k T_i(x_k) T_j(x_k); real support makes it symmetric."""
    _check_degree(n)
    V = cheb.chebvander(mu.nodes, n)
    G = (V.T * mu.weights) @ V
    return 0.5 * (G + G.T)


def _factor(mu, n):
    """R with R^T R = G: the QR factor of the weighted basis B, rank-checked."""
    _check_degree(n)
    B = np.sqrt(mu.weights)[:, None] * cheb.chebvander(mu.nodes, n)
    return _full_rank(np.linalg.qr(B, mode="r"))


def _kernel_basis(mu, n, z0):
    """(R, u): the QR factor R of the weighted basis and u = R^{-T} t(z0).

    K(z0) = |u|^2, and since R is real, R^{-T} conj(t(z0)) = conj(u), so one
    triangular solve serves the kernel value and the kernel polynomial.
    """
    _finite_point(z0)  # check only: a real z0 stays real, and so does its rounding
    R = _factor(mu, n)
    return R, solve_triangular(R, cheb.chebvander(z0, n)[0], trans="T")


def christoffel(mu, n, z0):
    """K(z0) = t(z0)^H G^{-1} t(z0) >= |p(z0)|^2 / ||p||_{L2(mu)}^2 for deg <= n.

    Computed through the QR factor of the weighted basis, never G or its
    inverse.  Works for any measure with at least n+1 support points.
    """
    _, u = _kernel_basis(mu, n, z0)
    return float(np.vdot(u, u).real)


def christoffel_lagrange(mu, n, z0):
    """Same kernel value by the Lagrange route, sum_i |l_i(z0)|^2 / w_i.

    Only valid when the support has exactly n+1 nodes (the l_i then form a
    basis of degree-n polynomials); kept as an independent cross-check of the
    Gram route.
    """
    _check_degree(n)
    if len(mu) != n + 1:
        raise ValueError(f"Lagrange route needs exactly {n + 1} nodes, got {len(mu)}")
    ell = lagrange_values(mu.nodes, _finite_point(z0))
    return float(np.sum(np.abs(ell) ** 2 / mu.weights))


def kernel_poly(mu, n, z0):
    """The normalized kernel polynomial P(z) = K(z0, z) / sqrt(K(z0, z0)).

    P has L^2(mu) norm 1 and |P(z0)|^2 = K(z0, z0); among all polynomials of
    degree <= n with unit L^2(mu) norm it maximizes |p(z0)|.  Chebyshev
    coefficients are G^{-1} conj(t(z0)) / sqrt(K).
    """
    if np.min(np.abs(_finite_point(z0) - mu.nodes)) == 0.0:
        raise ValueError("z0 lies in the support; kernel polynomial degenerates")
    R, u = _kernel_basis(mu, n, z0)
    c = solve_triangular(R, np.conj(u))
    return ChebPoly(c / np.sqrt(float(np.vdot(u, u).real)))


def directional_derivative(mu0, a, n, z0):
    """d/dt at t=0 of K(z0) along mu_t = (1-t) mu0 + t delta_a, a in [-1, 1].

    Equals K(z0) * (1 - |P(a)|^2) with P the kernel polynomial of mu0, that is
    K(z0, z0) - |K(z0, a)|^2 with K(z0, a) = <u, R^{-T} t(a)> from one QR
    factor.  At an optimal measure every such derivative is >= 0, and it
    vanishes on the support.
    """
    a = float(a)
    if not -1.0 <= a <= 1.0:
        raise ValueError(f"direction point {a} outside [-1, 1]")
    R, u = _kernel_basis(mu0, n, z0)
    v = solve_triangular(R, cheb.chebvander(a, n)[0], trans="T")
    return float(np.vdot(u, u).real - abs(np.vdot(u, v)) ** 2)
