"""Discrete probability measures on [-1, 1] and their Christoffel function.

A measure mu with at least n+1 support points has a nonsingular Gram matrix
G[i, j] = integral T_i T_j dmu over the Chebyshev basis {T_0, ..., T_n}.  The
kernel value

    K(z0) = t(z0)^H G^{-1} t(z0),    t(z) = (T_0(z), ..., T_n(z)),

is the largest value of |p(z0)|^2 over polynomials of degree <= n with
L^2(mu) norm 1, and sigma^2/m * K(z0) is the variance of the least-squares
polynomial predictor at z0.  The Monte Carlo check in regression takes K of
a realized observation plan from christoffel.  The design path does not use
it: on a Hoel-Levine support K is the squared Lebesgue function
(design.design_from_support).  The kernel cross-checks of the design path
(the Lagrange route to K, the kernel polynomial, the directional derivative
of K) live in the tests.  christoffel solves against the R factor of one QR of
B = diag(sqrt(w)) V, with V the chebvander matrix of rows t(x_k), so
R^T R = G and cond(B) is never squared.
"""

from dataclasses import dataclass

import numpy as np
import numpy.polynomial.chebyshev as cheb
from scipy.linalg import solve_triangular

from .polynomial import _check_degree, _finite, _finite_point, as_nodes

_MIN_PIVOT = 1e-13
_WEIGHT_SUM_TOL = 1e-12


class RankDeficiencyError(Exception):
    """A weighted basis is numerically rank-deficient (too few rows or a tiny pivot)."""


def _full_rank(R):
    """R, if square with min|r_ii|^2 >= _MIN_PIVOT max|r_ii|^2 (an all-zero R fails).

    The one rank rule of christoffel and least_squares_fit.  For a
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


def christoffel(mu, n, z0):
    """K(z0) = t(z0)^H G^{-1} t(z0) >= |p(z0)|^2 / ||p||_{L2(mu)}^2 for deg <= n.

    K = |u|^2 with u = R^{-T} t(z0), one triangular solve against the
    rank-checked QR factor R of the weighted basis B, never G or its
    inverse.  Works for any measure with at least n+1 support points.
    """
    _finite_point(z0)  # check only: a real z0 stays real, and so does its rounding
    _check_degree(n)
    B = np.sqrt(mu.weights)[:, None] * cheb.chebvander(mu.nodes, n)
    R = _full_rank(np.linalg.qr(B, mode="r"))
    u = solve_triangular(R, cheb.chebvander(z0, n)[0], trans="T")
    return float(np.vdot(u, u).real)
