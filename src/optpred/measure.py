"""Discrete probability measures on [-1, 1] and their Christoffel kernels.

A measure mu with at least n+1 support points has a nonsingular Gram matrix
G[i, j] = integral T_i T_j dmu over the Chebyshev basis {T_0, ..., T_n}.  The
kernel value

    K(z0) = t(z0)^H G^{-1} t(z0),    t(z) = (T_0(z), ..., T_n(z)),

is the largest value of |p(z0)|^2 over polynomials of degree <= n with
L^2(mu) norm 1, and sigma^2/m * K(z0) is the variance of the least-squares
polynomial predictor at z0.  The normalized kernel polynomial attaining the
maximum, and the derivative of K along the segment toward a point mass, are
what the design optimizer and its optimality certificate consume.  The basis
vector t(z) is numpy's chebvander row, the same evaluator that builds G, and
K and G are returned as a plain float and a symmetric ndarray.
"""

from dataclasses import dataclass

import numpy as np
import numpy.polynomial.chebyshev as cheb
from scipy.linalg import cholesky, solve_triangular, LinAlgError

from .polynomial import ChebPoly, _finite_point, as_nodes, lagrange_values

_MIN_PIVOT = 1e-13
_WEIGHT_SUM_TOL = 1e-12


class RankDeficiencyError(Exception):
    """Gram matrix is numerically singular (too few nodes, or a tiny pivot)."""


@dataclass(frozen=True)
class DiscreteMeasure:
    """Probability measure sum_k weights[k] * delta(nodes[k]) on [-1, 1]."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        x = as_nodes(self.nodes)
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if w.shape != x.shape:
            raise ValueError(f"{len(x)} nodes but {len(w)} weights")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
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
        return cls(np.asarray(data["nodes"], float), np.asarray(data["weights"], float))

    @classmethod
    def uniform(cls, nodes):
        x = as_nodes(nodes)
        return cls(x, np.full(len(x), 1.0 / len(x)))


def gram(mu, n):
    """G[i, j] = sum_k w_k T_i(x_k) T_j(x_k); real support makes it symmetric."""
    V = cheb.chebvander(mu.nodes, n)
    G = (V.T * mu.weights) @ V
    return 0.5 * (G + G.T)


def _factor(mu, n):
    """Cholesky factor of the Gram matrix, surfacing singularity explicitly."""
    if len(mu) < n + 1:
        raise RankDeficiencyError(
            f"measure has {len(mu)} support points, need at least {n + 1} "
            f"for a degree-{n} basis"
        )
    G = gram(mu, n)
    try:
        L = cholesky(G, lower=True)
    except LinAlgError as exc:
        raise RankDeficiencyError(f"Gram matrix failed to factor: {exc}") from exc
    pivots = np.diag(L) ** 2
    if pivots.min() < _MIN_PIVOT:
        raise RankDeficiencyError(
            f"Gram pivot {pivots.min():.3e} below {_MIN_PIVOT:g}; "
            "refusing to regularize"
        )
    return L


def _kernel_basis(mu, n, z0):
    """(L, u): the Cholesky factor L of the Gram matrix and u = L^{-1} t(z0).

    K(z0) = |u|^2, and since L is real, L^{-1} conj(t(z0)) = conj(u), so one
    triangular solve serves the kernel value and the kernel polynomial.
    """
    _finite_point(z0)  # check only: a real z0 stays real, and so does its rounding
    L = _factor(mu, n)
    return L, solve_triangular(L, cheb.chebvander(z0, n)[0], lower=True)


def christoffel(mu, n, z0):
    """K(z0) = t(z0)^H G^{-1} t(z0) >= |p(z0)|^2 / ||p||_{L2(mu)}^2 for deg <= n.

    Computed through the Cholesky factor of the Gram matrix, never an explicit
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
    L, u = _kernel_basis(mu, n, z0)
    c = solve_triangular(L.T, np.conj(u), lower=False)
    return ChebPoly(c / np.sqrt(float(np.vdot(u, u).real)))


def directional_derivative(mu0, a, n, z0):
    """d/dt at t=0 of K(z0) along mu_t = (1-t) mu0 + t delta_a, a in [-1, 1].

    Equals K(z0) * (1 - |P(a)|^2) with P the kernel polynomial of mu0, that is
    K(z0, z0) - |K(z0, a)|^2 with K(z0, a) = <u, L^{-1} t(a)> from one Cholesky
    factor.  At an optimal measure every such derivative is >= 0, and it
    vanishes on the support.
    """
    a = float(a)
    if not -1.0 <= a <= 1.0:
        raise ValueError(f"direction point {a} outside [-1, 1]")
    L, u = _kernel_basis(mu0, n, z0)
    v = solve_triangular(L, cheb.chebvander(a, n)[0], lower=True)
    return float(np.vdot(u, u).real - abs(np.vdot(u, v)) ** 2)
