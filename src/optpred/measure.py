"""Discrete probability measures on [-1, 1].

A design is a measure mu = sum_k w_k delta(x_k) with distinct nodes x_k and
strictly positive weights that sum to 1.  Its kernel value

    K(z0) = t(z0)^H G^{-1} t(z0),    t(z) = (T_0(z), ..., T_n(z)),

with G[i, j] = integral T_i T_j dmu the Gram matrix of the Chebyshev basis,
is the largest value of |p(z0)|^2 over polynomials of degree <= n with
L^2(mu) norm 1, and sigma^2/m * K(z0) is the variance of the least-squares
polynomial predictor at z0.  No function computes K from G: on a
Hoel-Levine support K is the squared Lebesgue function
(design.design_from_support), and for a realized observation plan the Monte
Carlo check reads sigma^2/m * K off its own fit (regression).  The
Gram-matrix routes to K live in the tests, as oracles.
"""

from dataclasses import dataclass

import numpy as np

from .polynomial import _finite, as_nodes

_WEIGHT_SUM_TOL = 1e-12


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

    @classmethod
    def _hoel_levine(cls, nodes, weights):
        """The measure on nodes that as_nodes has passed, with the weights
        m / sum(m) of finite, nonzero moduli m: those are finite and sum to 1
        by construction, so only their sign is checked again (a sum of
        moduli that overflows, or a ratio that underflows, gives a 0)."""
        if not weights.all():
            raise ValueError("weights must be strictly positive")
        mu = object.__new__(cls)
        object.__setattr__(mu, "nodes", nodes)
        object.__setattr__(mu, "weights", weights)
        return mu

    def to_json(self):
        return {"nodes": self.nodes.tolist(), "weights": self.weights.tolist()}

    @classmethod
    def from_json(cls, data):
        return cls(data["nodes"], data["weights"])
