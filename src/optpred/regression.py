"""Monte Carlo check of the prediction-variance formula.

Observing y = p(x) + eps at design nodes (eps iid centered Gaussian, sd
sigma) and fitting a degree-n polynomial by least squares, the variance of
the fitted value at any point z0 is

    var = (sigma^2 / m) * K(z0)

with K the kernel value of the realized node measure mu_X.  The fit sees the
data only through the node means, independent with sd sigma / sqrt(c_i) for
a node observed c_i times, so the simulator draws one noise per node and
replicate, predicts with one fixed vector of the sqrt(c_i)-weighted node fit,
and compares the sample variance of the predictions at z0 against the
formula.  Predictions at complex z0 are complex, so variance means
E|x - mean|^2 throughout.
"""

import math
from dataclasses import dataclass

import numpy as np
import numpy.polynomial.chebyshev as cheb
from scipy.linalg import solve_triangular

from .measure import DiscreteMeasure, RankDeficiencyError, christoffel
from .polynomial import _finite_point

_MIN_REPLICATES = 1000
_BATCH = 10000


@dataclass(frozen=True)
class RegressionPlan:
    """A measure realized as integer observation counts per node."""

    design: DiscreteMeasure
    counts: np.ndarray
    sigma: float
    theta: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.counts, dtype=int))
        if c.shape != self.design.nodes.shape:
            raise ValueError("one count per node required")
        if np.any(c < 1):
            raise ValueError("every node needs at least one observation")
        sigma = float(self.sigma)
        if not math.isfinite(sigma):
            raise ValueError(f"sigma = {sigma} is not finite")
        if sigma < 0:
            raise ValueError("sigma must be nonnegative")
        th = np.atleast_1d(np.asarray(self.theta, dtype=float))
        if not np.all(np.isfinite(th)):
            raise ValueError("theta must be finite")
        object.__setattr__(self, "counts", c)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "theta", th)

    @property
    def m(self):
        return int(self.counts.sum())

    @property
    def degree(self):
        return len(self.theta) - 1

    def observation_nodes(self):
        return np.repeat(self.design.nodes, self.counts)

    def realized_measure(self):
        return DiscreteMeasure(self.design.nodes, self.counts / self.m)

    @classmethod
    def from_measure(cls, mu, m, sigma, theta):
        """Round m * weights to integer counts by largest remainder.

        Keeps every count within 1 of the ideal value, so the realized node
        frequencies deviate from the weights by at most 1/m.
        """
        ideal = mu.weights * m
        counts = np.floor(ideal).astype(int)
        short = m - counts.sum()
        if short > 0:
            counts[np.argsort(ideal - counts)[-short:]] += 1
        if np.any(counts < 1):
            raise ValueError(f"m = {m} too small to observe every node")
        return cls(design=mu, counts=counts, sigma=sigma, theta=theta)

    def to_json(self):
        return {
            **self.design.to_json(),
            "counts": self.counts.tolist(),
            "sigma": self.sigma,
            "theta": self.theta.tolist(),
        }

    @classmethod
    def from_json(cls, data):
        return cls(
            design=DiscreteMeasure.from_json(data),
            counts=np.asarray(data["counts"], int),
            sigma=float(data["sigma"]),
            theta=np.asarray(data["theta"], float),
        )


@dataclass(frozen=True)
class VarianceEstimate:
    empirical: float
    predicted: float
    replicates: int
    rel_error: float

    def to_json(self):
        return {
            "empirical": self.empirical,
            "predicted": self.predicted,
            "replicates": self.replicates,
            "rel_error": self.rel_error,
        }


def vandermonde(x, n):
    """Rows (T_0(x_k), ..., T_n(x_k)) for the observation nodes x (with
    replication); (1/m) V^T V is the Gram matrix of the realized measure."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if len(x) < n + 1:
        raise RankDeficiencyError(f"{len(x)} points cannot fit degree {n}")
    V = cheb.chebvander(x, n)
    if np.linalg.matrix_rank(V) < n + 1:
        raise RankDeficiencyError(
            f"Vandermonde rank below {n + 1}; too few distinct nodes"
        )
    return V


def least_squares_fit(V, y):
    """Least-squares coefficients via QR, no normal-equations inverse.

    y may be a vector or a matrix of stacked right-hand sides (one fit per
    column).
    """
    q, r = np.linalg.qr(V)
    if np.abs(np.diag(r)).min() < 1e-13 * max(V.shape):
        raise RankDeficiencyError("rank-deficient least-squares system")
    return solve_triangular(r, q.T @ y, lower=False)


def mc_predictor_variance(plan, z0, replicates, seed):
    """Empirical vs predicted variance of the least-squares prediction at z0.

    Each replicate draws one standard normal per node, the noise of that
    node's sqrt(c_i)-weighted mean, and predicts with the fixed vector
    w = t(z0)^T (V^T V)^{-1} V^T of the weighted node fit.  Replicates share
    one seeded generator and are drawn in fixed batches, so results are
    reproducible from (plan, z0, replicates, seed) alone.
    """
    if not isinstance(replicates, (int, np.integer)):
        raise TypeError(
            f"replicates must be an integer, got {type(replicates).__name__}"
        )
    if replicates < _MIN_REPLICATES:
        raise ValueError(f"need at least {_MIN_REPLICATES} replicates")
    z0 = _finite_point(z0)
    n = plan.degree
    V = np.sqrt(plan.counts)[:, None] * vandermonde(plan.design.nodes, n)
    t0 = cheb.chebvander(z0, n)[0]

    if plan.sigma == 0.0:
        # every replicate is the same noiseless fit; the variance is exactly 0
        empirical = 0.0
    else:
        w = t0 @ least_squares_fit(V, np.eye(len(V)))
        center = w @ (V @ plan.theta)
        # real rows, so the noise matrix is never upcast to complex
        w_parts = np.stack([w.real, w.imag])
        rng = np.random.default_rng(seed)
        preds = np.empty(replicates, dtype=complex)
        done = 0
        while done < replicates:
            k = min(_BATCH, replicates - done)
            re, im = w_parts @ rng.standard_normal((len(V), k))
            preds[done : done + k] = center + plan.sigma * (re + 1j * im)
            done += k
        empirical = float(np.var(preds, ddof=1))
    K = christoffel(plan.realized_measure(), n, z0)
    predicted = plan.sigma**2 / plan.m * K
    if predicted == 0.0:
        rel = 0.0 if empirical == 0.0 else np.inf
    else:
        rel = abs(empirical - predicted) / predicted
    return VarianceEstimate(
        empirical=empirical,
        predicted=float(predicted),
        replicates=int(replicates),
        rel_error=float(rel),
    )
