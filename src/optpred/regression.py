"""Monte Carlo check of the prediction-variance formula.

Observing y = p(x) + eps at design nodes (eps iid centered Gaussian, sd
sigma) and fitting a degree-n polynomial by least squares, the variance of
the fitted value at any point z0 is

    var = (sigma^2 / m) * K(z0)

with K the kernel value of the realized node measure mu_X.  The fit sees the
data only through the node means, independent with sd sigma / sqrt(c_i) for
a node observed c_i times, so the simulator draws one noise per node and
replicate, predicts with one fixed vector w of the sqrt(c_i)-weighted node
fit, and compares the sample variance of the predictions at z0 against
sigma^2 |w|^2, which is the formula exactly.  Predictions at complex z0 are
complex, so variance means E|x - mean|^2 throughout.  The fit's R factor
must pass one rank rule (_full_rank), and every plan is fit, a noiseless one
too, so a rank-deficient plan (RankDeficiencyError) or a z0 far enough out,
or a sigma large enough, that sigma^2 |w|^2 overflows (RuntimeError) is
refused before any noise is drawn.

Replicates come in blocks of _BATCH (the last may be shorter).  Block j draws
from its own SFC64 generator, seeded by the j-th child that SeedSequence(seed)
spawns, so the result depends on (plan, z0, replicates, seed) and not on how
many threads run the blocks.  SFC64 stands in for numpy's default PCG64
because the normal draws are nearly all of the simulation's time and SFC64
makes each draw about 15% cheaper.  The blocks run on a thread pool as
wide as the usable CPUs (numpy's generators release the GIL for bulk draws),
and each returns only the sum of its noise and of its squared moduli: memory
is O(workers x batch), not O(replicates).
"""

import math
import os
from dataclasses import dataclass

import numpy as np
import numpy.polynomial.chebyshev as cheb

from .design import DiscreteMeasure
from .polynomial import _check_degree, _check_int, _finite, _finite_point

_MIN_PIVOT = 1e-13
_MIN_REPLICATES = 1000
_BATCH = 10000


class RankDeficiencyError(Exception):
    """A weighted basis is numerically rank-deficient (too few rows or a tiny pivot)."""


def _full_rank(R):
    """R, if square with min|r_ii|^2 >= _MIN_PIVOT max|r_ii|^2 (an all-zero R fails).

    The rank rule of least_squares_fit: r_ii^2 are the pivots of V^T V.
    """
    d = np.abs(np.diag(R)) ** 2
    if R.shape[0] < R.shape[1] or not d.min() >= _MIN_PIVOT * d.max():
        raise RankDeficiencyError(
            f"{R.shape} R factor, squared pivots {d.min():.3e} to {d.max():.3e}: "
            f"rank below {R.shape[1]}; refusing to regularize"
        )
    return R


@dataclass(frozen=True)
class RegressionPlan:
    """A measure realized as observation counts per node, each an integer >= 1
    (a float count is refused, not rounded)."""

    design: DiscreteMeasure
    counts: np.ndarray
    sigma: float
    theta: np.ndarray

    def __post_init__(self):
        # numpy casts a bool among integers to 1: judge each entry as given
        for count in np.asarray(self.counts, dtype=object).flat:
            _check_int("counts", count, lowest=1)
        c = np.atleast_1d(np.asarray(self.counts, dtype=np.int64))
        if c.shape != self.design.nodes.shape:
            raise ValueError("one count per node required")
        sigma = float(self.sigma)
        if not math.isfinite(sigma):
            raise ValueError(f"sigma = {sigma} is not finite")
        if sigma < 0:
            raise ValueError("sigma must be nonnegative")
        th = _finite("theta", self.theta)
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

    @classmethod
    def from_measure(cls, mu, m, sigma, theta):
        """Round m * weights to integer counts by largest remainder.

        Keeps every count within 1 of the ideal value, so the realized node
        frequencies deviate from the weights by at most 1/m.
        """
        _check_int("m", m, lowest=1)
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
            counts=data["counts"],
            sigma=float(data["sigma"]),
            theta=data["theta"],
        )


@dataclass(frozen=True)
class VarianceEstimate:
    empirical: float
    predicted: float
    replicates: int
    rel_error: float


def vandermonde(x, n):
    """Rows (T_0(x_k), ..., T_n(x_k)) for the observation nodes x (with
    replication); (1/m) V^T V is the Gram matrix of the realized measure."""
    _check_degree(n)
    x = _finite("x", x)
    if len(np.unique(x)) < n + 1:
        raise RankDeficiencyError(f"need {n + 1} distinct points for degree {n}")
    return cheb.chebvander(x, n)


def least_squares_fit(V, y):
    """Least-squares coefficients via QR, no normal-equations inverse.

    y may be a vector or a matrix of stacked right-hand sides (one fit per
    column).  R goes through the rank rule, _full_rank.  R^-1 Q^T (k x m, for
    k coefficients and m rows) comes first, from one small solve, and reaches
    y by one matrix product; solving against Q^T y instead would run the
    solve's two triangular sweeps over every column of y.
    """
    q, r = np.linalg.qr(V)
    return np.linalg.solve(_full_rank(r), q.T) @ y


def _usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _block_sums(w_parts, child, size):
    """(sum Re d, sum Im d, sum |d|^2) of the noise d = w @ Z of one block."""
    rng = np.random.Generator(np.random.SFC64(child))
    z = rng.standard_normal((w_parts.shape[1], size))
    d = w_parts @ z
    return np.array([*d.sum(axis=1), (d * d).sum()])


def mc_predictor_variance(plan, z0, replicates, seed):
    """Empirical vs predicted variance of the least-squares prediction at z0.

    Each replicate draws one standard normal per node, the noise of that
    node's sqrt(c_i)-weighted mean, and predicts with the fixed vector
    w = t(z0)^T (V^T V)^{-1} V^T of the weighted node fit.  The prediction
    is a constant plus sigma d with d = w @ Z, so the predicted variance is
    sigma^2 |w|^2 = (sigma^2 / m) K(z0), and the constant drops out of the
    empirical one: with R replicates,

        empirical = sigma^2 (sum |d|^2 - |sum d|^2 / R) / (R - 1).

    A rank-deficient plan or a predicted variance sigma^2 |w|^2 beyond the
    double range (a far z0 or a huge sigma) raises before any draw.

    Replicates are drawn in blocks of _BATCH, block j from
    Generator(SFC64(SeedSequence(seed).spawn(...)[j])), on as many threads
    as there are usable CPUs (at most one per block).  Each block keeps only
    its sums, added in block order, so the result is reproducible from
    (plan, z0, replicates, seed) alone, whatever the thread count, and
    memory stays O(batch) per thread.  seed must be a non-negative integer.
    """
    _check_int("seed", seed)
    _check_int("replicates", replicates, lowest=_MIN_REPLICATES)
    z0 = _finite_point(z0)
    n = plan.degree
    V = np.sqrt(plan.counts)[:, None] * vandermonde(plan.design.nodes, n)
    fit = least_squares_fit(V, np.eye(len(V)))
    with np.errstate(over="ignore", invalid="ignore"):
        w = cheb.chebvander(z0, n)[0] @ fit
        w_sq = float(np.vdot(w, w).real)
        predicted = plan.sigma * plan.sigma * w_sq
    if not math.isfinite(predicted):
        raise RuntimeError(f"prediction variance overflows at z0 = {z0}, "
                           f"sigma = {plan.sigma}")

    if plan.sigma == 0.0:
        # every replicate is the same noiseless fit; the variance is exactly 0
        empirical = 0.0
    else:
        # imported here: it loads logging and queue, which no other command
        # of the package needs at start-up
        from concurrent.futures import ThreadPoolExecutor

        # real rows, so the noise matrix is never upcast to complex
        w_parts = np.stack([w.real, w.imag])
        sizes = [min(_BATCH, replicates - start)
                 for start in range(0, replicates, _BATCH)]
        children = np.random.SeedSequence(seed).spawn(len(sizes))
        workers = min(_usable_cpus(), len(sizes))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            sums = list(pool.map(_block_sums, [w_parts] * len(sizes),
                                 children, sizes))
        s_re, s_im, s_sq = sum(sums)
        spread = s_sq - (s_re * s_re + s_im * s_im) / replicates
        empirical = float(plan.sigma * plan.sigma * spread / (replicates - 1))
    if predicted == 0.0:
        rel = 0.0 if empirical == 0.0 else np.inf
    else:
        rel = abs(empirical - predicted) / predicted
    return VarianceEstimate(
        empirical=empirical,
        predicted=predicted,
        replicates=int(replicates),
        rel_error=float(rel),
    )
