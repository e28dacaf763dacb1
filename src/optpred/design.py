"""Optimal prediction designs for an exterior point z0.

For a fixed support -1 = x_0 < ... < x_n = +1 the best weights are
w_i = |l_i(z0)| / sum_j |l_j(z0)| (Hoel-Levine), and the kernel value then
collapses to the squared Lebesgue function, K = (sum_i |l_i(z0)|)^2.  The
remaining problem is placing the n-1 interior nodes to minimize the Lebesgue
function at z0.  On an optimal support every interior node is a critical point
of |P|^2 for the signed polynomial P below, so the nodes are found by one root
solve of those first-order conditions, taken directly in node coordinates.

Optimality of a candidate design is not taken on faith: the signed Lagrange
combination P = sum_i sgn(l_i(z0)) l_i (complex sign conventions such that
P(z0) is real positive) is a certificate.  If its sup-norm on [-1, 1] is 1
and |P(z0)|^2 reproduces K, the design is optimal; both checks are recorded
in a Certificate rather than asserted.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import root

from .measure import DiscreteMeasure, christoffel
from .polynomial import (
    ChebPoly,
    _check_degree,
    _finite_point,
    as_nodes,
    from_lagrange_combination,
    lagrange_values,
    sup_norm_interval,
)

_EXTERIOR_IM_TOL = 1e-12
_CERT_TOL = 1e-8
# relative step tolerance of the root solve, which acts on the node coordinates
# themselves: at 1e-12 the nodes stop up to 5.9e-10 off the closed forms
# (n=32, z0=0.01i), at 1e-14 within 3.3e-13 for n <= 32
_ROOT_XTOL = 1e-14


def require_exterior(z0):
    """Reject z0 on [-1, 1]; the prediction problem is exterior by definition.

    Points with |Im z0| < 1e-12 and Re z0 in [-1, 1] count as on the interval;
    a NaN or infinite z0 is rejected before any arithmetic.
    """
    z0 = _finite_point(z0)
    if abs(z0.imag) < _EXTERIOR_IM_TOL and -1.0 <= z0.real <= 1.0:
        raise ValueError(f"z0 = {z0} lies on [-1, 1]; need an exterior point")
    return z0


def _signed_lagrange(x, z0):
    """|l_i(z0)| and sgn(l_i(z0)) = conj(l_i(z0)) / |l_i(z0)| from one evaluation.

    The signs are the values of P at the nodes.  When z0 is a node every other
    l_i(z0) is exactly 0, so a zero modulus is how that case is caught.
    """
    ell = lagrange_values(x, z0)
    moduli = np.abs(ell)
    if np.any(moduli == 0.0):
        raise ValueError(f"z0 = {z0} is a node; the Lagrange signs are undefined")
    return moduli, np.conj(ell) / moduli


def hoel_levine_weights(nodes, z0):
    """Weights proportional to |l_i(z0)|; optimal among weightings of nodes."""
    moduli, _ = _signed_lagrange(as_nodes(nodes), _finite_point(z0))
    return moduli / moduli.sum()


def extremal_signed_poly(nodes, z0):
    """P = sum_i sgn(l_i(z0)) l_i with the conjugate sign sgn(z) = conj(z)/|z|.

    The conjugation makes P(z0) = sum |l_i(z0)| real and positive.  On an
    optimal support this is the polynomial of extremal growth at z0.
    """
    x = as_nodes(nodes)
    _, signs = _signed_lagrange(x, _finite_point(z0))
    return from_lagrange_combination(x, signs)


@dataclass(frozen=True)
class Certificate:
    sup_norm: float
    max_violation: float
    l2_mu_norm: float
    on_support_moduli: list
    duality_gap: float

    @property
    def certified(self):
        return self.max_violation <= _CERT_TOL and self.duality_gap <= _CERT_TOL

    def to_json(self):
        return {
            "sup_norm": self.sup_norm,
            "max_violation": self.max_violation,
            "l2_mu_norm": self.l2_mu_norm,
            "on_support_moduli": list(self.on_support_moduli),
            "duality_gap": self.duality_gap,
            "certified": self.certified,
        }

    @classmethod
    def from_json(cls, data):
        return cls(
            sup_norm=float(data["sup_norm"]),
            max_violation=float(data["max_violation"]),
            l2_mu_norm=float(data["l2_mu_norm"]),
            on_support_moduli=[float(v) for v in data["on_support_moduli"]],
            duality_gap=float(data["duality_gap"]),
        )


@dataclass(frozen=True)
class Design:
    measure: DiscreteMeasure
    z0: complex
    n: int
    K_value: float
    extremal_poly: ChebPoly
    certificate: Certificate

    def __post_init__(self):
        x = self.measure.nodes
        if len(x) != self.n + 1:
            raise ValueError(f"degree {self.n} design needs {self.n + 1} nodes")
        if x[0] != -1.0 or x[-1] != 1.0:
            raise ValueError("design support must include both endpoints -1, +1")

    @property
    def certified(self):
        return self.certificate.certified

    def to_json(self):
        return {
            "n": self.n,
            "z0": [self.z0.real, self.z0.imag],
            **self.measure.to_json(),
            "K_value": self.K_value,
            "poly": self.extremal_poly.to_json(),
            "certificate": self.certificate.to_json(),
        }

    @classmethod
    def from_json(cls, data):
        return cls(
            measure=DiscreteMeasure.from_json(data),
            z0=complex(data["z0"][0], data["z0"][1]),
            n=int(data["n"]),
            K_value=float(data["K_value"]),
            extremal_poly=ChebPoly.from_json(data["poly"]),
            certificate=Certificate.from_json(data["certificate"]),
        )


def _certificate(P, mu, z0, K):
    est = sup_norm_interval(P)
    moduli = np.abs(P(mu.nodes))
    l2 = float(np.sqrt(np.sum(mu.weights * moduli**2)))
    gap = float(abs(K - abs(P(z0)) ** 2) / K)
    return Certificate(
        sup_norm=est.value,
        max_violation=max(0.0, est.value - 1.0),
        l2_mu_norm=l2,
        on_support_moduli=moduli.tolist(),
        duality_gap=gap,
    )


def certify(design):
    """Measure the two optimality conditions; thresholds live in Certificate.

    sup_norm of the extremal polynomial over [-1, 1] (violation is the excess
    over 1), its L^2(mu) norm (1 by construction, recomputed not assumed),
    its moduli on the support, and the relative gap between K and |P(z0)|^2.
    """
    return _certificate(
        design.extremal_poly, design.measure, design.z0, design.K_value
    )


def design_from_support(n, z0, nodes):
    """Assemble the full Design for a given support: Hoel-Levine weights,
    Gram-route kernel value, signed extremal polynomial, certificate."""
    _check_degree(n, lowest=1)
    z0 = require_exterior(z0)
    x = as_nodes(nodes)
    if len(x) != n + 1:
        raise ValueError(f"degree {n} needs {n + 1} nodes, got {len(x)}")
    moduli, signs = _signed_lagrange(x, z0)
    mu = DiscreteMeasure(x, moduli / moduli.sum())
    K = christoffel(mu, n, z0)
    P = from_lagrange_combination(x, signs)
    return Design(
        measure=mu, z0=z0, n=n, K_value=K, extremal_poly=P,
        certificate=_certificate(P, mu, z0, K),
    )


def _first_order_residual(z0):
    """F_j = Re(conj(P(x_j)) P'(x_j)) at the interior nodes x_1 < ... < x_{n-1}.

    F_j is half the derivative of |P|^2 at x_j, so it vanishes on an optimal
    support, where every interior node is a maximum of |P| on [-1, 1].  An
    unordered step gets an infinite residual, which MINPACK never accepts, so
    the iterates stay ordered inside (-1, 1).
    """
    def residual(interior):
        x = np.concatenate(([-1.0], interior, [1.0]))
        if not np.all(np.diff(x) > 0):
            return np.full(len(interior), np.inf)
        _, s = _signed_lagrange(x, z0)
        # barycentric differentiation: P'(x_j) = sum_i (b_i/b_j)(s_i - s_j)/(x_j - x_i)
        diffs = x[:, None] - x[None, :]
        np.fill_diagonal(diffs, 1.0)
        b = 1.0 / diffs.prod(axis=1)
        dP = ((b[None, :] / b[:, None]) * (s[None, :] - s[:, None]) / diffs).sum(axis=1)
        return np.real(np.conj(s) * dP)[1:-1]

    return residual


def optimize_support(n, z0):
    """Optimal interior node placement for predicting at z0.

    Endpoints are pinned at -1 and +1.  The n-1 interior nodes solve the
    first-order conditions F_j = 0 of _first_order_residual by one MINPACK
    hybrid root solve in node coordinates, started from the Chebyshev extreme
    points.  An uncertified result is returned with a warning; its certificate
    carries the evidence.
    """
    _check_degree(n, lowest=1)
    z0 = require_exterior(z0)
    if n == 1:
        return design_from_support(1, z0, [-1.0, 1.0])

    # The interior Chebyshev extrema cos(k pi / n) in sine form: exactly
    # symmetric, with an exact 0 for even n.  The cosine form leaves 6e-17
    # there, and MINPACK's difference step eps*|x_j| then spoils that column
    # of the Jacobian (n=2, z0=1+1j stalls at the start).
    x0 = np.sin(np.pi * np.arange(2 - n, n - 1, 2) / (2 * n))
    sol = root(_first_order_residual(z0), x0, method="hybr", tol=_ROOT_XTOL)
    x = np.concatenate(([-1.0], sol.x, [1.0]))
    if not np.all(np.diff(x) > 0):
        raise RuntimeError(f"optimize_support(n={n}, z0={z0}): root solve left [-1, 1]")
    design = design_from_support(n, z0, x)
    if not design.certified:
        warnings.warn(
            f"optimize_support(n={n}, z0={z0}): design failed certification "
            f"(max_violation={design.certificate.max_violation:.3e}, "
            f"duality_gap={design.certificate.duality_gap:.3e}, "
            f"residual={np.abs(sol.fun).max():.3e}; "
            f"solver: {' '.join(sol.message.split())})"
        )
    return design
