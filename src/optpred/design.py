"""Optimal prediction designs for an exterior point z0.

For a fixed support -1 = x_0 < ... < x_n = +1 the best weights are
w_i = |l_i(z0)| / sum_j |l_j(z0)| (Hoel-Levine), and the kernel value then
collapses to the squared Lebesgue function, K = (sum_i |l_i(z0)|)^2.  The
remaining problem is placing the n-1 interior nodes to minimize the Lebesgue
function at z0.  On both axes the optimal support is known in closed form,
and nothing is solved.  At a real z0 it is the Chebyshev extrema (Hoel &
Levine, Ann. Math. Statist. 35, 1964).  At z0 = ai the paper's theorem gives
the endpoints and the zeros of the Pell companion R_{n-1}
(imaginary.companion_zeros), since the Pell identity |Q_n|^2 - (x^2 - 1)
R_{n-1}^2 = 1 pins |Q_n| = 1 exactly there and below 1 elsewhere on
[-1, 1].  Either costs one pairwise pass and one assembly, O(n^2).
Elsewhere the nodes are solved for: on an optimal support every interior
node is a critical point of |P|^2 for the signed polynomial P below, so the
nodes solve those first-order conditions, found by a short
Levenberg-Marquardt loop (_solve) directly in node coordinates.  The
weights, K, the residual and P all come from the moduli |l_i(z0)|, from one
real pairwise pass over the nodes (polynomial._lagrange_moduli).  Each
trial point of the loop costs one O(n^2) residual, and each step it takes
one O(n^3) exact Jacobian; the loop stops at its first iterate whose
residual is zero to rounding, with no Jacobian there.  A support reaches its
design by one route, _assemble, from its checked moduli: a given or
closed-form support through _support_design, which design_from_support,
hoel_levine_weights and extremal_signed_poly share, and a solved one from
the residual at its nodes, with no second pass over them.

Optimality of a candidate design is not taken on faith: the signed Lagrange
combination P = sum_i sgn(l_i(z0)) l_i (complex sign conventions such that
P(z0) is real positive) is a certificate.  With Hoel-Levine weights,
|P| = 1 at every node, ||P||_{L2(mu)} = 1 and |P(z0)|^2 = K hold on every
support, optimal or not.  So the sup-norm alone decides: if it is 1 on
[-1, 1], every design nu has ||P||_{L2(nu)} <= 1 and so a kernel value of
at least |P(z0)|^2 = K.  The other numbers recorded in a Certificate catch
numerical faults, such as an overflowed K.  The sup-norm is bounded from
above by a Pell-type identity (_sup_bound), with no root finding, on the
2n + 1 Chebyshev-Lobatto points _lobatto(2n), where assembly makes its
one barycentric pass.

A design's measure is a DiscreteMeasure, sum_k w_k delta(x_k) with distinct
nodes and positive weights that sum to 1.  Its kernel value K(z0) =
t(z0)^H G^{-1} t(z0), with t = (T_0, ..., T_n) and G the Gram matrix of
that basis in L^2(mu), is the largest |p(z0)|^2 over polynomials of degree
<= n with L^2(mu) norm 1, and sigma^2/m * K(z0) is the variance of the
least-squares predictor at z0.  No function forms K from G: here K is
Lambda^2, the Monte Carlo check reads it off its own fit (regression), and
the Gram-matrix routes are test oracles.  The moduli are checked once, on
their sum Lambda (_checked_moduli).
"""

import cmath
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .polynomial import (
    ChebPoly,
    _barycentric,
    _check_degree,
    _contract,
    _dct1,
    _finite,
    _finite_point,
    _lagrange_moduli,
    _lagrange_phases,
    _lobatto,
    _lobatto_weights,
    _node_signs,
    _pairwise_moduli,
    as_nodes,
)

_EXTERIOR_IM_TOL = 1e-12
_CERT_TOL = 1e-8
# absolute step tolerance of the root solve, on the interior node
# coordinates, which every iterate keeps in (-1, 1): on z0 = ai, n <= 32,
# a in 1e-3..4, the nodes stop within 1.6e-11 of the closed forms at 1e-12
# and 2.2e-12 at 1e-14, where F is at its rounding level
_ROOT_XTOL = 1e-14
_MAX_ITER = 300
_U = 2.0**-53  # the unit roundoff of doubles
# F_j = sum_i t_ji (_residual_terms) in doubles errs by at most
# (11 N + 10) u sum_i |t_ji| to first order, over N nodes: each modulus
# m_i is a product of N - 1 quotients with 5 roundings each (z0 - x_k, its
# modulus, x_i - x_k, the quotient, the product), so the ratio m_i/m_j
# carries 10 N; e_i/e_j, the product, the sum with 1 and 1/(x_j - x_i)
# about 10 more; and the sum of N terms N - 1.  Below 16 N u for N >= 2.
# Where 1 + (m_i/m_j) Re(e_i/e_j) cancels, sum_i |t_ji| is smaller than
# that bound's scale, which only makes _solve's stop test stricter.  The
# bound leaves out the rounding of the nodes themselves: an iterate some
# units in the last place off its root can read above it, and the step
# test stops the loop one Jacobian later, at the same iterate
_ROOT_ROUNDING = 16 * _U
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
        m / Lambda of nonzero moduli m whose sum Lambda is finite
        (_checked_moduli): those are finite and sum to 1 by construction.
        Only a ratio m_i / Lambda that underflows, to 0 or below the smallest
        normal double where it keeps fewer than 53 bits, is refused, as a
        numeric failure of a valid support: P's barycentric weights then
        span the range of the doubles, and its sums on the grid cancel."""
        if weights.min() < sys.float_info.min:
            raise RuntimeError("Hoel-Levine weights underflow on this support")
        mu = object.__new__(cls)
        object.__setattr__(mu, "nodes", nodes)
        object.__setattr__(mu, "weights", weights)
        return mu

    def to_json(self):
        return {"nodes": self.nodes.tolist(), "weights": self.weights.tolist()}

    @classmethod
    def from_json(cls, data):
        return cls(data["nodes"], data["weights"])


def require_exterior(z0):
    """Reject z0 on [-1, 1]; the prediction problem is exterior by definition.

    Points with |Im z0| < 1e-12 and Re z0 in [-1, 1] count as on the interval;
    a NaN or infinite z0 is rejected before any arithmetic.
    """
    z0 = _finite_point(z0)
    if abs(z0.imag) < _EXTERIOR_IM_TOL and -1.0 <= z0.real <= 1.0:
        raise ValueError(f"z0 = {z0} lies on [-1, 1]; need an exterior point")
    return z0


def _log_kernel_bracket(n, z0):
    """(2 log|T_n(z0)|, 2n log|phi(z0)|): the optimal K at an exterior z0
    lies between the exponentials of the two, with phi(z) = z + sqrt(z - 1)
    sqrt(z + 1), the branch with |phi| > 1.

    T_n has sup-norm 1 on [-1, 1], and every p of degree n has |p(z0)| <=
    sup|p| |phi(z0)|^n (Bernstein-Walsh).  The optimal K is the extremal
    growth max |p(z0)|^2 over sup|p| <= 1, so these are the two ends of an
    uncertified design's efficiency bracket (optimize_support).  Both ends
    are logs and cannot overflow: with eta = acosh(z0), Re eta =
    log|phi(z0)| and T_n(z0) = cosh(n eta) = e^(n eta) (1 + e^(-2n eta)) / 2.
    """
    eta = cmath.acosh(z0)
    upper = 2 * n * eta.real
    return upper + 2 * math.log(abs(1 + cmath.exp(-2 * n * eta)) / 2), upper


def _checked_moduli(moduli, z0):
    """The Lebesgue sum Lambda = sum_i moduli_i, refused unless it is finite
    and no modulus is zero.  Called inside the caller's np.errstate, so an
    overflow leaks no warning.

    The moduli are nonnegative, so Lambda is finite exactly when every
    modulus is and their sum does not overflow.  Every caller has an
    exterior z0, so no z0 - x_i is 0 and a zero modulus is a product that
    underflowed.  Far out or on crowded nodes, each is a numeric failure at
    a valid z0, not an input error.
    """
    lebesgue = float(moduli.sum())
    if not math.isfinite(lebesgue):
        raise RuntimeError(f"Lagrange values overflow at z0 = {z0}")
    if not moduli.all():
        raise RuntimeError(f"Lagrange values underflow at z0 = {z0}")
    return lebesgue


@dataclass(frozen=True)
class Certificate:
    """sup_norm is a certified upper bound on max |P| over [-1, 1] (_sup_bound),
    1 up to rounding on an optimal support, and the one number that proves
    optimality; max_violation is its excess over 1, NaN for a NaN sup_norm,
    which no certificate passes.  l2_mu_norm and the on_support_moduli are 1
    and duality_gap is 0 on every Hoel-Levine support, so they catch
    numerical faults: assembly (_assemble) refuses a design whose
    on_support_moduli stray from 1 by more than 1e-6, and an overflowed
    K = inf gives a unit gap.  Nothing else reads them back."""

    sup_norm: float
    l2_mu_norm: float
    on_support_moduli: list
    duality_gap: float

    @property
    def max_violation(self):
        return max(self.sup_norm - 1.0, 0.0)  # max(nan, 0.0) is nan

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
        """Rebuild the design from (n, z0, nodes) through design_from_support's
        checks; the file's weights, K_value, poly and certificate are ignored."""
        return design_from_support(data["n"], complex(*data["z0"]), data["nodes"])


def _lobatto_values(coeffs, m):
    """The polynomial P = sum_k coeffs[k] T_k at the m + 1 points
    _lobatto(m), from one DCT-I of its Chebyshev coefficients zero-padded
    to degree m: P(cos(k pi / m)) = (y_k + c_0) / 2 for the DCT-I y, read in
    reverse for the ascending order.  Exact for deg P <= m.  It takes the
    coefficient array, not a ChebPoly, so that _assemble can read P's
    values before it has checked them: a non-finite coefficient gives
    non-finite values, and those fail its one fault test.
    """
    padded = np.zeros(m + 1, dtype=complex)
    padded[: len(coeffs)] = coeffs
    return (_dct1(padded)[::-1] + padded[0]) / 2


def _sup_bound(v, g):
    """A certified upper bound sqrt(1 + sum_k |E_k|) on max |P| over [-1, 1],
    from the values v of P and g of c (1 - t^2) w^2 (_assemble) at the
    2n + 1 points t = _lobatto(2n).

    E = 1 - |P|^2 - c (1 - t^2) w^2 with w = prod_k (t - x_k) over the interior
    nodes has Chebyshev coefficients E_k, and any c >= 0 gives |P|^2 <= 1 - E
    <= 1 + sum_k |E_k| on [-1, 1].  On a root of the first-order conditions
    E = 0 with the constant of the paper's Pell identity |Q_n|^2 - (x^2 - 1)
    R_{n-1}^2 = 1, carried to every exterior z0: c = |lead P|^2 for P's
    leading monomial coefficient (4^(n-1) |P_n|^2 for the Chebyshev P_n).
    E then has degree below 2n, so one DCT-I of its values at the 2n + 1
    Chebyshev-Lobatto points gives the E_k exactly (their ascending order
    flips only the signs of odd E_k).
    """
    E = _dct1(1.0 - (v.real**2 + v.imag**2) - g) / (len(v) - 1)
    E[0] /= 2
    E[-1] /= 2
    return math.sqrt(1.0 + np.abs(E).sum())


def _assemble(z0, x, moduli, lebesgue, e, d):
    """The Design on the checked nodes x from the moduli m_i = |l_i(z0)|,
    their checked sum Lambda (_checked_moduli), e = z0 - x and d = |e|, all
    from the pass that formed the moduli: the one assembly step of
    design_from_support and optimize_support.  Of its inputs it checks only
    the weights m / Lambda again (DiscreteMeasure._hoel_levine).

    The signs s_i = sgn(l_i(z0)) = conj(l_i(z0)) / m_i, from e and d
    (polynomial._lagrange_phases), are the values at the nodes of P =
    sum_i s_i l_i.  For the node polynomial l = (t^2 - 1) w, l_i(z0) =
    l(z0) beta_i / (z0 - x_i) with its barycentric weights beta_i, so P's
    are b_i = m_i d_i (-1)^(n - i) = kappa beta_i, kappa > 0, with m scaled
    by its largest so that none overflows.  One barycentric pass over t =
    _lobatto(2n) gives P's values there, and every other one, _lobatto(n)
    bit for bit, its coefficients by one DCT-I (odd signs flipped, as the
    points ascend).  The pass's denominators are den = kappa / l(t), and
    lead P = sum_i s_i beta_i, so _sup_bound's term g = c (1 - t^2) w^2,
    c = |lead P|^2, is

        g = |sum_i b_i s_i|^2 / ((1 - t^2) den^2):

    kappa cancels and every factor is O(n), so no logs are needed and none
    overflows; g is 0 where t is a node (den = inf), both ends included.
    With Hoel-Levine weights the kernel value is the squared Lebesgue
    function, K = Lambda^2, squared in Python floats, so a Lambda^2 beyond
    the largest double reads inf, without a warning.

    The certificate takes P's values v on t from its coefficients
    (_lobatto_values) for _sup_bound, and P at the nodes from every other v
    by the barycentric formula on t_2j = _lobatto(n), with weights w_j
    (_lobatto_weights): P(x_i) = sum_j w_j v_2j / (x_i - t_2j) / sum_j w_j
    / (x_i - t_2j), in which 1/(x_i - t_2j) = -arr_2j,i / b_i for the pass's
    array arr_ji = b_i / (t_j - x_i), and -1/b_i cancels.  So the even rows
    of arr, contracted down their columns (polynomial._contract), carry v
    to the nodes with no pairwise pass of their own; a node on a point
    t_2j, as both ends are, takes v_2j, and those nodes are the pass's hits
    on even rows.

    The duality gap reads P(z0) = sum_k c_k T_k(z0) as sum_k c_k cosh(k eta),
    eta = acosh(z0), in one vector pass, as _log_kernel_bracket takes
    T_n(z0).  Where K = Lambda^2 is finite no term overflows: every
    Hoel-Levine support has K >= K_opt >= |T_n(z0)|^2, and |cosh(k eta)| <=
    cosh(n Re eta).  An overflowed K = inf gives a gap of exactly 1, which
    no certificate passes, with no P(z0) formed.

    Every Hoel-Levine support has |P(x_i)| = 1 at each node, so a P that
    breaks it by more than rounding is a fault of the arithmetic, not of
    the support.  On nodes crowded at one end the barycentric sums cancel,
    to 0 off the support (g = inf) or to finite garbage, or the contraction
    at the nodes overflows.  So after the weights' underflow check assembly
    makes one test: a finite sup_norm, and every ||P(x_i)| - 1| at most
    max(1e-6, 32 N u sup_norm) for N = n + 1 nodes and u = 2^-53, else a
    numeric failure of a valid support, a RuntimeError with no warning.
    The contraction is the second barycentric formula on _lobatto(n), which
    errs by at most about (6n + 6) u Lambda max|v| (Higham, IMA J. Numer.
    Anal. 24, 2004), with the Lebesgue constant Lambda < 5 up to n = 512
    and max|v| <= sup_norm: below 32 N u sup_norm.  That term matters only
    where |P| is large between the nodes.  ||P(x_i)| - 1| is at most 2.5e-11
    on closed forms up to n = 512 and 1.4e-12 on solved designs, but on the
    valid supports [-1, 1 - h, 1] at z0 = 1.0004475028554944, h = 1e-10 ..
    1e-12, sup_norm is 1.7e10 .. 1.7e12 and |P(x_i)| strays from 1 by
    1.5e-6 .. 1.7e-4, 1e-16 sup_norm, where the finite garbage on 40 nodes
    crowded at spacing 3e-9 below +1 strays by 1.2e-6 sup_norm.  A NaN
    fails every comparison, so nothing else needs a test of its own: a g
    that is not finite makes sup_norm inf or NaN, through E_0, which weighs
    every value; a coefficient that is not finite enters every value v
    through the DCT-I, and so |P| at both ends, which take v's end values;
    and the L2(mu) norm is finite once every |P(x_i)| is near 1.  ChebPoly,
    built after the test, never refuses P's coefficients.
    """
    n = len(x) - 1
    signs = np.conj(_lagrange_phases(e, d))
    b = moduli / moduli.max() * d * _node_signs(n + 1)
    t = _lobatto(2 * n)
    g = np.zeros_like(t)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        values, den, arr, hits = _barycentric(t, x, b, signs)
        coeffs = _dct1(values[::2]) / n
        coeffs[[0, -1]] /= 2
        coeffs[1::2] *= -1
        # (1 - t)(1 + t): next to the ends, 1 - t * t errs by eps / (1 - t^2)
        g[1:-1] = (abs(b @ signs) / den[1:-1]) ** 2 / ((1 - t[1:-1]) * (1 + t[1:-1]))
        v = _lobatto_values(coeffs, 2 * n)
        row, node = hits
        even = row % 2 == 0
        on_grid = (node[even], row[even] // 2)
        on_support = np.abs(
            _contract(arr[::2].T, v[::2], on_grid, _lobatto_weights(n))[0])
        mu = DiscreteMeasure._hoel_levine(x, moduli / lebesgue)
        l2 = math.sqrt((mu.weights * on_support**2).sum())
        sup = _sup_bound(v, g)
        # the one fault test: |P| = 1 at every node to rounding of sup|P|,
        # and sup finite; max returns its NaN first argument, and NaN fails
        slack = max(32 * (n + 1) * _U * sup, 1e-6)
        if not np.abs(on_support - 1.0).max() <= slack < math.inf:
            raise RuntimeError(f"barycentric sums cancel on this support at z0 = {z0}")
    P = ChebPoly(coeffs)
    K = lebesgue * lebesgue
    gap = 1.0
    if math.isfinite(K):  # in logs, so |P(z0)|^2 is never formed
        p_z0 = coeffs @ np.cosh(np.arange(n + 1) * cmath.acosh(z0))
        gap = abs(math.expm1(2.0 * math.log(abs(p_z0)) - math.log(K)))
    certificate = Certificate(
        sup_norm=sup,
        l2_mu_norm=l2,
        on_support_moduli=on_support.tolist(),
        duality_gap=gap,
    )
    return Design(
        measure=mu, z0=z0, n=n, K_value=K, extremal_poly=P, certificate=certificate,
    )


def design_from_support(n, z0, nodes):
    """Assemble the full Design for a given support: Hoel-Levine weights,
    kernel value, signed extremal polynomial, certificate, in O(n^2).

    The degree, z0 and nodes are checked here; _support_design then builds
    the design from one pairwise pass and checks none of it again.
    """
    _check_degree(n, lowest=1)
    z0 = require_exterior(z0)
    x = as_nodes(nodes)
    if len(x) != n + 1:
        raise ValueError(f"degree {n} needs {n + 1} nodes, got {len(x)}")
    return _support_design(z0, x)


def _support_design(z0, x):
    """The Design on the checked support x at the exterior z0: the moduli
    |l_i(z0)| from one pairwise pass (polynomial._pairwise_moduli), their
    sum Lambda checked by _checked_moduli, then _assemble.  The route of
    design_from_support and of optimize_support's closed forms.
    """
    e = z0 - x
    d = np.abs(e)
    with np.errstate(over="ignore", invalid="ignore"):
        moduli = _pairwise_moduli(x, d)
        lebesgue = _checked_moduli(moduli, z0)
    return _assemble(z0, x, moduli, lebesgue, e, d)


def hoel_levine_weights(nodes, z0):
    """Weights proportional to |l_i(z0)|, optimal among weightings of the
    nodes: those of design_from_support at an exterior z0, degree
    len(nodes) - 1."""
    x = as_nodes(nodes)
    return design_from_support(len(x) - 1, z0, x).measure.weights


def extremal_signed_poly(nodes, z0):
    """P = sum_i sgn(l_i(z0)) l_i with the conjugate sign sgn(z) = conj(z)/|z|,
    that of design_from_support at an exterior z0, degree len(nodes) - 1.

    The conjugation makes P(z0) = sum |l_i(z0)| real and positive.  On an
    optimal support this is the polynomial of extremal growth at z0.
    """
    x = as_nodes(nodes)
    return design_from_support(len(x) - 1, z0, x).extremal_poly


def _residual_terms(interior, z0):
    """(x, m, Lambda, e, d, inv, F, t) at the interior nodes x_1 < ... <
    x_{n-1} in O(n^2), or None unless -1 < x_1 < ... < x_{n-1} < 1: the
    support x = [-1, x_1, ..., x_{n-1}, 1], the moduli m_i = |l_i(z0)| and
    their checked sum Lambda (_checked_moduli), e_i = z0 - x_i, d = |e|,
    inv_ik = 1/(x_i - x_k) (0 for i = k), the first-order residual F_j =
    Re(conj(P(x_j)) P'(x_j)) with its summands t_ji, a row for each interior
    j (t_jj = 0).  One pairwise array x_i - x_k serves both m, through its
    absolute values (polynomial._lagrange_moduli), and inv, formed from it
    in place; the residual needs no Lagrange phases, so none are computed.
    Its callers, _solve and optimize_support (for an uncertified design's
    warning), have z0 from require_exterior and the nodes are real and in
    [-1, 1], so no z0 - x_i is 0 and z0 needs no check against them here.
    The terms at the solved nodes are the ones their design is assembled
    from.

    F_j is half the derivative of |P|^2 at x_j, so it vanishes on an optimal
    support, where every interior node is a maximum of |P| on [-1, 1].  It is
    computed from the Lagrange moduli and e alone:

        F_j = sum_{i != j} (1 + (m_i/m_j) Re(e_i/e_j)) / (x_j - x_i).

    With barycentric weights b_i = 1/prod_{k != i}(x_i - x_k), l_i(z0) =
    l(z0) b_i/e_i for the node polynomial l, and P(x_i) = s_i = conj(l_i)/m_i,
    barycentric differentiation gives P'(x_j) = sum_{i != j} (b_i/b_j)(s_i -
    s_j)/(x_j - x_i).  In conj(s_j) P'(x_j) the products conj(s_j)(b_i/b_j)s_i
    equal (m_i/m_j)(e_i/e_j), and the remaining -b_i/b_j terms sum to
    sum_{i != j} 1/(x_j - x_i), because each row of the differentiation
    matrix sums to zero.  This is the node derivative of the Lebesgue function
    Lambda = sum_i m_i (Kilgore; de Boor & Pinkus, J. Approx. Theory 24,
    1978): F = -g/p with p the Hoel-Levine weights and g = p^T J the gradient
    of log Lambda, J_ik = d log m_i/d x_k.  Formed as -g/p, F would cancel
    near the axis.
    """
    x = np.concatenate(([-1.0], interior, [1.0]))
    if not (x[1:] > x[:-1]).all():
        return None
    e = z0 - x
    d = np.abs(e)
    inv = np.subtract.outer(x, x)
    with np.errstate(over="ignore", invalid="ignore"):
        m = _lagrange_moduli(d, np.abs(inv))
        lebesgue = _checked_moduli(m, z0)
    step = len(x) + 1
    inv.flat[::step] = 1.0
    np.divide(1.0, inv, out=inv)
    inv.flat[::step] = 0.0  # 1/(x_i - x_m), no i = m terms
    t = np.divide(m, m[1:-1, None])
    t *= (e / e[1:-1, None]).real
    t += 1.0
    t *= inv[1:-1]
    return x, m, lebesgue, e, d, inv, t.sum(axis=1), t


def _residual_jacobian(terms):
    """The exact Jacobian of F from the (x, m, Lambda, e, d, inv, F, t) of
    _residual_terms.

    With C = J - 1 g^T, the Hessian of log Lambda is H = S + C^T diag(p) C,
    S = sum_i p_i (Hessian of log m_i), and since dp_k/dx_l = p_k C_kl the
    Jacobian of F = -g/p is -diag(1/p) H - diag(F) C; C^T diag(p) C is O(n^3).
    """
    _, m, lebesgue, e, _, inv, F, _ = terms
    p = m / lebesgue
    q = 1.0 / e[1:-1]
    nk = len(q)
    J = inv[:, 1:-1] - q.real  # all nodes i, interior k
    J.flat[nk :: nk + 1] = -inv[1:-1].sum(axis=1)  # the diagonal of J[1:-1]
    C = J - p @ J
    # log m_i has Hessian -Re 1/e_k^2 at (k, k), k != i, and for each
    # m != i the Laplacian of the pair (i, m) with weight 1/(x_i - x_m)^2
    pk = p[1:-1]
    M = np.add.outer(p, p)
    M *= inv
    M *= inv
    # H = S + C^T diag(p) C, from S in place; M is 0 on its diagonal
    H = -M[1:-1, 1:-1]
    H.flat[:: nk + 1] = M[1:-1].sum(axis=1) - (1.0 - pk) * (q * q).real
    H += C.T @ (p[:, None] * C)
    # then the Jacobian -H/p_k - F_k C_k, in H's array
    np.negative(H, out=H)
    H /= pk[:, None]
    H -= F[:, None] * C[1:-1]
    return H


def _solve(x0, z0):
    """(terms, why): Levenberg-Marquardt on F = 0 from the ordered interior
    start x0, with terms the _residual_terms (x, m, Lambda, e, d, inv, F, t)
    of the support it returns: the first iterate that passes its stop test,
    else the last point it accepted, also when it refuses trial points or
    stops at the cap.

    Every new iterate, the start included, is tested once, on its own
    residual pass and before its Jacobian: if every |F_j| is within the
    rounding bound _ROOT_ROUNDING N sum_i |t_ji| of its own summands, over
    N nodes, it is returned as a root, with no Jacobian built.  An F that is
    empty (n = 1) or exactly 0 passes.  Such a root takes no further step:
    on the design-sweep band the step test, one Jacobian and one linear
    solve later, returns the same iterate, and where it does not, the steps
    it still takes are of rounding size (log K within 3.6e-15 on the
    decision ledger's points).  Starts with |Im z0| >= 1e-3 read 1e5 N eps
    or more, so they take the loop.

    Each iteration solves (A + mu D) s = -g, with A = J^T J, g = J^T F and
    D the running largest diag(A) (Marquardt's scaling; More, LNM 630,
    1978).  x + s is taken only if it is ordered and lowers |F|^2; then mu
    follows the gain ratio rho (Nielsen, IMM-REP-1999-05), and the new
    iterate is tested and, unless it is a root, gets one Jacobian.  A
    refused trial point costs one O(n^2) residual and raises mu.  It stops
    at an iterate that passes its test, on a step below _ROOT_XTOL
    (absolute, as every iterate lies in (-1, 1)) or after _MAX_ITER
    iterations; why says which.
    """
    terms = _residual_terms(x0, z0)
    x, fresh, D, mu, nu = x0, True, 0.0, 1e-6, 2.0
    step = len(x0) + 1  # the stride of a diagonal
    for k in range(_MAX_ITER):
        if fresh:  # a new iterate and, unless it is a root, its one Jacobian
            F, t = terms[6], terms[7]
            # the summands are not read again, so |t| overwrites them
            bound = _ROOT_ROUNDING * len(terms[0]) * np.abs(t, out=t).sum(axis=1)
            if (np.abs(F) <= bound).all():
                return terms, f"F = 0 to rounding after {k} iterations"
            f = F @ F
            J = _residual_jacobian(terms)
            A, g = J.T @ J, J.T @ F
            D, fresh = np.maximum(D, A.diagonal()), False
        damped = A.copy()
        damped.flat[::step] += mu * D
        s = np.linalg.solve(damped, -g)
        if np.abs(s).max() <= _ROOT_XTOL:
            return terms, f"step below tolerance after {k} iterations"
        y = x + s
        trial = _residual_terms(y, z0)
        f_new = np.inf if trial is None else trial[6] @ trial[6]
        if f_new < f:
            rho = (f - f_new) / 2 / (-s @ g - s @ A @ s / 2)
            mu *= max(1 / 3, 1 - (2 * rho - 1) ** 3)
            x, terms, fresh, nu = y, trial, True, 2.0
        else:
            mu, nu = mu * nu, 2 * nu
    return terms, f"no convergence in {_MAX_ITER} iterations"


def optimize_support(n, z0):
    """Optimal interior node placement for predicting at z0.

    Endpoints are pinned at -1 and +1.  On both axes the optimal support is
    known in closed form, and nothing is solved: at a real z0, Im z0 == 0,
    it is the Chebyshev extrema _lobatto(n) (Hoel & Levine, Ann. Math.
    Statist. 35, 1964), copied so that the design holds no cached array; on
    the imaginary axis, Re z0 == 0, the endpoints and the zeros of R_{n-1}
    (imaginary.closed_form_support), which the Pell identity proves optimal
    (module docstring).  Either design is assembled as a given support's
    is (_support_design), with the stop reason "closed form": one O(n^2)
    pairwise pass and one assembly.  Every other z0, however near an axis,
    keeps the solve: the n-1 interior nodes solve the first-order
    conditions F_j = 0 (_residual_terms) by _solve, with the exact
    Jacobian, from the Chebyshev extreme points in their exactly symmetric
    sine form; every iterate keeps the nodes ordered.  At n = 1 there are no
    interior nodes, and _solve stops at once on the empty F.  A solved
    design is assembled (_assemble) from the terms of the last residual, at
    exactly the returned nodes: its strict order test on [-1, x_1, ...,
    x_{n-1}, 1] implies every as_nodes check and its moduli passed
    _checked_moduli, so neither runs again.  An uncertified result comes
    back with a warning: its certificate carries the evidence, and the
    warning adds the residual, formed for it at the design's nodes, how the
    support was found (closed form, or why the solve stopped) and a proven
    bracket on the design's efficiency K_opt/K, its ends printed in full.

    The optimal K_opt is max |p(z0)|^2 / sup|p|^2 over p of degree n, so the
    constant 1, T_n and the design's own P, with |P(z0)|^2 >= K (1 - gap) and
    sup|P| <= sup_norm, each bound it from below, and Bernstein-Walsh,
    K_opt <= |phi(z0)|^(2n), from above; every support has K >= K_opt, so 1
    caps both ends.  The ends are formed in logs.  An overflowed K = inf is
    taken as the largest double in the upper end, and leaves no lower end
    but 0: its gap is 1, so P bounds nothing.
    """
    _check_degree(n, lowest=1)
    z0 = require_exterior(z0)
    why = "closed form"
    if z0.imag == 0.0:
        design = _support_design(z0, _lobatto(n).copy())
    elif z0.real == 0.0:
        # imported here: imaginary imports this module
        from .imaginary import closed_form_support

        design = _support_design(z0, closed_form_support(n, z0.imag))
    else:
        terms, why = _solve(_lobatto(n)[1:-1], z0)
        design = _assemble(z0, *terms[:5])
    if not design.certified:
        cert = design.certificate
        F = _residual_terms(design.measure.nodes[1:-1], z0)[6]
        log_T, log_phi = _log_kernel_bracket(n, z0)
        log_K = math.log(min(design.K_value, sys.float_info.max))
        lo = max(0.0, log_T) - log_K if math.isfinite(design.K_value) else -math.inf
        if cert.duality_gap < 1:
            lo = max(lo, math.log1p(-cert.duality_gap) - 2 * math.log(cert.sup_norm))
        hi = min(0.0, log_phi - log_K)
        warnings.warn(
            f"optimize_support(n={n}, z0={z0}): design failed certification "
            f"(max_violation={cert.max_violation:.3e}, "
            f"duality_gap={cert.duality_gap:.3e}, "
            f"residual={np.abs(F).max(initial=0.0):.3e}; solver: {why}); "
            # each end in full, as rounding it could exclude K_opt/K
            f"efficiency K_opt/K in [{math.exp(lo)!r}, {math.exp(hi)!r}]"
        )
    return design
