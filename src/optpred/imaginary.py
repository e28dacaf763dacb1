"""Closed-form optimal designs for purely imaginary exterior points z0 = ai.

Every function here takes any finite nonzero a, of either sign.  Two
polynomial families drive everything.  With s = sqrt(a^2 + 1) (computed
as hypot(a, 1), which does not overflow for large a), a > 0,
beta = (s - a)/(2s) and gamma = (a + s)/(2s), both have short Chebyshev forms:

    growth_poly:     Q_n = beta T_{|n-2|} - (i/s) T_{n-1} - gamma T_n,  n >= 1
    pell_companion:  R_n = U_n + (a/s - 1) T_n,                        n >= 0

Both also obey p_{k+1} = 2z p_k - p_{k-1}: 2z T_j = T_{j+1} + T_{j-1} shifts
the three terms of Q_n up by one index.  At n = 1, T_{-1} = T_1 merges the
first and last terms of Q_1 into (beta - gamma) T_1 = -(a/s) T_1.

They satisfy the Pell-type identity |Q_n(x)|^2 - (x^2 - 1) R_{n-1}(x)^2 = 1
on the real line, which pins |Q_n| = 1 exactly at the endpoints and at the
zeros of R_{n-1} and below 1 elsewhere on [-1, 1].  Those points, with
Hoel-Levine weights, form the optimal prediction design for ai, the kernel
value is (a^2+1)(|a| + s)^{2n-2}, and Q_n is (up to the phase -(i)^n) the
polynomial of extremal growth.  R_{n-1} has parity (-1)^(n-1), so its zeros
are symmetric about 0 and one support serves both ai and -ai.  For a < 0,
R_n is that of |a|, and Q_n is that of |a| reflected, Q_n(-z), which takes
its extremal value at ai; the identity still holds, since (x^2 - 1) R_{n-1}^2
is even in x.

The zeros of R_n solve a phase equation.  With x = cos theta, r = |a|/s
and U_n(cos theta) sin theta = sin((n + 1) theta),

    R_n(cos theta) sin theta = sin(n theta) cos theta + r sin theta cos(n theta)
                             = rho sin(n theta + phi),
    phi = atan2(r sin theta, cos theta),

so the k-th zero from the right solves h(theta) = n theta + phi = k pi,
k = 1, ..., n.  h' = n + r/(cos^2 theta + r^2 sin^2 theta) > 0, and
0 < phi < pi inside (0, pi), so that root is the only one in
((k - 1) pi/n, k pi/n).  At r = 1, phi = theta and the zeros are those of
U_n, cos(k pi/(n + 1)).
"""

import math

import numpy as np
import numpy.polynomial.chebyshev as cheb

from .design import design_from_support
from .polynomial import ChebPoly, _check_degree, _finite

_LOG_MAX = math.log(np.finfo(float).max)
# companion_zeros stops here at the latest; every (n, a) its tests sample,
# n up to MAX_DEGREE and a from 5e-324 to 1.7e308, converges within 6
_ZERO_ITERATIONS = 40


def _check_a(a):
    """a as a float, finite and nonzero: ai is exterior for either sign."""
    a = float(a)
    if not math.isfinite(a):
        raise ValueError(f"a = {a} is not finite")
    if a == 0:
        raise ValueError("a must be nonzero; ai must be exterior to [-1, 1]")
    return a


def _growth_coeffs(n, a, deg):
    """The Chebyshev coefficients of Q_{n_j} at a_j, one row per pair of the
    1-d arrays n (>= 1) and a (finite, nonzero), zero-padded to degree deg:
    beta T_{|n-2|} - (i/s) T_{n-1} - gamma T_n, for a < 0 with the odd
    coefficients' signs flipped.  The package's one source of Q_n.
    """
    s = np.hypot(a, 1.0)
    rows = np.arange(len(n))
    c = np.zeros((len(n), deg + 1), dtype=complex)
    # gamma = (a + s)/(2s) and beta = (s - a)/(2s) = 1/(4 s^2 gamma), formed
    # without s - a (cancellation) or a + s (overflow above a ~ 9e307); beta is
    # divided in steps, so large a underflows it to 0 instead of overflowing
    gamma = 0.5 * (1.0 + np.abs(a) / s)
    c[rows, np.abs(n - 2)] = 0.25 / s / s / gamma
    c[rows, n - 1] -= 1j / s
    c[rows, n] -= gamma  # at n = 1 this merges into T_1 with beta
    c[a < 0, 1::2] *= -1
    return c


def _companion_coeffs(n, a, deg):
    """The Chebyshev coefficients of R_{n_j} at a_j, one row per pair of the
    1-d arrays n (>= 0) and a (finite, nonzero), zero-padded to degree deg:
    U_n + (|a|/s - 1) T_n.  U_n in the T basis is 2 T_n + 2 T_{n-2} + ...,
    its T_0 term counted once, so the entries of the other parity are exact
    zeros.  The package's one source of R_n.
    """
    k = np.arange(deg + 1)
    c = 2.0 * ((k <= n[:, None]) & ((n[:, None] - k) % 2 == 0))
    c[:, 0] /= 2
    rows = np.arange(len(n))
    # subtracting 1 before adding a/s keeps R_0 = a/s exact
    c[rows, n] = c[rows, n] - 1.0 + np.abs(a) / np.hypot(a, 1.0)
    return c


def growth_poly(n, a):
    """Q_n for a > 0: beta T_{|n-2|} - (i/s) T_{n-1} - gamma T_n, no other terms.

    For a < 0 it is Q_n(-z) of |a|, extremal at ai: the odd Chebyshev
    coefficients of |a| with their signs flipped.
    """
    _check_degree(n, lowest=1)
    a = _check_a(a)
    return ChebPoly(_growth_coeffs(np.array([n]), np.array([a]), n)[0])


def pell_companion(n, a):
    """R_n: U_n + (|a|/s - 1) T_n; real coefficients, parity (-1)^n."""
    _check_degree(n)
    a = _check_a(a)
    return ChebPoly(_companion_coeffs(np.array([n]), np.array([a]), n)[0])


def pell_residual(n, a, x):
    """|  |Q_n(x)|^2 - (x^2 - 1) R_{n-1}(x)^2 - 1  | at real x; 0 in exact math.

    Either one pair (n, a) with x of any shape, or a batch: equal-length 1-d
    sequences n and a with a 2-d x, row j of x taken at (n[j], a[j]).  The
    result has the shape of x.  Each entry meets growth_poly's checks, in
    order.  Re Q_n, Im Q_n and R_{n-1} of every pair, zero-padded to degree
    max(n), come from the closed forms as three columns of one block; one
    chebvander block of x to that degree, contracted with those columns by
    one broadcast matmul, evaluates every row at once.
    """
    batch = np.ndim(n) > 0 or np.ndim(a) > 0
    if batch and not (np.ndim(n) == np.ndim(a) == 1 and len(n) == len(a)):
        raise ValueError("n and a must be 1-d sequences of equal length")
    # n is iterated as given, so each entry meets the degree check
    pairs = list(zip(n, a)) if batch else [(n, a)]
    x = np.asarray(x, dtype=float)
    _finite("x", x)
    if batch and (x.ndim != 2 or len(x) != len(pairs)):
        raise ValueError(f"x must be 2-d with one row per (n, a) pair, "
                         f"got shape {x.shape} for {len(pairs)} pairs")
    ns, avals = [], []
    for nj, aj in pairs:
        _check_degree(nj, lowest=1)
        ns.append(nj)
        avals.append(_check_a(aj))
    ns, avals = np.array(ns, dtype=int), np.array(avals)
    # an empty batch evaluates to an empty array
    deg = int(ns.max()) if len(ns) else 0
    Q = _growth_coeffs(ns, avals, deg)
    c = np.stack((Q.real, Q.imag, _companion_coeffs(ns - 1, avals, deg)), axis=-1)
    # one pair broadcasts its block c[0] over any shape of x; chebvander
    # reads a 0-d x as shape (1,), which the last reshape undoes
    qr, qi, r = np.moveaxis(cheb.chebvander(x, deg) @ c, -1, 0)
    return np.abs(qr * qr + qi * qi - (x * x - 1.0) * (r * r) - 1.0).reshape(x.shape)


def companion_zeros(n, a):
    """All n zeros of R_n in increasing order, from the phase equation of the
    module docstring, by a vectorized Newton iteration.

    The equation is solved in psi = pi/2 - theta, so that x = sin psi keeps
    its relative accuracy near 0, and for x > 0 alone: R_n has parity
    (-1)^n, so the negative zeros mirror the positive ones, and odd n adds 0.
    Zero j (j = n - 1, n - 3, ..., down to 1 or 2) is the root of

        g(psi) = n (psi - b) - atan2(r cos psi, sin psi),  b = (j - 1) pi/(2n),

    the only one in its bracket (b, b + pi/(2n)).  There g' = n + r/rho^2
    >= n, g is concave (r <= 1) and atan2(r cos psi, sin psi) > 0, so
    g(psi) < n (psi - b) and a Newton step from any start in the bracket
    lands in (b, root]; by concavity the iterates then rise to the root and
    never pass it (the monotone case of Newton's method; Ostrowski, Solution
    of Equations and Systems of Equations, 1960).  The start j pi/(2(n + 1))
    lies in the bracket and is the root itself at r = 1; for j = 1 it is
    capped at sqrt(r/n), which bounds the root from above (there tan psi
    tan(n psi) = r, and tan psi tan(n psi) >= n psi^2) and approaches it as
    r -> 0.

    The loop stops once every zero's remaining error is below 4e-16 psi.
    With rho >= r and |sin 2psi| <= 1, |g''| = r (1 - r^2) |sin 2psi| /
    rho^4 <= (1 - r^2)/r^3, and g' >= n, so a step leaves an error of at
    most about B step^2, B = (1 - r^2)/(2 n r^3), tested as (1 - r^2)
    step^2 <= 8e-16 n r^3 psi with no division; B = 0 at r = 1, where the
    start is the root.  This saves the pass that would only confirm
    convergence.  Where r^3 underflows (B is not finite), or B is so large
    that a step at the rounding level of psi fails that test (a below
    about 1e-7), the step itself falling below 4e-16 psi also stops it.
    _ZERO_ITERATIONS caps the loop, so it always ends.  O(n) per iteration
    and no matrix.
    """
    _check_degree(n)
    a = abs(_check_a(a))
    if n == 0:
        return np.empty(0)
    r = a / np.hypot(a, 1.0)
    j = np.arange(1 + n % 2, n, 2)
    base = (j - 1) * (np.pi / (2 * n))
    psi = j * (np.pi / (2 * (n + 1)))
    if n % 2 == 0:
        # sqrt(r) first: r / n underflows to 0 for a subnormal a
        psi[0] = min(psi[0], math.sqrt(r) / math.sqrt(n))
    tol = 8e-16 * n * r**3  # 0 where r^3 underflows
    for _ in range(_ZERO_ITERATIONS):
        sin_psi, r_cos_psi = np.sin(psi), r * np.cos(psi)
        rho = np.hypot(r_cos_psi, sin_psi)
        g = n * (psi - base) - np.arctan2(r_cos_psi, sin_psi)
        new = psi - g / (n + r / rho / rho)
        step = new - psi
        done = (1 - r * r) * (step * step) <= tol * new
        done |= abs(step) <= 4e-16 * new
        psi = new
        if done.all():
            break
    x = np.sin(psi)
    return np.concatenate((-x[::-1], np.zeros(n % 2), x))


def closed_form_support(n, a):
    """Support of the optimal design at z0 = ai, in increasing order:
    {-1} union zeros(R_{n-1}(|a|)) union {+1}, the same for a and -a since
    the zeros are symmetric."""
    _check_degree(n, lowest=1)
    return np.concatenate(([-1.0], companion_zeros(n - 1, a), [1.0]))


def closed_form_design(n, a):
    """The optimal design at z0 = ai without any optimizer run.

    Support is closed_form_support(n, a).  Weights, kernel value, extremal
    polynomial and certificate are assembled the same way the numerical route
    assembles them, so the two routes stay comparable.  optimize_support(n,
    ai) takes this support too and assembles it by design._support_design,
    this route without design_from_support's input checks, so it returns
    this design bit for bit.
    """
    nodes = closed_form_support(n, a)
    return design_from_support(n, 1j * _check_a(a), nodes)


def growth_value(n, a):
    """max |p(ai)| over polynomials with sup-norm <= 1 on [-1, 1], degree <= n:

        sqrt(a^2 + 1) * (|a| + sqrt(a^2 + 1))^(n-1),

    attained by Q_n (up to phase).  Raises RuntimeError where that exceeds
    the largest double (from n = 340 on at a = 4), as the package's other
    overflows do: n and a are valid, the number is not representable.  The
    test is made in logs, log(|a| + s) = asinh(|a|), so it runs before
    anything can overflow."""
    _check_degree(n, lowest=1)
    a = abs(_check_a(a))
    s = np.hypot(a, 1.0)
    if math.log(s) + (n - 1) * math.asinh(a) > _LOG_MAX:
        raise RuntimeError(
            f"growth value at n = {n}, |a| = {a} exceeds the largest double"
        )
    if n == 1:
        return float(s)  # without forming a + s, which overflows above ~9e307
    return float(s * (a + s) ** (n - 1))


def growth_gap(n, a):
    """How far the extremal growth exceeds the naive Chebyshev value |T_n(ai)|.

    Returns two independent forms of (g^(n-2) - (-1)^n g^(-n)) / 2, g = |a| + s,
    neither a difference of nearly equal numbers: lhs = growth_value -
    |T_n(ai)| = g^(n-2) (1 - (-1)^n g^(2-2n)) / 2 with log g = asinh|a|, and
    rhs = (s - |a|) |T_{n-1}(ai)| = |T_{n-1}(ai)| / (s + |a|) from chebvander.
    g = s (1 + |a|/s) is never formed: it overflows above |a| ~ 9e307.
    growth_value comes first: it checks n and a, and its range check, with
    its RuntimeError, covers |T_{n-1}(ai)| <= growth_value too.
    """
    growth_value(n, a)
    a = abs(float(a))
    s = math.hypot(a, 1.0)
    x = (2 - 2 * n) * math.asinh(a)
    tail = -math.expm1(x) if n % 2 == 0 else 1.0 + math.exp(x)
    lhs = 0.5 * tail * (1.0 + a / s) ** (n - 2) * s ** (n - 2)
    rhs = abs(cheb.chebvander(1j * a, n - 1)[0, -1]) / s / (1.0 + a / s)
    return float(lhs), float(rhs)
