"""Shared test helpers and oracles: padded Chebyshev coefficient vectors,
the exact sup-norm over [-1, 1] that the tests hold the design certificate
against, the dense interpolation solve that the extremal polynomial's
coefficients are held against, the complex pairwise-ratio product that
lagrange_values is held against, and the Christoffel-kernel oracles (the
Gram matrix, K by QR and by the Lagrange route, the normalized kernel
polynomial, the directional derivative of K and its finite difference by a
solve), the 50-digit zeros of R_n that companion_zeros is held against, the
50-digit Clenshaw evaluation of a ChebPoly that the certificate's values
of P are held against, the certificate's Pell term c (1 - t^2) w^2 formed
in logs, which the barycentric route of design._assemble is held against,
the certificate's |P| at the nodes by a barycentric pass of its own, which
the contraction of the assembly pass's array is held against, and the
Lagrange moduli as products along rows, which polynomial._lagrange_moduli's
products down columns are held against.  The QR routes solve against the R
factor of one QR of the sqrt(w)-weighted chebvander matrix, under the rank
rule of optpred's least-squares fit."""

from dataclasses import dataclass

import mpmath
import numpy as np
import numpy.polynomial.chebyshev as cheb
from scipy.linalg import solve_triangular

from optpred import ChebPoly, lagrange_values
from optpred.design import _lobatto_values
from optpred.polynomial import (
    _barycentric,
    _check_degree,
    _finite_point,
    _lobatto,
    _lobatto_weights,
)
from optpred.regression import _full_rank

_NEAR_TOL = 1e-9


def padded(p, length):
    """The coefficients of ChebPoly p, zero-padded to length (never truncated)."""
    if length < len(p.coeffs):
        raise ValueError("cannot pad below current length")
    return np.pad(p.coeffs, (0, length - len(p.coeffs)))


def is_zero(p):
    """True for the zero polynomial, whose ChebPoly keeps the single coefficient 0."""
    return bool(np.all(p.coeffs == 0))


def lagrange_pairwise(nodes, z):
    """l_0(z), ..., l_n(z) as products of the complex pairwise ratios
    (z - x_k) / (x_i - x_k), one (n+1)^2 matrix; exact at a node z."""
    x = np.asarray(nodes, dtype=float)
    ratios = (z - x[None, :]) / (x[:, None] - x[None, :] + np.eye(len(x)))
    np.fill_diagonal(ratios, 1.0)
    return ratios.prod(axis=1)


def lagrange_to_cheb_solve(nodes, values):
    """Chebyshev coefficients of the interpolant of values at nodes by one
    dense O(n^3) solve of the chebvander system V c = values."""
    x = np.asarray(nodes, dtype=float)
    return np.linalg.solve(cheb.chebvander(x, len(x) - 1),
                           np.asarray(values, dtype=complex))


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
    if is_zero(p):
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


def gram(mu, n):
    """G[i, j] = sum_k w_k T_i(x_k) T_j(x_k); real support makes it symmetric."""
    V = cheb.chebvander(mu.nodes, n)
    G = (V.T * mu.weights) @ V
    return 0.5 * (G + G.T)


def christoffel(mu, n, z0):
    """K(z0) = t(z0)^H G^{-1} t(z0) >= |p(z0)|^2 / ||p||_{L2(mu)}^2 for deg <= n.

    K = |u|^2 with u = R^{-T} t(z0), one triangular solve against the
    rank-checked QR factor R of the weighted basis B, never G or its
    inverse: R^T R = G, so cond(B) is never squared.  Works for any measure
    with at least n+1 support points.  z0 must be finite and n an integer
    >= 0, as the package's own entry points require.
    """
    _finite_point(z0)  # check only: a real z0 stays real, and so does its rounding
    _check_degree(n)
    _, u = _kernel_basis(mu, n, z0)
    return float(np.vdot(u, u).real)


def christoffel_lagrange(mu, n, z0):
    """K(z0) by the Lagrange route, sum_i |l_i(z0)|^2 / w_i.

    Only valid when the support has exactly n+1 nodes (the l_i then form a
    basis of degree-n polynomials).
    """
    if len(mu.nodes) != n + 1:
        raise ValueError(f"Lagrange route needs exactly {n + 1} nodes, "
                         f"got {len(mu.nodes)}")
    ell = lagrange_values(mu.nodes, _finite_point(z0))
    return float(np.sum(np.abs(ell) ** 2 / mu.weights))


def _kernel_basis(mu, n, z0):
    """(R, u): the rank-checked QR factor R of the weighted basis and
    u = R^{-T} t(z0), so K(z0) = |u|^2 and R^{-T} conj(t(z0)) = conj(u)."""
    B = np.sqrt(mu.weights)[:, None] * cheb.chebvander(mu.nodes, n)
    R = _full_rank(np.linalg.qr(B, mode="r"))
    return R, solve_triangular(R, cheb.chebvander(z0, n)[0], trans="T")


def kernel_poly(mu, n, z0):
    """The normalized kernel polynomial P(z) = K(z0, z) / sqrt(K(z0, z0)).

    P has L^2(mu) norm 1 and |P(z0)|^2 = K(z0, z0); among all polynomials of
    degree <= n with unit L^2(mu) norm it maximizes |p(z0)|.  Chebyshev
    coefficients are G^{-1} conj(t(z0)) / sqrt(K).
    """
    if np.min(np.abs(z0 - mu.nodes)) == 0.0:
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
    if not -1.0 <= a <= 1.0:
        raise ValueError(f"direction point {a} outside [-1, 1]")
    R, u = _kernel_basis(mu0, n, z0)
    v = solve_triangular(R, cheb.chebvander(a, n)[0], trans="T")
    return float(np.vdot(u, u).real - abs(np.vdot(u, v)) ** 2)


def fd_kernel_derivative(mu, a, n, z0, t=1e-6):
    """The central finite difference of K(z0) along mu_t = (1-t) mu + t
    delta_a, by a linear solve on the mixed Gram matrix: an oracle for
    directional_derivative that shares none of its QR route."""
    V = cheb.chebvander(mu.nodes, n)
    G0 = (V.T * mu.weights) @ V
    phi_a = cheb.chebvander(a, n)[0]
    t0 = cheb.chebvander(z0, n)[0]

    def K(tt):
        Gt = (1 - tt) * G0 + tt * np.outer(phi_a, phi_a)
        return np.vdot(t0, np.linalg.solve(Gt, t0)).real

    return (K(t) - K(-t)) / (2 * t)


def phase_zeros(n, a, guesses):
    """The n zeros of R_n(|a|) in increasing order to 50 digits, as roots of
    h(theta) = n theta + atan2(r sin theta, cos theta) = k pi, r = |a|/s.

    Newton in mpmath from theta = acos(guesses[n - k]), until a step falls
    below 1e-45 theta.  h is increasing with exactly one root in
    ((k - 1) pi/n, k pi/n), so a root found inside that bracket is the k-th
    zero, whatever the guess; one found outside raises AssertionError.
    """
    with mpmath.workdps(50):
        a = abs(mpmath.mpf(a))
        r = a / mpmath.sqrt(a * a + 1)
        zeros = []
        for k, guess in zip(range(n, 0, -1), guesses):
            theta = mpmath.acos(mpmath.mpf(float(guess)))
            for _ in range(40):
                sin, cos = mpmath.sin(theta), mpmath.cos(theta)
                h = n * theta + mpmath.atan2(r * sin, cos) - k * mpmath.pi
                step = h / (n + r / (cos * cos + r * r * sin * sin))
                theta -= step
                if abs(step) <= mpmath.mpf(10) ** -45 * theta:
                    break
            else:
                raise AssertionError(f"no 50-digit root for n={n}, k={k}")
            assert (k - 1) * mpmath.pi / n < theta < k * mpmath.pi / n
            zeros.append(mpmath.cos(theta))
        return np.array([float(x) for x in zeros])


def chebval_50(coeffs, z):
    """sum_k coeffs[k] T_k(z) at one point z, by Clenshaw's recurrence in
    50-digit mpmath arithmetic, as a complex number."""
    with mpmath.workdps(50):
        z = mpmath.mpmathify(z)
        b1 = b2 = mpmath.mpc(0)
        for c in coeffs[:0:-1]:
            b1, b2 = mpmath.mpc(c) + 2 * z * b1 - b2, b1
        return complex(mpmath.mpc(coeffs[0]) + z * b1 - b2)


def pell_term_logs(P, nodes):
    """c (1 - t^2) w^2 at the 2n + 1 points t = _lobatto(2n), for
    w = prod_k (t - x_k) over the interior nodes and c = 4^(n-1) |P_n|^2
    from P's Chebyshev coefficient P_n (0 if deg P < n), formed in logs, as
    the factors overflow and underflow apart at large n; a node on a point
    t gives 0.  1 - t^2 is taken as (1 - t)(1 + t), accurate to rounding at
    the float t also next to the ends, where 1 - t t is not."""
    x = np.asarray(nodes, dtype=float)
    n = len(x) - 1
    t = _lobatto(2 * n)
    lead = P.coeffs[n] if P.degree == n else 0.0
    with np.errstate(divide="ignore"):
        log_w = np.log(np.abs(np.subtract.outer(t, x[1:-1]))).sum(axis=1)
        log_c = 2.0 * np.log(abs(lead)) + 2 * (n - 1) * np.log(2.0)
    return (1.0 - t) * (1.0 + t) * np.exp(2.0 * log_w + log_c)


def on_support_moduli_pass(P, nodes):
    """|P| at the nodes from P's values v at _lobatto(2n) (from its stored
    coefficients), by a barycentric pass of its own from every other one,
    at the n + 1 points _lobatto(n), to the nodes: a pairwise array x_i -
    t_j of its own, not the contraction of the assembly pass's."""
    x = np.asarray(nodes, dtype=float)
    n = len(x) - 1
    v = _lobatto_values(P, 2 * n)
    return np.abs(_barycentric(x, _lobatto(n), _lobatto_weights(n), v[::2])[0])


def lagrange_moduli_rows(d, pairs):
    """m_i = prod_{k != i} d_k / |x_i - x_k| as the product along row i of
    the ratio array, from d = |z - x| and the array pairs of |x_i - x_k|,
    which it leaves as it is; d on the diagonal gives the i = k ratio 1."""
    ratios = np.array(pairs, dtype=float)
    ratios.flat[:: len(d) + 1] = d
    return np.divide(d, ratios, out=ratios).prod(axis=1)
