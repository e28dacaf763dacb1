"""Complex-coefficient polynomials in the Chebyshev basis on [-1, 1].

The Chebyshev basis is used everywhere; monomial coefficients are far worse
conditioned on [-1, 1] and are never stored.  This module supplies the
polynomial arithmetic the rest of the package needs: the values of all
Lagrange fundamental polynomials of a node set at a point (lagrange_values,
the package's one Lagrange evaluator), and the values and denominators of
the second barycentric formula at a set of points (_barycentric, the
package's one barycentric evaluator), with the Chebyshev-Lobatto grids
(_lobatto) and the DCT-I between values and coefficients.  A design's
assembly (design._assemble) makes one _barycentric pass on the 2n-grid
_lobatto(2n), and its certificate contracts that pass's array b_j / (t -
x_j) again (_contract), with no second pairwise pass or search.  Each
O(n^2) pass here fills one real array in place and never upcasts it to
complex.  The input checks every other module applies live here too, one
rule per kind of argument: _check_int for degrees, counts, m, seeds and
replicates, _finite for arrays of reals or complex numbers, _finite_point
for z0 and as_nodes for node sets.
"""

import cmath
import functools

import numpy as np
import numpy.polynomial.chebyshev as cheb

# A cap on work (the root-solve Jacobian is a dense O(n^3) step; assembling a
# design from its support is O(n^2)), not a range guarantee: K overflows far
# earlier once |z0| >~ 2, closed_form_design(192, 4.0) already returns
# K = inf, and growth_value(n, 4.0) raises RuntimeError from n = 340 on.
MAX_DEGREE = 512


def _check_int(name, value, lowest=0):
    """value, an integer no lower than lowest.

    The package's one integer rule: a bool or a float is refused, never
    rounded, and both errors name the argument.
    """
    kind = type(value)
    # bool subclasses int; numpy's bool_ subclasses neither int nor integer
    if kind is bool or not issubclass(kind, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {kind.__name__}")
    if value < lowest:
        raise ValueError(f"{name} must be >= {lowest}, got {value}")
    return value


def _check_degree(n, lowest=0):
    _check_int("degree", n, lowest)
    if n > MAX_DEGREE:
        raise ValueError(f"degree {n} exceeds supported maximum {MAX_DEGREE}")


def _finite(name, values, dtype=float):
    """values as an array of at least one dimension, refused unless all finite."""
    v = np.atleast_1d(np.asarray(values, dtype=dtype))
    if not np.isfinite(v).all():
        raise ValueError(f"{name} must be finite")
    return v


def _finite_point(z0):
    z0 = complex(z0)
    if not cmath.isfinite(z0):
        raise ValueError(f"z0 = {z0} is not finite")
    return z0


class ChebPoly:
    """Polynomial sum_k c[k] T_k(z) with complex coefficients c."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = _finite("coefficients", coeffs, complex)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must be a non-empty 1-d sequence")
        nz = np.nonzero(c)[0]
        # drop exactly-zero trailing coefficients; the zero polynomial keeps [0]
        self.coeffs = c[: nz[-1] + 1].copy() if nz.size else np.zeros(1, dtype=complex)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __call__(self, z):
        return cheb.chebval(z, self.coeffs)

    def __repr__(self):
        return f"ChebPoly({self.coeffs.tolist()})"

    def to_json(self):
        return {
            "basis": "chebyshev",
            "coeffs": [[float(c.real), float(c.imag)] for c in self.coeffs],
        }


def as_nodes(nodes):
    """Validate and return a node set: >= 2 strictly increasing reals in [-1, 1]."""
    x = _finite("nodes", nodes)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("need at least 2 nodes")
    if x[0] < -1.0 or x[-1] > 1.0:
        raise ValueError(f"nodes must lie in [-1, 1], got range [{x[0]}, {x[-1]}]")
    if (x[1:] <= x[:-1]).any():
        raise ValueError("nodes must be strictly increasing")
    return x


def lagrange_values(nodes, z):
    """All fundamental Lagrange polynomials l_0(z), ..., l_n(z) at a finite
    scalar z, the package's one evaluator of them at any z.

    Taken as modulus times unit phase from one real pairwise pass that never
    divides by z - x_j: m_i = prod_{k != i} |z - x_k| / |x_i - x_k|
    (_pairwise_moduli), a product of pairwise ratios rather than a ratio of
    two products, which would over- and underflow apart, and the phase
    prod_k u_k / u_i (-1)^(n - i) with unit u = (z - x) / |z - x|
    (_lagrange_phases); this modified Lagrange form is backward stable
    (Higham, IMA J. Numer. Anal. 24, 2004).  A z on a node gives exactly
    the unit vector, and a real z gives real values.
    """
    x = as_nodes(nodes)
    _finite_point(z)
    e = z - x
    d = np.abs(e)
    if not d.all():
        return (d == 0.0).astype(np.result_type(z, float))
    return _pairwise_moduli(x, d) * _lagrange_phases(e, d)


def _pairwise_moduli(x, d):
    """_lagrange_moduli over an array of |x_i - x_k| of its own, formed in
    place and freed on return, before the caller's next O(n^2) array: held
    through a design's assembly, it cost design_from_support about 8% at
    n = 192 (numpy 2.4, one BLAS thread, 2-core host).  Shared by
    lagrange_values and design.design_from_support.
    """
    pairs = np.subtract.outer(x, x)
    return _lagrange_moduli(d, np.abs(pairs, out=pairs))


def _lagrange_phases(e, d):
    """l_i(z) / |l_i(z)| from e = z - x and d = |e| != 0, in O(n): with unit
    u = e / d, prod_k u_k / u_i times the sign (-1)^(n - i) of prod_{k != i}
    (x_i - x_k).  Shared by lagrange_values and design._assemble, which
    takes e and d from the pass that formed the moduli.
    """
    u = e / d
    turn = u.prod()
    return turn / abs(turn) / u * _node_signs(len(e))


def _lagrange_moduli(d, pairs):
    """m_i = prod_{k != i} d_k / |x_i - x_k| from d = |z - x| != 0 and the
    symmetric n x n array pairs of |x_i - x_k|, which it overwrites: d goes
    on the diagonal, so the i = k ratio is d_i / d_i = 1, and the ratios
    d_k / |x_k - x_i| replace the differences in place.  As pairs is
    symmetric, m_i is the product down column i, taken in the order k = 0,
    ..., n as along a row, but reduced across contiguous rows, which runs
    several times faster than along each row.  Shared by _pairwise_moduli
    and the root-solve residual (design._residual_terms), which takes its
    pairs from the same x_i - x_k as its 1/(x_i - x_k); both pass
    np.abs(np.subtract.outer(x, x)).
    """
    pairs.flat[:: len(d) + 1] = d
    return np.divide(d[:, None], pairs, out=pairs).prod(axis=0)


@functools.lru_cache(maxsize=2 * MAX_DEGREE + 1)
def _lobatto(m):
    """cos(k pi / m), k = m, ..., 0, in sine form: exactly symmetric, with an
    exact 0 for even m where the cosine form leaves 6e-17.  Cached and
    read-only: a design of degree n asks for the grids of n and 2n."""
    t = np.sin(np.pi * np.arange(-m, m + 1, 2) / (2 * m))
    t.flags.writeable = False
    return t


@functools.lru_cache(maxsize=MAX_DEGREE + 1)
def _lobatto_weights(n):
    """Barycentric weights of the n + 1 points _lobatto(n): (-1)^(n - j),
    halved at both ends (Berrut & Trefethen, SIAM Rev. 46, 2004).
    Cached and read-only."""
    w = _node_signs(n + 1).copy()
    w[[0, -1]] /= 2
    w.flags.writeable = False
    return w


@functools.lru_cache(maxsize=MAX_DEGREE + 1)
def _node_signs(count):
    """(-1)^(n - i), i = 0, ..., n: the sign of prod_{k != i} (x_i - x_k), as
    x_i lies below n - i nodes, and so of the barycentric weight b_i.
    Cached and read-only."""
    signs = np.ones(count)
    signs[-2::-2] = -1.0
    signs.flags.writeable = False
    return signs


def _dct1(v):
    """The unnormalized DCT-I, y_k = v_0 + (-1)^k v_{N-1} + 2 sum_{j=1}^{N-2}
    v_j cos(pi j k/(N - 1)): the first N entries of the FFT of the even
    extension [v_0, ..., v_{N-1}, v_{N-2}, ..., v_1].  Real input gives a
    real result, through rfft, whose N entries are exactly those.  For N = 1
    the extension is [v_0], and y = v.
    """
    v = np.asarray(v)
    even = np.concatenate((v, v[-2:0:-1]))
    if np.iscomplexobj(v):
        return np.fft.fft(even)[: len(v)]
    return np.fft.rfft(even).real


def _barycentric(t, x, b, c):
    """(p(t), den(t), d, hits) at the points t for the polynomial p taking the
    values c at the increasing nodes x, given their barycentric weights b
    (any common scale), by the second barycentric formula

        p(t) = sum_j b_j c_j / (t - x_j)  /  den(t),  den(t) = sum_j b_j / (t - x_j)

    (Berrut & Trefethen, SIAM Rev. 46, 2004), forward stable for t in
    [-1, 1] on nodes of small Lebesgue constant (Higham, IMA J. Numer. Anal.
    24, 2004); den is 1/l(t) for the node polynomial l, up to the scale of
    b.  A t on a node takes that node's value and den = inf.  O(len(t)
    len(x)) in one real array d, overwritten in place with d_ij = b_j / (t_i
    - x_j) (b_j where t_i = x_j) and handed back with the hits (_hits), so
    that a second set of sums over the same differences (the certificate's,
    in design._assemble) needs no second pass and no second search; both
    are taken by _contract.  The values are complex.
    """
    d = np.subtract.outer(t, x)
    hits = _hits(t, x)
    d[hits] = 1.0
    np.divide(b, d, out=d)
    return (*_contract(d, c, hits), d, hits)


def _hits(t, x):
    """(i, j): the indices of every t_i that is a node x_j of the increasing
    x, found by a binary search, not by comparing every pair."""
    j = np.searchsorted(x[:-1], t)
    i = np.flatnonzero(x[j] == t)
    return i, j[i]


def _contract(d, c, hits, w=None):
    """The barycentric ratios p_i = sum_k w_k c_k d_ik / den_i and den_i =
    sum_k w_k d_ik over the columns k of d, for complex c and weights w (1
    if None); a row i of the hits (_hits) takes c_j and den_i = inf.
    Numerators and denominator come from one matrix product with the
    columns w Re c, w Im c and w, so the real matrix d is never made
    complex.
    """
    columns = np.ones((len(c), 3))
    columns[:, 0] = c.real
    columns[:, 1] = c.imag
    if w is not None:
        columns *= w[:, None]
    re, im, den = (d @ columns).T
    values = (re + 1j * im) / den
    i, j = hits
    values[i] = c[j]
    den[i] = np.inf
    return values, den
