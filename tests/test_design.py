import json
import math
import re
import warnings

import numpy as np
import numpy.polynomial.chebyshev as cheb
import pytest

import optpred.design
from optpred import (
    Certificate,
    Design,
    DiscreteMeasure,
    design_from_support,
    extremal_signed_poly,
    hoel_levine_weights,
    lagrange_values,
    optimize_support,
    require_exterior,
)
from optpred.design import (
    _log_kernel_bracket,
    _residual_jacobian,
    _lobatto_values,
    _residual_terms,
    _solve,
    _sup_bound,
)
from optpred.imaginary import closed_form_design, growth_gap, growth_value
from optpred.polynomial import MAX_DEGREE, _hits, _lobatto, _pairwise_moduli
from polyhelp import (
    chebval_50,
    christoffel,
    kernel_poly,
    on_support_moduli_pass,
    padded,
    pell_term_logs,
    sup_norm_interval,
)

NODES3 = np.array([-1.0, 0.0, 1.0])


def _cheb_t_squared(n, x):
    """T_n(x)^2 at real |x| > 1 in closed form, cosh(n acosh|x|)^2."""
    return math.cosh(n * math.acosh(abs(x))) ** 2


def _lebesgue(nodes, z0):
    """Lebesgue function sum_i |l_i(z0)|; its square is K under Hoel-Levine weights."""
    return float(np.sum(np.abs(lagrange_values(nodes, z0))))


def test_require_exterior():
    for bad in (0.5, 1.0, -1.0, 0.5 + 1e-13j, complex(-0.3, 0),
                np.nan, np.inf, complex(0, np.nan)):
        with pytest.raises(ValueError):
            require_exterior(bad)
    for good in (1.5, -3.0, 1j, 1 + 1j, 0.5 + 1e-9j):
        require_exterior(good)


def test_hoel_levine_two_point_imaginary():
    for a in (0.5, 1.0, 4.0):
        w = hoel_levine_weights(np.array([-1.0, 1.0]), a * 1j)
        np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-15)


def test_hoel_levine_hand_value():
    w = hoel_levine_weights(NODES3, 2.0)
    np.testing.assert_allclose(w, np.array([1.0, 3.0, 3.0]) / 7.0, atol=1e-14)
    assert abs(w.sum() - 1.0) <= 1e-14


def test_hoel_levine_chebyshev_nodes_give_squared_chebyshev():
    for n in (2, 3, 5):
        nodes = np.cos(np.pi * np.arange(n, -1, -1) / n)
        for z0 in (1.5, 2.0):
            mu = DiscreteMeasure(nodes, hoel_levine_weights(nodes, z0))
            K = christoffel(mu, n, z0)
            assert K == pytest.approx(_cheb_t_squared(n, z0), rel=1e-10)


def test_hoel_levine_rejects_node_point():
    # both helpers read design_from_support, so they take exterior z0 only:
    # a node and an interior point that is no node are refused alike
    for f in (hoel_levine_weights, extremal_signed_poly):
        for bad in (0.0, 0.5):
            with pytest.raises(ValueError, match="need an exterior point"):
                f(NODES3, bad)
    for bad in (np.nan, np.inf, complex(0, np.nan)):
        with pytest.raises(ValueError, match="not finite"):
            hoel_levine_weights(NODES3, bad)


def test_lebesgue_values():
    assert _lebesgue(NODES3, 2.0) == pytest.approx(7.0, rel=1e-13)
    for x in NODES3:
        assert _lebesgue(NODES3, x) == pytest.approx(1.0, abs=1e-14)
    for a in (0.5, 1.0, 2.0):
        assert _lebesgue(np.array([-1.0, 1.0]), a * 1j) == pytest.approx(
            np.sqrt(1 + a * a), rel=1e-13
        )


def test_lebesgue_squared_is_kernel_value():
    rng = np.random.default_rng(13)
    for _ in range(25):
        g = 0.4 + rng.random(4)
        x = np.concatenate(([0.0], np.cumsum(g)))
        nodes = -1.0 + 2.0 * x / x[-1]
        z0 = rng.uniform(1.1, 2.5) + 1j * rng.uniform(0, 1)
        mu = DiscreteMeasure(nodes, hoel_levine_weights(nodes, z0))
        K = christoffel(mu, len(nodes) - 1, z0)
        assert K == pytest.approx(_lebesgue(nodes, z0) ** 2, rel=1e-10)


def test_extremal_signed_poly_two_point():
    for a in (0.5, 1.0, 2.0):
        P = extremal_signed_poly(np.array([-1.0, 1.0]), a * 1j)
        s = np.sqrt(a * a + 1)
        np.testing.assert_allclose(P.coeffs, [1 / s, -1j * a / s], atol=1e-14)


def test_extremal_signed_poly_three_point_imaginary():
    # coefficients (1/s)(-(a+s), -i, s) on (z^2, z, 1), Chebyshev converted
    for a in (0.5, 1.0, 2.0):
        s = np.sqrt(a * a + 1)
        P = extremal_signed_poly(NODES3, a * 1j)
        expected = [1 - (a + s) / (2 * s), -1j / s, -(a + s) / (2 * s)]
        np.testing.assert_allclose(padded(P, 3), expected, atol=1e-14)


def test_extremal_signed_poly_rejects_nonfinite_point():
    for bad in (np.nan, np.inf, complex(0, np.nan)):
        with pytest.raises(ValueError, match="not finite"):
            extremal_signed_poly(NODES3, bad)


def test_extremal_signed_poly_real_point_is_chebyshev():
    P = extremal_signed_poly(NODES3, 2.0)
    np.testing.assert_allclose(padded(P, 3), [0, 0, 1.0], atol=1e-14)


def test_extremal_poly_attains_lebesgue_value():
    rng = np.random.default_rng(19)
    for _ in range(20):
        g = 0.4 + rng.random(5)
        x = np.concatenate(([0.0], np.cumsum(g)))
        nodes = -1.0 + 2.0 * x / x[-1]
        z0 = rng.uniform(-2, 2) + 1j * rng.uniform(0.3, 1.5)
        P = extremal_signed_poly(nodes, z0)
        val = P(z0)
        assert abs(val.imag) <= 1e-10
        assert val.real == pytest.approx(_lebesgue(nodes, z0), abs=1e-10)


def test_extremal_signed_poly_matches_kernel_poly():
    rng = np.random.default_rng(23)
    for _ in range(20):
        g = 0.4 + rng.random(4)
        x = np.concatenate(([0.0], np.cumsum(g)))
        nodes = -1.0 + 2.0 * x / x[-1]
        z0 = rng.uniform(1.2, 3) * (1 if rng.random() < 0.5 else 1j)
        mu = DiscreteMeasure(nodes, hoel_levine_weights(nodes, z0))
        P = extremal_signed_poly(nodes, z0)
        Q = kernel_poly(mu, len(nodes) - 1, z0)
        np.testing.assert_allclose(padded(P, len(nodes)),
                                   padded(Q, len(nodes)), atol=1e-10)


def test_hoel_levine_weights_are_optimal():
    rng = np.random.default_rng(31)
    nodes = np.array([-1.0, -0.4, 0.3, 1.0])
    z0 = 1.7 + 0.2j
    mu = DiscreteMeasure(nodes, hoel_levine_weights(nodes, z0))
    best = christoffel(mu, 3, z0)
    for _ in range(100):
        w = mu.weights * np.exp(0.3 * rng.standard_normal(4))
        perturbed = DiscreteMeasure(nodes, w / w.sum())
        assert best <= christoffel(perturbed, 3, z0) * (1 + 1e-12)


def test_design_validation():
    d = design_from_support(2, 2.0, NODES3)
    assert d.certified
    with pytest.raises(ValueError):
        design_from_support(2, 2.0, np.array([-0.9, 0.0, 1.0]))
    with pytest.raises(ValueError):
        design_from_support(3, 2.0, NODES3)
    with pytest.raises(TypeError):
        design_from_support(2.0, 2.0, NODES3)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="nodes must be finite"):
            design_from_support(2, 2.0, np.array([-1.0, bad, 1.0]))


def test_design_json_round_trip():
    d = design_from_support(2, 1j, NODES3)
    assert d.to_json()["certificate"]["certified"] is True
    d2 = Design.from_json(d.to_json())
    np.testing.assert_array_equal(d2.measure.nodes, d.measure.nodes)
    np.testing.assert_array_equal(d2.measure.weights, d.measure.weights)
    assert d2.z0 == d.z0 and d2.n == d.n and d2.K_value == d.K_value
    np.testing.assert_array_equal(d2.extremal_poly.coeffs, d.extremal_poly.coeffs)
    assert d2.certificate == d.certificate


def test_design_from_json_rebuilds_from_support():
    # a file's weights, K, polynomial and certificate are outputs of its
    # support, so a stale or edited one is recomputed, not believed
    d = closed_form_design(8, 1.0)
    assert d.certified
    moved = json.loads(json.dumps(d.to_json()))
    moved["nodes"][3] += 1e-3
    assert not Design.from_json(moved).certified
    doubled = json.loads(json.dumps(d.to_json()))
    doubled["K_value"] *= 2
    loaded = Design.from_json(doubled)
    assert loaded.K_value == d.K_value
    assert loaded.certified
    for z0 in ([0.5, 0.0], [1.0, 0.0], [math.nan, 0.0], [0.0, math.nan]):
        bad = dict(d.to_json(), z0=z0)
        with pytest.raises(ValueError, match="z0"):
            Design.from_json(bad)
    with pytest.raises(TypeError, match="degree"):
        Design.from_json(dict(d.to_json(), n=8.0))
    with pytest.raises(TypeError, match="degree"):
        Design.from_json(dict(closed_form_design(2, 1.0).to_json(), n=2.7))


def test_certificate_max_violation_follows_sup_norm():
    c = Certificate(sup_norm=1.5, l2_mu_norm=1.0, on_support_moduli=[1.0, 1.0],
                    duality_gap=0.0)
    assert c.max_violation == 0.5
    assert not c.certified
    assert c.to_json()["max_violation"] == 0.5
    assert Certificate(sup_norm=1.0 - 1e-3, l2_mu_norm=1.0, on_support_moduli=[1.0],
                       duality_gap=0.0).max_violation == 0.0


def test_certify_closed_form_designs():
    for n in range(1, 9):
        d = closed_form_design(n, 1.0)
        assert d.certified
        np.testing.assert_allclose(d.certificate.on_support_moduli, 1.0, atol=1e-9)
        assert d.certificate.l2_mu_norm == pytest.approx(1.0, abs=1e-10)


def test_overflowing_kernel_is_uncertified_without_warning():
    # K = Lambda^2 ~ 1e347 overflows a double to inf; the duality gap then
    # reads exactly 1 with no P(z0) formed, and the design comes back
    # flagged, silently
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = closed_form_design(192, 4.0)
    assert d.K_value == math.inf
    assert d.certificate.duality_gap == 1.0
    assert not d.certified


@pytest.mark.parametrize("n", [8, 64, 192, 256])
def test_certificate_values_match_50_digit_evaluation(n):
    # the certificate reads P at the nodes from its Lobatto values, by the
    # barycentric formula; a 50-digit Clenshaw pass over P's own coefficients
    # is the oracle, at up to 33 of the nodes (both ends among them), and at
    # z0, where the certificate evaluates the coefficients in doubles
    for d in (closed_form_design(n, 0.8), optimize_support(n, 0.5 + 0.5j)):
        assert d.certified
        c = d.extremal_poly.coeffs
        moduli = np.array(d.certificate.on_support_moduli)
        picked = np.unique(np.linspace(0, n, min(n + 1, 33)).round().astype(int))
        exact = np.array([abs(chebval_50(c, d.measure.nodes[i])) for i in picked])
        assert np.abs(moduli[picked] - exact).max() <= 4e-14, n
        exact_z0 = abs(chebval_50(c, d.z0))
        assert abs(abs(d.extremal_poly(d.z0)) - exact_z0) <= 4e-15 * exact_z0, n


def test_certificate_gap_matches_50_digit_evaluation_at_z0():
    # the duality gap reads P(z0) as sum_k c_k cosh(k acosh z0); a 50-digit
    # Clenshaw pass over P's coefficients is the oracle, at solved points
    # (the last 0.011 from the interval) and at the n = 512 closed form
    designs = [optimize_support(n, z0) for n, z0 in (
        (1, 2.0), (8, 0.5 + 0.5j), (64, 1j), (192, -1.5 + 0.2j),
        (10, 0.8724417875710577 + 0.010896119317311766j))]
    designs.append(closed_form_design(512, 0.05))
    for d in designs:
        p_z0 = chebval_50(d.extremal_poly.coeffs, d.z0)
        exact = abs(math.expm1(2.0 * math.log(abs(p_z0)) - math.log(d.K_value)))
        assert abs(d.certificate.duality_gap - exact) <= 1e-12, (d.n, d.z0)


@pytest.mark.parametrize("z0", [2.0, 1j, 0.5 + 0.5j])
def test_lebesgue_kernel_value_matches_gram_route(z0):
    # design_from_support takes K as the squared Lebesgue function; the Gram
    # QR of the christoffel oracle is the independent route to the same number
    for n in (4, 8, 16, 32, 64):
        d = optimize_support(n, z0)
        assert d.certified
        K = christoffel(d.measure, n, z0)
        assert abs(d.K_value - K) <= 1e-12 * K, (n, d.K_value, K)


def _pell(x, z0):
    """(P, g): the extremal polynomial of the support x at z0 and the Pell
    term that its assembly hands _sup_bound."""
    seen = []

    def spy(v, g):
        seen.append(g)
        return _sup_bound(v, g)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("optpred.design._sup_bound", spy)
        P = design_from_support(len(x) - 1, z0, x).extremal_poly
    (g,) = seen
    return P, g


def _bound(x, z0):
    """(P, the certificate's bound on max |P|) for the extremal polynomial P
    of the support x at z0."""
    d = design_from_support(len(x) - 1, z0, x)
    return d.extremal_poly, d.certificate.sup_norm


def test_sup_bound_never_below_exact_sup_norm():
    # the exact sup-norm (colleague-matrix roots of d/dx |P|^2) is the oracle
    rng = np.random.default_rng(29)
    eps = np.finfo(float).eps
    for _ in range(300):
        n = int(rng.integers(1, 33))
        k = np.arange(1, n)
        interior = -np.cos(np.pi * (k + rng.uniform(-0.3, 0.3, n - 1)) / n)
        x = np.concatenate(([-1.0], interior, [1.0]))
        z0 = complex(rng.uniform(-2, 2), rng.choice([-1, 1]) * rng.uniform(0.01, 2))
        P, bound = _bound(x, z0)
        assert sup_norm_interval(P).value <= bound + 4 * eps, (n, z0)
    # near-root supports, where the identity's constant c decides the bound:
    # closed-form (z0 = ai) or Chebyshev (real z0) interior nodes moved by
    # up to 10^U(-12, -2) / n
    for trial in range(200):
        n = int(rng.integers(2, 33))
        if trial % 2:
            a = 10 ** rng.uniform(-3, 0.5)
            z0 = complex(0.0, a)
            x = closed_form_design(n, a).measure.nodes.copy()
        else:
            z0 = complex(rng.choice([-1, 1]) * rng.uniform(1.01, 3.0), 0.0)
            x = np.cos(np.pi * np.arange(n, -1, -1) / n)
        x[1:-1] += 10 ** rng.uniform(-12, -2) / n * rng.uniform(-1, 1, n - 1)
        P, bound = _bound(x, z0)
        assert sup_norm_interval(P).value <= bound + 4 * eps, (n, z0)


@pytest.mark.parametrize("z0", [0.01j, 0.5 + 0.5j, 1j])
def test_sup_bound_rejects_chebyshev_extrema(z0):
    # the Chebyshev extrema are optimal only for real z0; the exact sup-norm
    # there exceeds 1 by 1.20, 0.143 and 0.0227
    d = design_from_support(16, z0, np.cos(np.pi * np.arange(16, -1, -1) / 16))
    assert d.certificate.sup_norm >= sup_norm_interval(d.extremal_poly).value
    assert d.certificate.max_violation > 0.1
    assert not d.certified


def test_sup_bound_lobatto_point_on_node():
    # even n: the Lobatto point 0 (and, at real z0, every Lobatto point of
    # even index) is a node, where the interior-node polynomial has log 0
    for n in (2, 8, 16):
        x = np.sin(np.pi * np.arange(-n, n + 1, 2) / (2 * n))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = design_from_support(n, 2.0, x)
        assert x[n // 2] == 0.0
        assert d.certified
        assert d.certificate.sup_norm == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("n", [2, 8, 64, 256, 512])
def test_pell_term_matches_log_domain_oracle(n):
    # assembly's c (1 - t^2) w^2 from the barycentric denominators against
    # the same term in logs, on the closed-form support at ai, the Chebyshev
    # extrema at real z0 (every even point of the 2n-grid a node), a
    # perturbed support and one with a node on an odd point of the 2n-grid;
    # the term is exactly 0 on every grid point that is a node
    rng = np.random.default_rng(n)
    lobatto, t = _lobatto(n), _lobatto(2 * n)
    perturbed = lobatto.copy()
    perturbed[1:-1] += rng.uniform(-0.2, 0.2, n - 1) * np.diff(lobatto)[:-1] / 2
    on_grid = perturbed.copy()
    on_grid[n // 2] = t[2 * (n // 2) + 1]
    supports = [
        (closed_form_design(n, 0.5).measure.nodes, 0.5j),
        (lobatto, 1.5),
        (perturbed, 0.5 + 0.5j),
        (on_grid, 0.5 + 0.5j),
    ]
    for x, z0 in supports:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            P, g = _pell(x, z0)
        oracle = pell_term_logs(P, x)
        assert np.abs(g - oracle).max() <= 1e-12 * oracle.max(), (n, z0)
        assert (g[np.isin(t, x)] == 0.0).all(), (n, z0)
    assert np.isin(t, on_grid).sum() == 3


def test_certificate_moduli_with_node_on_lobatto_point():
    # even n at real z0: on a perturbed support whose middle node stays 0,
    # the Lobatto point 0 of both grids the certificate reads is a node, so
    # the contraction at the nodes meets an exact hit (as at both ends)
    rng = np.random.default_rng(71)
    for n in (2, 4, 8, 16, 64):
        lobatto = np.sin(np.pi * np.arange(-n, n + 1, 2) / (2 * n))
        x = lobatto.copy()
        x[1:-1] += rng.uniform(-0.2, 0.2, n - 1) * np.diff(lobatto)[:-1] / 2
        x[n // 2] = 0.0
        for z0 in (2.0, -1.5):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                moduli = np.array(design_from_support(n, z0, x).certificate.on_support_moduli)
            assert abs(moduli[n // 2] - 1.0) <= 1e-15, (n, z0)
            # elsewhere it rounds like any barycentric sum of n + 1 terms
            assert np.abs(moduli - 1.0).max() <= (1e-15 if n <= 8 else 1e-14), (n, z0)


@pytest.mark.parametrize("n", [1, 2, 8, 64, 192, 512])
def test_on_support_moduli_match_separate_pass(n):
    # the certificate's |P| at the nodes, contracted from the even rows of
    # the assembly pass's array, against a barycentric pass of its own from
    # the n + 1 Lobatto points to the nodes (polyhelp), on the closed-form
    # support at ai, the Chebyshev extrema at real z0 (every node on an even
    # point of the 2n-grid), a perturbed support and ones with a node on an
    # even and on an odd point of the 2n-grid; the ends take |v_0| and |v_2n|
    # exactly
    rng = np.random.default_rng(n + 1)
    lobatto, t = _lobatto(n), _lobatto(2 * n)
    supports = [(closed_form_design(n, 0.5).measure.nodes, 0.5j), (lobatto, 1.5)]
    if n > 1:
        perturbed = lobatto.copy()
        perturbed[1:-1] += rng.uniform(-0.2, 0.2, n - 1) * np.diff(lobatto)[:-1] / 2
        even, odd = perturbed.copy(), perturbed.copy()
        even[n // 2] = t[2 * (n // 2)]
        odd[n // 2] = t[2 * (n // 2) + 1]
        supports += [(perturbed, 0.5 + 0.5j), (even, 0.5 + 0.5j), (odd, -1.5 + 0.2j)]
        assert np.isin(t[::2], even).sum() == 3 and np.isin(t[1::2], odd).sum() == 1
    for x, z0 in supports:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = design_from_support(n, z0, x)
        moduli = np.array(d.certificate.on_support_moduli)
        assert np.abs(moduli - on_support_moduli_pass(d.extremal_poly, x)).max() <= 1e-14, (n, z0)
        v = np.abs(_lobatto_values(d.extremal_poly, 2 * n))
        assert moduli[0] == v[0] and moduli[-1] == v[-1], (n, z0)


def test_lobatto_grid_is_every_other_point_of_its_double():
    # the certificate reads the nodes on _lobatto(n) off the hits of the
    # assembly pass on _lobatto(2n), which holds it at its even points
    for n in range(1, MAX_DEGREE + 1):
        assert _lobatto(2 * n)[::2].tobytes() == _lobatto(n).tobytes(), n


@pytest.mark.parametrize("n", [1, 2, 8, 64, 192, 512])
def test_certificate_hits_match_separate_search(n, monkeypatch):
    # the hits the certificate contracts with, taken from the even rows of
    # the assembly pass's hits on _lobatto(2n), against a search of their own
    # for the nodes on _lobatto(n), on the supports of
    # test_on_support_moduli_match_separate_pass: nodes on even and on odd
    # points of the 2n-grid, and every node on one at real z0
    contract, seen = optpred.design._contract, []

    def spy(d, c, hits, w=None):
        seen.append(hits)
        return contract(d, c, hits, w)

    monkeypatch.setattr("optpred.design._contract", spy)
    rng = np.random.default_rng(n + 1)
    lobatto, t = _lobatto(n), _lobatto(2 * n)
    supports = [(closed_form_design(n, 0.5).measure.nodes, 0.5j), (lobatto, 1.5)]
    if n > 1:
        perturbed = lobatto.copy()
        perturbed[1:-1] += rng.uniform(-0.2, 0.2, n - 1) * np.diff(lobatto)[:-1] / 2
        even, odd = perturbed.copy(), perturbed.copy()
        even[n // 2] = t[2 * (n // 2)]
        odd[n // 2] = t[2 * (n // 2) + 1]
        supports += [(perturbed, 0.5 + 0.5j), (even, 0.5 + 0.5j), (odd, -1.5 + 0.2j)]
    for x, z0 in supports:
        seen.clear()
        design_from_support(n, z0, x)
        (node, grid), = seen
        want_node, want_grid = _hits(x, lobatto)
        assert np.array_equal(node, want_node) and np.array_equal(grid, want_grid), (n, z0)
        # every node is on the grid at real z0; the node on an odd point is
        # a hit of the pass but not of the certificate
        if x is lobatto:
            assert len(node) == n + 1
        if n > 1 and x is odd:
            assert len(_hits(t, x)[0]) == 3 and len(node) == 2


def test_certificate_identities_hold_on_uncertified_supports():
    # with Hoel-Levine weights |P| = 1 on the support, ||P||_mu = 1 and
    # K = |P(z0)|^2 on any support; only the sup-norm tells these apart
    rng = np.random.default_rng(15)
    for _ in range(50):
        n = int(rng.integers(2, 25))
        z0 = complex(rng.uniform(-2, 2), rng.choice([-1, 1]) * rng.uniform(0.1, 2))
        x = np.cos(np.pi * np.arange(n, -1, -1) / n)
        x[1:-1] += rng.uniform(-0.3, 0.3, n - 1) * np.diff(x)[:-1] / 2
        c = design_from_support(n, z0, x).certificate
        assert not c.certified
        assert c.duality_gap <= 1e-12
        assert abs(c.l2_mu_norm - 1.0) <= 1e-12
        np.testing.assert_allclose(c.on_support_moduli, 1.0, rtol=0, atol=1e-12)


def test_certify_detects_perturbed_node():
    d = closed_form_design(3, 1.0)
    nodes = d.measure.nodes.copy()
    nodes[1] += 1e-2
    perturbed = design_from_support(3, 1j, nodes)
    assert perturbed.certificate.max_violation > 0


def test_two_point_design_always_certified():
    for z0 in (1.5, -2.0, 1j, 0.7 + 0.9j, -1.2 - 3j):
        d = design_from_support(1, z0, np.array([-1.0, 1.0]))
        assert d.certified


def test_optimize_support_real_point():
    d = optimize_support(4, 1.5)
    expected = np.cos(np.pi * np.arange(3, 0, -1) / 4)
    np.testing.assert_allclose(d.measure.nodes[1:-1], expected, atol=1e-6)
    assert d.K_value == pytest.approx(_cheb_t_squared(4, 1.5), rel=1e-8)
    assert d.certified


@pytest.mark.parametrize("n, a", [(3, 1.0), (24, 1.0), (32, 1.0), (6, 0.001)])
def test_optimize_support_imaginary_point(n, a):
    d = optimize_support(n, 1j * a)
    np.testing.assert_allclose(
        d.measure.nodes, closed_form_design(n, a).measure.nodes, atol=1e-6
    )
    assert d.certified


# symmetric starts with an exact 0 coordinate: the cosine form leaves 6e-17
# there, which once stalled the solve at n=2, z0=1+1j
@pytest.mark.parametrize("n, z0", [(2, 1 + 1j), (2, 0.5 + 0.5j), (4, 2.0), (8, 1.2j)])
def test_optimize_support_certifies_from_symmetric_start(n, z0):
    d = optimize_support(n, z0)
    assert d.certified, d.certificate


@pytest.mark.parametrize("a", [0.001, 0.01, 1.0])
@pytest.mark.parametrize("n", [3, 8, 32])
def test_optimize_support_nodes_to_rounding(n, a):
    d = optimize_support(n, 1j * a)
    exact = closed_form_design(n, a).measure.nodes
    assert np.abs(d.measure.nodes - exact).max() <= 1e-12


def test_optimize_support_axis_near_interval():
    # at a = 1e-6 odd n puts a pair of nodes 3.7e-4 (n=31) to 1.4e-3 (n=3)
    # apart around 0; every design certifies and lands on the closed form
    for n in range(2, 33):
        d = optimize_support(n, 1e-6j)
        assert d.certified, (n, d.certificate.max_violation)
        exact = closed_form_design(n, 1e-6).measure.nodes
        assert np.abs(d.measure.nodes - exact).max() <= 1e-9, n


@pytest.mark.parametrize("z0", [2.0, 1j, 0.5 + 0.5j, 0.001j])
@pytest.mark.parametrize("n", [64, 128, 256])
def test_optimize_support_certifies_large_degree(n, z0):
    d = optimize_support(n, z0)
    assert d.certified, d.certificate.max_violation


def test_first_order_residual_matches_extremal_poly():
    # oracle: Re(conj(P) P') at the nodes, P from its Chebyshev coefficients;
    # perturbed Chebyshev supports keep that route well conditioned.  The
    # Jacobian is held against central differences of F with step 1e-6.
    rng = np.random.default_rng(0)
    h = 1e-6
    for trial in range(200):
        n = int(rng.integers(2, 25))
        k = np.arange(1, n)
        interior = -np.cos(np.pi * (k + rng.uniform(-0.3, 0.3, n - 1)) / n)
        kind = trial % 3
        if kind == 0:
            z0 = complex(rng.choice([-1, 1]) * rng.uniform(1.01, 3.0), 0.0)
        elif kind == 1:
            z0 = complex(0.0, rng.choice([-1, 1]) * rng.uniform(0.01, 2.0))
        else:
            z0 = complex(rng.uniform(-2, 2), rng.choice([-1, 1]) * rng.uniform(0.01, 2))
        x = np.concatenate(([-1.0], interior, [1.0]))
        P = extremal_signed_poly(x, z0)
        dP = cheb.chebval(interior, cheb.chebder(P.coeffs))
        expected = np.real(np.conj(P(interior)) * dP)
        terms = _residual_terms(interior, z0)
        F, J = terms[6], _residual_jacobian(terms)
        assert np.abs(F - expected).max() <= 1e-10 * max(1.0, np.abs(F).max())
        steps = h * np.eye(n - 1)
        central = np.array([_residual_terms(interior + d, z0)[6]
                            - _residual_terms(interior - d, z0)[6]
                            for d in steps]).T / (2 * h)
        assert np.abs(J - central).max() <= 1e-7 * np.abs(central).max()


def test_residual_terms_refuse_unordered_nodes():
    for interior in ([0.5, -0.5], [0.0, 0.0], [-1.0, 0.5], [0.5, 1.5]):
        assert _residual_terms(np.array(interior), 0.5 + 0.5j) is None


def _band_points(rng, count):
    """count (n, z0) draws with n in 2..64 from each of the real, axis and
    complex bands, all away from the interval, so that every design
    certifies."""
    for _ in range(count):
        n = int(rng.integers(2, 65))
        yield n, complex(rng.choice([-1, 1]) * rng.uniform(1.1, 3.0), 0.0)
        n = int(rng.integers(2, 65))
        yield n, complex(0.0, rng.choice([-1, 1]) * rng.uniform(0.05, 2.0))
        n = int(rng.integers(2, 65))
        yield n, complex(rng.uniform(-2, 2), rng.choice([-1, 1]) * rng.uniform(0.1, 1.0))


def test_residual_moduli_are_the_lagrange_moduli():
    # the residual's moduli come from its own pairwise pass through the same
    # polynomial._lagrange_moduli as _pairwise_moduli's, which a given
    # support's design and lagrange_values take: equal bit for bit, at the
    # Lobatto start and at the solved nodes
    for n, z0 in _band_points(np.random.default_rng(25), 6):
        for x in (_lobatto(n), optimize_support(n, z0).measure.nodes):
            m = _residual_terms(x[1:-1], z0)[1]
            assert np.array_equal(m, _pairwise_moduli(x, np.abs(z0 - x)))


def _assert_same_design(d, e):
    """d and e equal field by field, bit for bit."""
    assert d.n == e.n and d.z0 == e.z0
    assert d.measure.nodes.tobytes() == e.measure.nodes.tobytes()
    assert d.measure.weights.tobytes() == e.measure.weights.tobytes()
    assert repr(d.K_value) == repr(e.K_value)
    assert d.extremal_poly.coeffs.tobytes() == e.extremal_poly.coeffs.tobytes()
    for field in ("sup_norm", "l2_mu_norm", "duality_gap", "max_violation"):
        assert repr(getattr(d.certificate, field)) == repr(getattr(e.certificate, field))
    assert (np.array(d.certificate.on_support_moduli).tobytes()
            == np.array(e.certificate.on_support_moduli).tobytes())
    assert d.certified == e.certified


def test_optimize_support_is_assembled_by_design_from_support():
    # the solved support assembles from the solve's last residual terms
    # exactly as a user's given support does, whichever way the solve
    # stopped, and the measure built without a second node check is a valid
    # one: real z0 (the start is optimal), n = 1 (empty F = 0), the
    # imaginary axis, the certified bands, a run that refuses trial points
    # until its step falls below tolerance, and one that stops at the cap
    stops = [((6, 2.0 + 0j), "step below tolerance after 0 iterations"),
             ((9, -1.5 + 0j), "step below tolerance after 0 iterations"),
             ((1, 2 + 1j), "F = 0 after 0 iterations"),
             ((6, 0.5j), "step below tolerance after 4 iterations")]
    cases = [(point, True) for point, _ in stops]
    cases += [(point, True) for point in _band_points(np.random.default_rng(26), 4)]
    uncertified = [((18, 0.916151786089995 - 1.0754094836323072e-05j),
                    "step below tolerance after 198 iterations"),
                   ((27, 0.7568458607046367 + 4.877048312726068e-09j),
                    "no convergence in 300 iterations")]
    cases += [(point, False) for point, _ in uncertified]
    for (n, z0), why in stops + uncertified:
        assert _solve(_lobatto(n)[1:-1], z0)[1] == why, (n, z0)
    for (n, z0), certified in cases:
        if certified:
            d = optimize_support(n, z0)
        else:
            with pytest.warns(UserWarning, match="failed certification"):
                d = optimize_support(n, z0)
        assert d.certified == certified, (n, z0)
        _assert_same_design(d, design_from_support(n, z0, d.measure.nodes))
        DiscreteMeasure(d.measure.nodes, d.measure.weights)


def test_crowded_support_is_a_numeric_failure_without_warning():
    # nodes crowded at one end, n + 1 of them at spacing h below +1, make
    # the barycentric sums cancel off the support (spacing 1e-8), a
    # Hoel-Levine weight m_i / Lambda underflow to 0 (n = 64 at 1e-6, n = 40
    # at 1e-9) or below the smallest normal double (n = 39 at 1e-9: 1.4e-321,
    # where the certificate's contraction at the nodes once overflowed), or a
    # modulus underflow to 0 (n = 40 at 1e-9 with z0 = 1 + 1e-9): each is a
    # RuntimeError (exit 2), not an input error, and no RuntimeWarning from
    # the pass, the DCT, the Pell term or the contraction gets out
    cases = [(40, 1e-8, 1.5, "barycentric sums cancel"),
             (39, 1e-8, 1.5, "barycentric sums cancel"),
             (64, 1e-6, 1.5, "Hoel-Levine weights underflow"),
             (40, 1e-9, 1.5, "Hoel-Levine weights underflow"),
             (39, 1e-9, 1.5, "Hoel-Levine weights underflow"),
             (40, 1e-9, 1 + 1e-9, "Lagrange values underflow")]
    for n, h, z0, message in cases:
        x = np.concatenate(([-1.0], 1 - h * np.arange(n)[::-1]))
        assert len(x) == n + 1 and (np.diff(x) > 0).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeError, match=message):
                design_from_support(n, z0, x)
    # the coefficients a user passes in stay an input error
    with pytest.raises(ValueError, match="coefficients must be finite"):
        optpred.ChebPoly([1.0, np.inf])


def test_nonfinite_moduli_on_support_are_a_numeric_failure(monkeypatch):
    # P's values on the grid scaled to near the largest double make the
    # certificate's contraction at the nodes off the grid overflow: it runs
    # under the assembly's errstate, and |P| at the nodes whose L2(mu) norm
    # is not finite raises the RuntimeError of cancelling sums, no warning
    values = optpred.design._lobatto_values
    monkeypatch.setattr("optpred.design._lobatto_values",
                        lambda P, m: values(P, m) * 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match="barycentric sums cancel"):
            design_from_support(8, 0.5j, closed_form_design(8, 0.5).measure.nodes)


def test_residual_terms_overflow_is_typed_without_warning():
    # at n = 64 the moduli overflow at z0 = 1e8, and at n = 200, z0 = 17.92
    # each is finite but their sum Lambda is not: a RuntimeError, and no
    # RuntimeWarning from the pairwise pass or the sum gets out of its errstate
    cases = [(_lobatto(64)[1:-1], z0) for z0 in (1e8, complex(1e8, 0.0), 1e8j)]
    cases.append((_lobatto(200)[1:-1], 17.92))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for interior, z0 in cases:
            with pytest.raises(RuntimeError, match="Lagrange values overflow"):
                _residual_terms(interior, z0)


def test_lebesgue_sum_overflow_is_typed_without_warning():
    # at z0 = 1e154 the moduli of {-1, 0, 1} are finite, about 1e308 each,
    # but their sum Lambda is not: a RuntimeError, not zero weights
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f in (lambda: design_from_support(2, 1e154, NODES3),
                  lambda: hoel_levine_weights(NODES3, 1e154)):
            with pytest.raises(RuntimeError, match="Lagrange values overflow"):
                f()


def test_jacobian_built_at_start_and_per_accepted_step(monkeypatch):
    # the solve evaluates F at its start and at each trial point; a trial is
    # accepted iff it is ordered and lowers |F|^2 below the last accepted
    # one, and exactly the start and the accepted points get a Jacobian
    terms, jacobian = optpred.design._residual_terms, optpred.design._residual_jacobian
    evaluated, built = [], []

    def spy_terms(interior, z0):
        evaluated.append(terms(interior, z0))
        return evaluated[-1]

    def spy_jacobian(t):
        built.append(t)
        return jacobian(t)

    monkeypatch.setattr("optpred.design._residual_terms", spy_terms)
    monkeypatch.setattr("optpred.design._residual_jacobian", spy_jacobian)
    assert optimize_support(7, 0.125 - 0.015625j).certified
    accepted, best = [], math.inf
    for t in evaluated:
        if t is not None and t[6] @ t[6] < best:
            accepted.append(t)
            best = t[6] @ t[6]
    assert len(built) == len(accepted) < len(evaluated)
    assert all(a is b for a, b in zip(built, accepted))


def test_optimize_support_general_complex_point():
    d = optimize_support(2, 1 + 1j)
    assert d.certified
    assert d.certificate.max_violation <= 1e-8


def test_optimize_support_rejects_interior_point():
    with pytest.raises(ValueError):
        optimize_support(3, 0.2)
    with pytest.raises(ValueError):
        optimize_support(0, 2.0)
    for bad in (np.nan, np.inf, complex(0, np.nan)):
        with pytest.raises(ValueError, match="not finite"):
            optimize_support(4, bad)
    for bad in (2.5, 2.0):
        with pytest.raises(TypeError):
            optimize_support(bad, 2.0)
    with pytest.raises(TypeError, match="degree"):
        optimize_support(True, 2.0)


def test_optimize_support_degree_one():
    # the solve on no interior nodes returns the endpoints' design as it is,
    # certificate included
    for z0 in (2 + 1j, 2.0, 1j, 0.5 + 0.5j):
        d = optimize_support(1, z0)
        np.testing.assert_array_equal(d.measure.nodes, [-1.0, 1.0])
        assert d.to_json() == design_from_support(1, z0, [-1.0, 1.0]).to_json()
        assert d.certified


def test_optimize_support_degree_one_warns_when_uncertified():
    # K = z0^2 overflows to inf at z0 = 1e200: uncertified, and it warns
    # like every other degree, with the empty residual read as 0
    d, message = _uncertified(1, 1e200)
    assert d.K_value == math.inf
    assert "residual=0.000e+00; solver: F = 0 after 0 iterations" in message
    # an overflowed K leaves no lower end but 0
    assert _efficiency_bracket(message) == (0, 1)


def test_solved_design_gap_is_one_where_kernel_overflows():
    # as for the (192, 4) closed form: K = inf, so the gap is exactly 1 with
    # no P(z0) formed, and the solver warns
    d, _ = _uncertified(300, 2.0)
    assert d.K_value == math.inf and d.certificate.duality_gap == 1.0


def test_optimize_support_deterministic():
    a = optimize_support(3, 1.2 + 0.7j)
    b = optimize_support(3, 1.2 + 0.7j)
    np.testing.assert_array_equal(a.measure.nodes, b.measure.nodes)
    assert a.K_value == b.K_value


def test_optimize_support_warns_when_uncertified(monkeypatch):
    # below zero, so that no certificate passes whatever the rounding
    monkeypatch.setattr("optpred.design._CERT_TOL", -1.0)
    d, message = _uncertified(4, 2j)
    assert len(d.measure.nodes) == 5
    for field in ("max_violation", "duality_gap", "residual", "solver:"):
        assert field in message
    # the design is optimal, and P's sup bound and gap say so to rounding
    lo, hi = _efficiency_bracket(message)
    assert lo >= 1 - 1e-12 and hi == 1


def _efficiency_bracket(message):
    """(lo, hi) from the end of an uncertified design's warning."""
    match = re.search(r"\); efficiency K_opt/K in \[(\S+), (\S+)\]$", message)
    assert match, message
    assert "undecided" not in message and "suboptimal" not in message
    lo, hi = float(match[1]), float(match[2])
    assert 0 <= lo <= hi <= 1
    return lo, hi


def _uncertified(n, z0):
    with pytest.warns(UserWarning, match="failed certification") as record:
        d = optimize_support(n, z0)
    assert not d.certified
    return d, str(record[0].message)


def test_uncertified_warning_reads_verdict(monkeypatch):
    # the solve kept at its Chebyshev start, which is far from optimal at the
    # first point (log K 1.03 above 2n log|phi(z0)| = 2.6e-6) and merely
    # uncertified at the second (log K 11.94 below 12.74)
    def start(x0, z0):
        return _residual_terms(x0, z0), "kept at the start"

    monkeypatch.setattr("optpred.design._solve", start)
    cases = (((6, 0.6094764463519509 + 1.6898451743904647e-07j), True),
             ((12, 0.5 + 0.5j), False))
    for (n, z0), suboptimal in cases:
        d, message = _uncertified(n, z0)
        assert "solver: kept at the start); " in message
        hi = _efficiency_bracket(message)[1]
        assert (hi < 1) == suboptimal
        upper = _log_kernel_bracket(n, z0)[1]
        assert hi == pytest.approx(min(1, math.exp(upper - math.log(d.K_value))),
                                   rel=1e-8)


def test_uncertified_solves_state_their_efficiency():
    # misses of the solve, each within a few percent of the optimum: the
    # first is the one whose K exceeds the Bernstein-Walsh end, the second
    # has the lowest lower end of a 524-point sweep, and on the axis the
    # exact efficiency is growth_value^2 / K
    hi = _efficiency_bracket(
        _uncertified(34, 0.8025031837578223 - 0.00020382230356402663j)[1])[1]
    assert hi < 1
    lo = _efficiency_bracket(
        _uncertified(48, -0.07478856367822528 - 0.0010338578074663084j)[1])[0]
    assert lo >= 0.9
    d, message = _uncertified(13, 1e-9j)
    lo, hi = _efficiency_bracket(message)
    assert lo - 1e-12 <= growth_value(13, 1e-9) ** 2 / d.K_value <= hi + 1e-12


def test_log_kernel_bracket_matches_axis_closed_forms():
    # on z0 = ai the optimum is growth_value^2, |T_n(ai)| = growth_value - gap
    # (either form of growth_gap), and |phi(ai)| = |a| + s
    for a in (0.25, 1.0, 4.0):
        s = math.hypot(a, 1.0)
        for n in (*range(1, 13), 64):
            lower, upper = _log_kernel_bracket(n, 1j * a)
            assert _log_kernel_bracket(n, -1j * a) == pytest.approx((lower, upper),
                                                                   rel=1e-15)
            log_opt = math.log(growth_value(n, a))
            assert lower < 2 * log_opt < upper
            for gap in growth_gap(n, a):
                t_n = growth_value(n, a) - gap
                assert lower / 2 == pytest.approx(math.log(t_n), rel=1e-13, abs=1e-13)
            assert upper / 2 - log_opt == pytest.approx(math.log1p(a / s), rel=1e-13)
    for n in (1, 4, 16):
        lower, upper = _log_kernel_bracket(n, 2.0)
        assert lower == pytest.approx(math.log(_cheb_t_squared(n, 2.0)), rel=1e-14)
        assert upper == pytest.approx(2 * n * math.acosh(2.0), rel=1e-15)

