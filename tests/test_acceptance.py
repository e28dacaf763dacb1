"""End-to-end acceptance suite.

One test per acceptance criterion, each at its stated tolerance.  Every test
ends with a single ``ACCEPTANCE k: PASS`` print carrying the measured worst
case, so a ``pytest -s`` run doubles as the acceptance report.
"""

import math
import time

import numpy as np
import pytest

from optpred import (
    DiscreteMeasure,
    RegressionPlan,
    closed_form_design,
    companion_zeros,
    growth_gap,
    growth_poly,
    hoel_levine_weights,
    mc_predictor_variance,
    optimize_support,
    pell_residual,
)
from polyhelp import (
    directional_derivative,
    fd_kernel_derivative,
    padded,
    sup_norm_interval,
)

IMAG_A = (0.25, 1.0, 4.0)
REAL_Z0 = (1.5, 2.0, -3.0)
DEGREES = range(1, 9)


def _report(k, detail):
    print(f"ACCEPTANCE {k}: PASS - {detail}")


@pytest.fixture(scope="module")
def imag_runs():
    """Optimizer output for every (n, a) pair of criterion 1, with wall time."""
    start = time.perf_counter()
    runs = {(n, a): optimize_support(n, 1j * a) for n in DEGREES for a in IMAG_A}
    return runs, time.perf_counter() - start


@pytest.fixture(scope="module")
def real_runs():
    """Optimizer output for every (n, z0) pair of criterion 2."""
    return {(n, z0): optimize_support(n, z0) for n in DEGREES for z0 in REAL_Z0}


def test_criterion_01_optimizer_matches_imaginary_closed_form(imag_runs):
    runs, elapsed = imag_runs
    worst_node = 0.0
    worst_k = 0.0
    for (n, a), design in runs.items():
        expected = np.concatenate(([-1.0], companion_zeros(n - 1, a), [1.0]))
        dev = float(np.max(np.abs(design.measure.nodes - expected)))
        s = np.sqrt(a * a + 1.0)
        k_formula = (a * a + 1.0) * (a + s) ** (2 * n - 2)
        k_rel = abs(design.K_value - k_formula) / k_formula
        assert dev <= 1e-6, (n, a)
        assert k_rel <= 1e-8, (n, a)
        worst_node = max(worst_node, dev)
        worst_k = max(worst_k, k_rel)
    assert elapsed <= 60.0
    _report(1, f"24 imaginary configs: node dev {worst_node:.1e}, "
               f"K rel {worst_k:.1e}, {elapsed:.1f}s")


def test_criterion_02_optimizer_recovers_hoel_levine_nodes(real_runs):
    worst_node = 0.0
    worst_k = 0.0
    for (n, z0), design in real_runs.items():
        expected = np.cos(np.pi * np.arange(n, -1, -1) / n)
        dev = float(np.max(np.abs(design.measure.nodes - expected)))
        k_exact = math.cosh(n * math.acosh(abs(z0))) ** 2  # T_n(z0)^2
        k_rel = abs(design.K_value - k_exact) / k_exact
        assert dev <= 1e-6, (n, z0)
        assert k_rel <= 1e-8, (n, z0)
        worst_node = max(worst_node, dev)
        worst_k = max(worst_k, k_rel)
    _report(2, f"24 real configs: node dev {worst_node:.1e}, K rel {worst_k:.1e}")


def test_criterion_03_pell_identity_random_suite():
    rng = np.random.default_rng(3)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 21))
        a = 10.0 * (1.0 - rng.random())
        x = rng.uniform(-1.0, 1.0, 50)
        worst = max(worst, float(np.max(pell_residual(n, a, x))))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert elapsed <= 5.0
    _report(3, f"10^4 samples: max residual {worst:.1e}, {elapsed:.2f}s")


def test_criterion_04_unit_sup_norm_and_extreme_set():
    worst_norm = 0.0
    worst_pt = 0.0
    for n in range(1, 13):
        for a in IMAG_A:
            est = sup_norm_interval(growth_poly(n, a))
            worst_norm = max(worst_norm, abs(est.value - 1.0))
            expected = np.sort(
                np.concatenate(([-1.0, 1.0], companion_zeros(n - 1, a)))
            )
            # set comparison at 1e-6 resolution is well posed only when the
            # expected points are separated by much more than that
            assert np.min(np.diff(expected)) > 2e-6, (n, a)
            near = np.asarray(est.near_extreme_points)
            dist = np.abs(near[:, None] - expected[None, :])
            dev = max(dist.min(axis=0).max(), dist.min(axis=1).max())
            worst_pt = max(worst_pt, float(dev))
    assert worst_norm <= 1e-10
    assert worst_pt <= 1e-6
    _report(4, f"36 configs: |sup - 1| {worst_norm:.1e}, "
               f"extreme-set dev {worst_pt:.1e}")


def test_criterion_05_growth_poly_is_rotated_extremal_poly():
    worst = 0.0
    for n in DEGREES:
        for a in IMAG_A:
            q = padded(growth_poly(n, a), n + 1)
            p = padded(closed_form_design(n, a).extremal_poly, n + 1)
            worst = max(worst, float(np.max(np.abs(q + (1j) ** n * p))))
    assert worst <= 1e-9
    _report(5, f"24 configs: coefficient dev {worst:.1e}")


def test_criterion_06_low_degree_displays():
    worst = 0.0
    for a in (0.5, 1.0, 2.0, -0.5, -1.0, -2.0):
        s = np.sqrt(a * a + 1.0)
        g = np.sign(a)
        p1 = padded(closed_form_design(1, a).extremal_poly, 2)
        worst = max(worst, float(np.max(np.abs(p1 - [1.0 / s, -1j * a / s]))))
        p2 = padded(closed_form_design(2, a).extremal_poly, 3)
        c = g * (a + g * s) / (2.0 * s)
        worst = max(worst, float(np.max(np.abs(p2 - [1.0 - c, -g * 1j / s, -c]))))
    assert worst <= 1e-12
    _report(6, f"n=1,2 displays, both signs of a: coefficient dev {worst:.1e}")


def test_criterion_07_growth_gap_identity():
    worst = 0.0
    for n in range(1, 11):
        for a in (0.1, 1.0, 5.0):
            lhs, rhs = growth_gap(n, a)
            worst = max(worst, abs(lhs - rhs) / max(1.0, rhs))
    assert worst <= 1e-9
    _report(7, f"30 configs: scaled gap residual {worst:.1e}")


def _random_measure(rng, n_nodes):
    g = 0.4 + rng.random(n_nodes - 1)
    x = np.concatenate(([0.0], np.cumsum(g)))
    nodes = -1.0 + 2.0 * x / x[-1]
    w = 0.2 + rng.random(n_nodes)
    return DiscreteMeasure(nodes, w / w.sum())


def test_criterion_08_first_order_optimality(imag_runs, real_runs):
    rng = np.random.default_rng(8)
    worst_rel = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 5))
        mu = _random_measure(rng, n + 1 + int(rng.integers(0, 2)))
        z0 = 2.0 if rng.random() < 0.5 else 1j
        a = float(rng.uniform(-1, 1))
        formula = directional_derivative(mu, a, n, z0)
        fd = fd_kernel_derivative(mu, a, n, z0)
        assert formula == pytest.approx(fd, rel=1e-5)
        worst_rel = max(worst_rel, abs(formula - fd) / abs(fd))

    designs = list(imag_runs[0].values()) + list(real_runs.values())
    lowest = np.inf
    for design in designs:
        for a in rng.uniform(-1, 1, 100):
            d = directional_derivative(design.measure, float(a), design.n,
                                       design.z0)
            lowest = min(lowest, d)
            assert d >= -1e-9, (design.n, design.z0, a)
    _report(8, f"FD rel dev {worst_rel:.1e} on 50 measures; lowest sampled "
               f"derivative {lowest:.1e} over {len(designs)} certified designs")


def test_criterion_09_minimax_duality_on_certified_designs(imag_runs, real_runs):
    designs = list(imag_runs[0].values()) + list(real_runs.values())
    assert all(d.certified for d in designs)
    worst_gap = 0.0
    worst_l2 = 0.0
    for d in designs:
        P = d.extremal_poly
        gap = abs(d.K_value - abs(P(d.z0)) ** 2) / d.K_value
        integral = float(np.sum(d.measure.weights
                                * np.abs(P(d.measure.nodes)) ** 2))
        worst_gap = max(worst_gap, gap)
        worst_l2 = max(worst_l2, abs(integral - 1.0))
    assert worst_gap <= 1e-8
    assert worst_l2 <= 1e-10
    _report(9, f"{len(designs)} certified designs: duality gap {worst_gap:.1e}, "
               f"|L2 norm^2 - 1| {worst_l2:.1e}")


def test_criterion_10_monte_carlo_variance():
    start = time.perf_counter()
    nodes = np.array([-1.0, 0.0, 1.0])
    theta = np.array([0.3, -0.2, 0.5])
    uniform = RegressionPlan.from_measure(
        DiscreteMeasure(nodes, np.full(3, 1 / 3)), 300, 1.0, theta
    )
    hl = RegressionPlan.from_measure(
        DiscreteMeasure(nodes, hoel_levine_weights(nodes, 2.0)), 300, 1.0, theta
    )
    est_u = mc_predictor_variance(uniform, 2.0, 100_000, seed=10)
    est_h = mc_predictor_variance(hl, 2.0, 100_000, seed=11)
    elapsed = time.perf_counter() - start

    assert est_u.predicted == pytest.approx(0.19, rel=1e-12)
    assert abs(est_u.empirical - 0.19) <= 0.05 * 0.19
    assert est_u.rel_error <= 0.05

    hl_oracle = 49.0 / 300.0
    assert est_h.predicted == pytest.approx(hl_oracle, rel=2e-2)
    assert abs(est_h.empirical - hl_oracle) <= 0.05 * hl_oracle
    assert est_h.rel_error <= 0.05

    assert est_h.empirical < est_u.empirical
    assert elapsed <= 30.0
    _report(10, f"uniform {est_u.empirical:.4f} vs 0.19, Hoel-Levine "
                f"{est_h.empirical:.4f} vs {hl_oracle:.4f}, {elapsed:.1f}s")
