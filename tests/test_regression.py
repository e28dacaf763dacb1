import warnings

import numpy as np
import numpy.polynomial.chebyshev as cheb
import pytest

from optpred import (
    DiscreteMeasure,
    RankDeficiencyError,
    RegressionPlan,
    closed_form_design,
    hoel_levine_weights,
    least_squares_fit,
    mc_predictor_variance,
    optimize_support,
    vandermonde,
)
from polyhelp import christoffel, gram

NODES3 = np.array([-1.0, 0.0, 1.0])
UNIFORM3 = DiscreteMeasure(NODES3, np.array([1, 1, 1]) / 3)
THETA = np.array([0.3, -0.2, 0.5])


def _realized_measure(plan):
    """The node frequencies c_i / m of a plan, as a measure."""
    return DiscreteMeasure(plan.design.nodes, plan.counts / plan.m)


def _refuse_draws(monkeypatch, why):
    def no_draws(*args, **kwargs):
        raise AssertionError(why)

    monkeypatch.setattr("optpred.regression.np.random.SFC64", no_draws)


def test_vandermonde_two_point():
    V = vandermonde(np.array([-1.0, 1.0]), 1)
    np.testing.assert_array_equal(V, [[1, -1], [1, 1]])


def test_vandermonde_rows_are_chebyshev():
    V = vandermonde(NODES3, 2)
    for k, x in enumerate(NODES3):
        np.testing.assert_allclose(V[k], [1.0, x, 2 * x * x - 1], atol=1e-15)


def test_vandermonde_gram_identity():
    plan = RegressionPlan.from_measure(UNIFORM3, 300, 1.0, THETA)
    x = plan.observation_nodes()
    V = vandermonde(x, 2)
    G = gram(_realized_measure(plan), 2)
    np.testing.assert_allclose(V.T @ V / len(x), G, atol=1e-12)


def test_vandermonde_rank_deficiency():
    with pytest.raises(RankDeficiencyError):
        vandermonde(np.array([0.5, 0.5, 0.5, 0.5]), 2)
    with pytest.raises(RankDeficiencyError):
        vandermonde(np.array([-1.0, 1.0]), 2)


def test_vandermonde_refuses_non_integer_degree():
    x = np.array([-1.0, 0.0, 1.0])
    for bad in (True, 2.0):
        with pytest.raises(TypeError, match="degree must be an integer"):
            vandermonde(x, bad)
    with pytest.raises(ValueError, match="degree must be >= 0"):
        vandermonde(x, -1)


def test_least_squares_noiseless_recovery():
    x = np.repeat(NODES3, 4)
    V = vandermonde(x, 2)
    y = V @ THETA
    np.testing.assert_allclose(least_squares_fit(V, y), THETA, atol=1e-12)


def test_least_squares_square_system_interpolates():
    V = vandermonde(NODES3, 2)
    y = np.array([0.3, -1.2, 2.4])
    theta = least_squares_fit(V, y)
    np.testing.assert_allclose(V @ theta, y, atol=1e-12)


def test_least_squares_residual_orthogonality():
    rng = np.random.default_rng(4)
    x = np.repeat(np.linspace(-1, 1, 7), 3)
    V = vandermonde(x, 3)
    y = rng.standard_normal(len(x))
    theta = least_squares_fit(V, y)
    resid = y - V @ theta
    assert np.abs(V.T @ resid).max() <= 1e-10


def test_least_squares_beats_random_candidates():
    rng = np.random.default_rng(6)
    x = np.repeat(NODES3, 5)
    V = vandermonde(x, 2)
    y = V @ THETA + rng.standard_normal(len(x))
    theta = least_squares_fit(V, y)
    best = np.sum((y - V @ theta) ** 2)
    for _ in range(1000):
        cand = theta + 0.5 * rng.standard_normal(3)
        assert best <= np.sum((y - V @ cand) ** 2) + 1e-12


def test_least_squares_rank_deficiency():
    V = np.ones((5, 2))
    with pytest.raises(RankDeficiencyError):
        least_squares_fit(V, np.zeros(5))


def test_one_rank_rule_near_double_node(monkeypatch):
    # four distinct nodes, two of them 1e-9 apart: the cubic basis is
    # numerically rank-deficient, and the kernel oracle, the fit and the
    # simulator refuse it alike, a noiseless plan too
    nodes = np.array([-1.0, 0.5, 0.5 + 1e-9, 1.0])
    mu = DiscreteMeasure(nodes, np.full(4, 0.25))
    with pytest.raises(RankDeficiencyError):
        christoffel(mu, 3, 2.0)
    with pytest.raises(RankDeficiencyError):
        least_squares_fit(vandermonde(nodes, 3), np.zeros(4))

    _refuse_draws(monkeypatch, "noise drawn for a rank-deficient plan")
    for sigma in (1.0, 0.0):
        plan = RegressionPlan.from_measure(mu, 40, sigma, np.zeros(4))
        with pytest.raises(RankDeficiencyError):
            mc_predictor_variance(plan, 2.0, 1000, seed=0)


def test_plan_from_measure_largest_remainder():
    mu = DiscreteMeasure(NODES3, hoel_levine_weights(NODES3, 2.0))
    plan = RegressionPlan.from_measure(mu, 300, 1.0, THETA)
    assert plan.counts.sum() == 300
    assert np.all(plan.counts >= 1)
    assert np.abs(plan.counts / 300 - mu.weights).max() <= 1.0 / 300
    # uniform weights split an exact multiple evenly
    uniform = RegressionPlan.from_measure(UNIFORM3, 300, 1.0, THETA)
    np.testing.assert_array_equal(uniform.counts, [100, 100, 100])


def test_plan_validation():
    with pytest.raises(ValueError):
        RegressionPlan.from_measure(UNIFORM3, 2, 1.0, THETA)
    with pytest.raises(TypeError, match="m must be an integer, got float"):
        RegressionPlan.from_measure(UNIFORM3, 300.5, 1.0, THETA)
    with pytest.raises(ValueError):
        RegressionPlan(design=UNIFORM3, counts=np.array([1, 0, 1]), sigma=1.0,
                       theta=THETA)
    with pytest.raises(TypeError, match="counts"):
        RegressionPlan(design=UNIFORM3, counts=[1.5, 2, 3], sigma=1.0,
                       theta=THETA)
    with pytest.raises(ValueError):
        RegressionPlan(design=UNIFORM3, counts=np.array([1, 1, 1]), sigma=-1.0,
                       theta=THETA)
    with pytest.raises(ValueError):
        RegressionPlan(design=UNIFORM3, counts=np.array([1, 1]), sigma=1.0,
                       theta=THETA)
    for sigma in (np.nan, np.inf):
        with pytest.raises(ValueError, match="not finite"):
            RegressionPlan(design=UNIFORM3, counts=np.array([1, 1, 1]),
                           sigma=sigma, theta=THETA)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="theta must be finite"):
            RegressionPlan(design=UNIFORM3, counts=np.array([1, 1, 1]),
                           sigma=1.0, theta=np.array([0.3, bad, 0.5]))


def test_plan_json_refuses_bool_among_integer_counts():
    # numpy would read [true, 2, 1] as [1, 2, 1]; each entry is judged as given
    data = RegressionPlan.from_measure(UNIFORM3, 4, 1.0, THETA).to_json()
    for counts in ([True, 2, 1], [2, 1, False]):
        data["counts"] = counts
        with pytest.raises(TypeError, match="counts must be an integer, got bool"):
            RegressionPlan.from_json(data)
    data["counts"] = [1, 2, 1]
    np.testing.assert_array_equal(RegressionPlan.from_json(data).counts, [1, 2, 1])


def test_plan_json_round_trip():
    plan = RegressionPlan.from_measure(UNIFORM3, 30, 0.5, THETA)
    back = RegressionPlan.from_json(plan.to_json())
    np.testing.assert_array_equal(back.counts, plan.counts)
    np.testing.assert_array_equal(back.theta, plan.theta)
    assert back.sigma == plan.sigma
    assert back.m == 30


def test_mc_noiseless():
    plan = RegressionPlan.from_measure(UNIFORM3, 30, 0.0, THETA)
    est = mc_predictor_variance(plan, 2.0, 1000, seed=1)
    assert est.empirical == 0.0
    assert est.predicted == 0.0
    assert est.rel_error == 0.0


def test_mc_uniform_plan_matches_hand_value():
    plan = RegressionPlan.from_measure(UNIFORM3, 300, 1.0, THETA)
    est = mc_predictor_variance(plan, 2.0, 30000, seed=11)
    assert est.predicted == pytest.approx(57.0 / 300.0, rel=1e-12)
    assert est.rel_error <= 0.05


def test_mc_hoel_levine_plan_beats_uniform():
    mu = DiscreteMeasure(NODES3, hoel_levine_weights(NODES3, 2.0))
    hl = RegressionPlan.from_measure(mu, 300, 1.0, THETA)
    est_hl = mc_predictor_variance(hl, 2.0, 30000, seed=11)
    assert est_hl.predicted == pytest.approx(49.0 / 300.0, rel=2e-2)
    uniform = RegressionPlan.from_measure(UNIFORM3, 300, 1.0, THETA)
    est_u = mc_predictor_variance(uniform, 2.0, 30000, seed=11)
    assert est_hl.empirical < est_u.empirical


def test_mc_complex_point():
    plan = RegressionPlan.from_measure(UNIFORM3, 300, 1.0, THETA)
    est = mc_predictor_variance(plan, 1j, 30000, seed=13)
    assert est.rel_error <= 0.05
    assert est.empirical >= 0.0


def test_mc_deterministic_per_seed():
    plan = RegressionPlan.from_measure(UNIFORM3, 60, 1.0, THETA)
    a = mc_predictor_variance(plan, 2.0, 5000, seed=21)
    b = mc_predictor_variance(plan, 2.0, 5000, seed=21)
    assert a == b
    c = mc_predictor_variance(plan, 2.0, 5000, seed=22)
    assert c.empirical != a.empirical


def test_mc_replicate_floor():
    plan = RegressionPlan.from_measure(UNIFORM3, 30, 1.0, THETA)
    with pytest.raises(ValueError):
        mc_predictor_variance(plan, 2.0, 999, seed=0)
    with pytest.raises(TypeError, match="replicates"):
        mc_predictor_variance(plan, 2.0, 1000.0, seed=0)


def test_mc_seed_validation(monkeypatch):
    _refuse_draws(monkeypatch, "noise drawn before the seed was checked")
    plan = RegressionPlan.from_measure(UNIFORM3, 30, 1.0, THETA)
    for seed in (None, 1.5, True, "3"):
        with pytest.raises(TypeError, match="seed"):
            mc_predictor_variance(plan, 2.0, 1000, seed=seed)
    for seed in (-1, np.int64(-5)):
        with pytest.raises(ValueError, match="seed"):
            mc_predictor_variance(plan, 2.0, 1000, seed=seed)


def test_mc_draws_one_generator_per_block(monkeypatch):
    # the no-draw guards above patch SFC64, so the draws must go through it
    calls = []
    real = np.random.SFC64

    def counting(seed):
        calls.append(seed)
        return real(seed)

    monkeypatch.setattr("optpred.regression.np.random.SFC64", counting)
    plan = RegressionPlan.from_measure(UNIFORM3, 30, 1.0, THETA)
    mc_predictor_variance(plan, 2.0, 25_001, seed=3)
    assert len(calls) == 3


def test_mc_rejects_nonfinite_point():
    plan = RegressionPlan.from_measure(UNIFORM3, 30, 1.0, THETA)
    for z0 in (np.nan, np.inf, complex(0, np.nan)):
        with pytest.raises(ValueError, match="not finite"):
            mc_predictor_variance(plan, z0, 1000, seed=0)


@pytest.mark.parametrize("z0", [1e100, 1e200])
@pytest.mark.parametrize("sigma", [1.0, 0.0])
def test_mc_overflow_fails_before_drawing(monkeypatch, sigma, z0):
    # |w|^2 ~ T_2(z0)^2 overflows; that is a numeric failure, raised with no
    # warning and before any noise is drawn, whatever sigma is
    _refuse_draws(monkeypatch, "noise drawn for an overflowed prediction")
    plan = RegressionPlan.from_measure(UNIFORM3, 300, sigma, THETA)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match="overflows"):
            mc_predictor_variance(plan, z0, 1000, seed=0)


@pytest.mark.parametrize("sigma, z0", [(1e200, 2.0), (1e150, 1e30)])
def test_mc_large_sigma_fails_before_drawing(monkeypatch, sigma, z0):
    # sigma^2 overflows alone at 1e200, and sigma^2 |w|^2 does at 1e150 with
    # |w|^2 ~ T_2(1e30)^2 finite: a numeric failure, with no warning, before
    # any noise is drawn
    _refuse_draws(monkeypatch, "noise drawn for an overflowed prediction")
    plan = RegressionPlan.from_measure(UNIFORM3, 300, sigma, THETA)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match="overflows"):
            mc_predictor_variance(plan, z0, 1000, seed=0)


def test_mc_predicted_is_kernel_of_realized_measure():
    # sigma^2 |w|^2 of the simulator's own fit is the paper's
    # (sigma^2 / m) K(z0) of the realized measure, K by the QR oracle; on the
    # CLI plans, two closed-form designs (m = 1000, and saturated) and an
    # optimal design
    hl = DiscreteMeasure(NODES3, hoel_levine_weights(NODES3, 2.0))
    b = closed_form_design(8, 1.0).measure
    c = closed_form_design(16, 0.25).measure
    d = optimize_support(32, 0.3 + 0.2j).measure
    cases = [
        (RegressionPlan.from_measure(UNIFORM3, 300, 1.0, THETA), 2.0),
        (RegressionPlan.from_measure(hl, 300, 1.0, THETA), 2.0),
        (RegressionPlan.from_measure(b, 1000, 0.5, np.zeros(9)), 1j),
        (RegressionPlan(design=c, counts=np.ones(17, dtype=int), sigma=1.0,
                        theta=np.zeros(17)), 0.25j),
        (RegressionPlan.from_measure(d, 5000, 2.0, np.zeros(33)), 0.3 + 0.2j),
    ]
    for plan, z0 in cases:
        est = mc_predictor_variance(plan, z0, 1000, seed=2)
        K = christoffel(_realized_measure(plan), plan.degree, z0)
        expected = plan.sigma**2 / plan.m * K
        assert abs(est.predicted - expected) <= 1e-14 * expected, (
            plan.degree, z0, est.predicted, expected)


# five nodes for a degree-2 fit, so the fit smooths rather than interpolates
# and the node weights matter
NODES5 = np.array([-1.0, -0.4, 0.1, 0.6, 1.0])
COUNTS5 = np.array([3, 7, 2, 5, 4])


def test_node_mean_fit_equals_full_fit():
    rng = np.random.default_rng(31)
    x = np.repeat(NODES5, COUNTS5)
    y = vandermonde(x, 2) @ THETA + rng.standard_normal(len(x))
    full = least_squares_fit(vandermonde(x, 2), y)
    means = np.array([y[x == node].mean() for node in NODES5])
    root_c = np.sqrt(COUNTS5)
    weighted = least_squares_fit(root_c[:, None] * vandermonde(NODES5, 2),
                                 root_c * means)
    np.testing.assert_allclose(weighted, full, rtol=0, atol=1e-12)


def test_mc_oversampled_plan():
    mu = DiscreteMeasure(NODES5, COUNTS5 / COUNTS5.sum())
    plan = RegressionPlan(design=mu, counts=COUNTS5, sigma=0.7, theta=THETA)
    for z0 in (1.5, 0.5 + 0.5j):
        est = mc_predictor_variance(plan, z0, 30000, seed=17)
        assert est.rel_error <= 0.05


def test_mc_independent_of_worker_count(monkeypatch):
    # 25_001 replicates: two full blocks and a last block of one replicate
    plan = RegressionPlan.from_measure(UNIFORM3, 300, 1.0, THETA)
    mu = DiscreteMeasure(NODES5, COUNTS5 / COUNTS5.sum())
    oversampled = RegressionPlan(design=mu, counts=COUNTS5, sigma=0.7,
                                 theta=THETA)
    for p, z0 in ((plan, 2.0), (plan, 1j), (oversampled, 0.5 + 0.5j)):
        results = []
        for workers in (1, 2, 3):
            monkeypatch.setattr("optpred.regression._usable_cpus",
                                lambda workers=workers: workers)
            results.append(mc_predictor_variance(p, z0, 25_001, seed=9))
        assert results[0] == results[1] == results[2]


def test_mc_block_sums_match_sample_variance():
    # a large constant part of the prediction, which the block sums leave out
    # and np.var subtracts again
    theta = np.array([1.2e3, -0.8e3, 0.9e3])
    mu = DiscreteMeasure(NODES5, COUNTS5 / COUNTS5.sum())
    plan = RegressionPlan(design=mu, counts=COUNTS5, sigma=0.7, theta=theta)
    replicates, seed = 25_001, 4
    for z0 in (1.5, 0.5 + 0.5j):
        est = mc_predictor_variance(plan, z0, replicates, seed)
        V = np.sqrt(COUNTS5)[:, None] * vandermonde(NODES5, 2)
        w = cheb.chebvander(complex(z0), 2)[0] @ least_squares_fit(
            V, np.eye(len(V)))
        sizes = [10000, 10000, 5001]
        children = np.random.SeedSequence(seed).spawn(len(sizes))
        Z = np.hstack([
            np.random.Generator(np.random.SFC64(c)).standard_normal((len(V), k))
            for c, k in zip(children, sizes)])
        preds = w @ (V @ theta) + plan.sigma * (w @ Z)
        assert abs(np.mean(preds)) > 100 * np.std(preds)
        expected = np.var(preds, ddof=1)
        assert est.empirical == pytest.approx(expected, rel=1e-12, abs=0)
