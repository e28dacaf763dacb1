import numpy as np
import pytest

from optpred import (
    DiscreteMeasure,
    RankDeficiencyError,
    RegressionPlan,
    gram,
    hoel_levine_weights,
    least_squares_fit,
    mc_predictor_variance,
    vandermonde,
)

NODES3 = np.array([-1.0, 0.0, 1.0])
UNIFORM3 = DiscreteMeasure(NODES3, np.array([1, 1, 1]) / 3)
THETA = np.array([0.3, -0.2, 0.5])


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
    G = gram(plan.realized_measure(), 2)
    np.testing.assert_allclose(V.T @ V / len(x), G, atol=1e-12)


def test_vandermonde_rank_deficiency():
    with pytest.raises(RankDeficiencyError):
        vandermonde(np.array([0.5, 0.5, 0.5, 0.5]), 2)
    with pytest.raises(RankDeficiencyError):
        vandermonde(np.array([-1.0, 1.0]), 2)


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
    with pytest.raises(ValueError):
        RegressionPlan(design=UNIFORM3, counts=np.array([1, 0, 1]), sigma=1.0,
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


def test_mc_rejects_nonfinite_point():
    plan = RegressionPlan.from_measure(UNIFORM3, 30, 1.0, THETA)
    for z0 in (np.nan, np.inf, complex(0, np.nan)):
        with pytest.raises(ValueError, match="not finite"):
            mc_predictor_variance(plan, z0, 1000, seed=0)


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
