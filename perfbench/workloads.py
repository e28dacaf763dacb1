"""The benchmark's workloads: seeded item lists and the oracle gate.

Each item is one call a user would make, paired with a check of its output
against an oracle built in set-up.  A check returns one of

    OK       the output matches its oracle (certified design, right nodes
             and K, Monte Carlo variance within 5%, CLI exit code 0);
    FLAGGED  the program itself reports the defect: the design comes back
             uncertified, or with a non-finite K it does not certify;
    WRONG    the output is wrong while claiming success, the CLI exits
             nonzero, or the call raises.

An item fails when it is WRONG, or FLAGGED on a regular row.  The two
known-defect rows (`design-sweep` n=6 at z0=0.001i, `closed-form` n=192 at
a=4) are expected to come back FLAGGED until the solver and the overflow-safe
K land; they still count against `ok_frac`, so those fixes show as a rise in
it.  The seed moves only the regular rows' z0 / a within fixed bands and the
Monte Carlo seeds.  Degrees, item counts, the known-defect rows and the
optimizer options (the defaults a user gets) are fixed, so the work per pass
does not depend on the seed.
"""

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, replace

import numpy as np

import optpred
import optpred.cli  # noqa: F401  (in-process CLI items)

OK, FLAGGED, WRONG = "ok", "flagged", "wrong"

# timed outside the passes in a traced run; 0 on workloads without them
PROBES = ("regression.least_squares_fit.s",)

NODE_TOL = 1e-6
K_RTOL = 1e-8
MC_RTOL = 0.05


@dataclass(frozen=True)
class Item:
    name: str
    call: object
    check: object
    known_defect: bool = False

    def fails(self, status):
        return status == WRONG or (status == FLAGGED and not self.known_defect)


@dataclass(frozen=True)
class Workload:
    items: list
    probes: dict


def check_design(d, nodes=None, log_K=None):
    """Gate a Design against optional oracle nodes and log kernel value.

    The oracle K is carried as a logarithm so that it stays representable
    where the program's K overflows; |log K - log K*| ~ the relative error.
    """
    if not d.certified:
        return FLAGGED
    if not (math.isfinite(d.K_value) and d.K_value > 0):
        return WRONG
    if nodes is not None and np.abs(d.measure.nodes - nodes).max() > NODE_TOL:
        return WRONG
    if log_K is not None and abs(math.log(d.K_value) - log_K) > K_RTOL:
        return WRONG
    return OK


def check_variance(empirical, predicted):
    if not (math.isfinite(empirical) and math.isfinite(predicted) and predicted > 0):
        return WRONG
    return OK if abs(empirical - predicted) <= MC_RTOL * predicted else WRONG


def check_exit(code):
    return OK if code == 0 else WRONG


def imaginary_log_K(n, a):
    """log K_n(ai, ai) of the optimal design, K = (a^2+1)(|a| + sqrt(a^2+1))^(2n-2)."""
    return math.log(a * a + 1.0) + (2 * n - 2) * math.log(abs(a) + math.sqrt(a * a + 1.0))


def real_log_K(n, x):
    """log K_n(x, x) at real x > 1: the Chebyshev extrema give K = T_n(x)^2."""
    return 2.0 * math.log(math.cosh(n * math.acosh(x)))


def run_cli(argv):
    """In-process `optpred <argv>`; returns (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = optpred.cli.main(argv)
    return code, out.getvalue()


def _design_sweep(rng, workdir):
    items = []
    for n in (4, 8, 12):
        x = rng.uniform(1.25, 3.0)
        a = rng.uniform(0.5, 2.0)
        z = complex(rng.uniform(0.2, 0.8), rng.uniform(0.2, 0.8))
        cheb = np.cos(np.pi * np.arange(n, -1, -1) / n)
        exact = optpred.closed_form_design(n, a)
        rows = [
            (f"real n={n}", x, cheb, real_log_K(n, x)),
            (f"imag n={n}", 1j * a, exact.measure.nodes, imaginary_log_K(n, a)),
            (f"complex n={n}", z, None, None),
        ]
        for name, z0, nodes, log_K in rows:
            items.append(Item(
                name,
                lambda n=n, z0=z0: optpred.optimize_support(n, z0),
                lambda d, nodes=nodes, log_K=log_K: check_design(d, nodes, log_K),
            ))
    # Known defect: Nelder-Mead stays uncertified here (violation ~5e-7 after
    # all four batches, ~4 s) while the closed form certifies.
    hard = optpred.closed_form_design(6, 0.001)
    items.append(Item(
        "known-defect n=6 z0=0.001i",
        lambda: optpred.optimize_support(6, 0.001j),
        lambda d: check_design(d, hard.measure.nodes, imaginary_log_K(6, 0.001)),
        known_defect=True,
    ))
    items.append(Item(
        "verify --suite all",
        lambda: run_cli(["verify", "--suite", "all"]),
        lambda out: check_exit(out[0]),
    ))
    return Workload(items, {})


def _closed_form(rng, workdir):
    items = []
    for n in (8, 16, 32, 64, 128, 192):
        for lo, hi in ((0.1, 0.5), (0.5, 1.5), (1.5, 2.5)):
            a = rng.uniform(lo, hi)
            items.append(Item(
                f"n={n} a={a:.3f}",
                lambda n=n, a=a: optpred.closed_form_design(n, a),
                lambda d, log_K=imaginary_log_K(n, a): check_design(d, log_K=log_K),
            ))
    # Known defect: K ~ 1e347 overflows a double, comes back NaN, uncertified.
    items.append(Item(
        "known-defect n=192 a=4",
        lambda: optpred.closed_form_design(192, 4.0),
        lambda d: check_design(d, log_K=imaginary_log_K(192, 4.0)),
        known_defect=True,
    ))
    return Workload(items, {})


def _simulate(rng, workdir):
    sigma = 1.0

    def plan(mu, counts):
        theta = rng.standard_normal(len(counts))
        return optpred.RegressionPlan(mu, counts, sigma, theta)

    def mc_item(name, p, z0, replicates):
        seed = int(rng.integers(2**31))
        return Item(
            name,
            lambda: optpred.mc_predictor_variance(p, z0, replicates, seed),
            lambda est: check_variance(est.empirical, est.predicted),
        )

    # (a) the acceptance plan, through the CLI: nodes {-1, 0, 1},
    # Hoel-Levine weights at z0 = 2, m = 300
    x = np.array([-1.0, 0.0, 1.0])
    mu = optpred.DiscreteMeasure(x, optpred.hoel_levine_weights(x, 2.0))
    ideal = optpred.RegressionPlan.from_measure(mu, 300, sigma, np.zeros(3))
    plan_a = plan(mu, ideal.counts)
    path = os.path.join(workdir, "plan_a.json")
    with open(path, "w") as fh:
        json.dump(plan_a.to_json(), fh)
    seed_a = str(int(rng.integers(2**31)))

    def simulate_a():
        return run_cli(["simulate", "--plan", path, "--z0", "2", "0",
                        "--replicates", "150000", "--seed", seed_a])

    def check_a(out):
        code, text = out
        if code != 0:
            return WRONG
        payload = json.loads(text)
        return check_variance(payload["empirical"], payload["predicted"])

    # (b) closed-form design at z0 = i, m = 1000
    mu_b = optpred.closed_form_design(8, 1.0).measure
    ideal = optpred.RegressionPlan.from_measure(mu_b, 1000, sigma, np.zeros(9))
    plan_b = plan(mu_b, ideal.counts)
    # (c) saturated: one observation per node, m = n + 1
    mu_c = optpred.closed_form_design(16, 0.25).measure
    plan_c = plan(mu_c, np.ones(17, dtype=int))

    items = [
        Item("plan_a", simulate_a, check_a),
        mc_item("plan_b", plan_b, 1j, 100000),
        mc_item("plan_c", plan_c, 0.25j, 2000000),
    ]
    # one batch of plan (b) fits, the part of Monte Carlo that is not drawing
    V = optpred.vandermonde(plan_b.observation_nodes(), plan_b.degree)
    Y = (V @ plan_b.theta)[:, None] + sigma * rng.standard_normal((plan_b.m, 10000))
    probes = {"regression.least_squares_fit.s": lambda: optpred.least_squares_fit(V, Y)}
    return Workload(items, probes)


BUILDERS = {
    "design-sweep": _design_sweep,
    "closed-form": _closed_form,
    "simulate": _simulate,
}


def build(name, seed, workdir):
    return BUILDERS[name](np.random.default_rng(seed), workdir)


def self_test():
    """Feed the gate deliberately wrong outputs; return the ones it missed."""
    exact = optpred.closed_form_design(8, 1.0)
    nodes, log_K = exact.measure.nodes, imaginary_log_K(8, 1.0)
    moved = nodes.copy()
    moved[3] += 1e-3
    regular = Item("self-test", None, None)
    cases = {
        "oracle passes": (check_design(exact, nodes, log_K), False),
        "interior node +1e-3, reassembled": (
            check_design(optpred.design_from_support(8, 1j, moved), nodes, log_K), True),
        "interior node +1e-3, certificate kept": (
            check_design(replace(exact, measure=optpred.DiscreteMeasure(
                moved, exact.measure.weights)), nodes, log_K), True),
        "K scaled by 1 + 1e-6": (
            check_design(replace(exact, K_value=exact.K_value * (1 + 1e-6)), nodes, log_K), True),
        "Monte Carlo estimate scaled by 1.1": (check_variance(1.1 * 0.25, 0.25), True),
        "CLI exit code 2": (check_exit(2), True),
    }
    return [name for name, (status, should_fail) in cases.items()
            if regular.fails(status) != should_fail]
