"""Command-line surface: design search, closed-form growth data, verification
suites, and the Monte Carlo variance simulator.

Exit codes are part of the contract so CI can consume the tool directly:
0 = certified / all checks passed, 1 = input error, 2 = numeric failure
(optimizer converged but certificate failed, a verify suite failed, or the
simulated variance disagreed with the formula).
"""

import argparse
import csv
import json
import sys
from datetime import datetime, timezone

import numpy as np

from .design import optimize_support
from .imaginary import (
    closed_form_design,
    growth_gap,
    growth_poly,
    growth_value,
    pell_residual,
)
from .measure import RankDeficiencyError
from .regression import RegressionPlan, mc_predictor_variance

_SAMPLE_POINTS = 1001
_RNG_NOTE = (
    "numpy.random.default_rng (PCG64), single 64-bit seed; "
    "one standard normal per node mean per replicate"
)
_VARIANCE_NOTE = "complex-valued predictions; variance is E|x - mean|^2"


def _timestamp():
    return datetime.now(timezone.utc).isoformat()


def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _emit_json(payload, out):
    payload["timestamp"] = _timestamp()
    _emit(json.dumps(payload, indent=2), out)


def _emit_poly_csv(p, out):
    """Plotting payload: |p| and its parts on a uniform grid over [-1, 1]."""
    xs = np.linspace(-1.0, 1.0, _SAMPLE_POINTS)
    vals = p(xs)
    rows = [["x", "re", "im", "abs"]]
    rows += [
        [repr(float(x)), repr(float(v.real)), repr(float(v.imag)), repr(float(abs(v)))]
        for x, v in zip(xs, vals)
    ]
    if out:
        with open(out, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
    else:
        csv.writer(sys.stdout).writerows(rows)


def _cmd_design(args):
    design = optimize_support(args.n, complex(args.z0[0], args.z0[1]))
    if args.format == "csv":
        _emit_poly_csv(design.extremal_poly, args.out)
    else:
        _emit_json(design.to_json(), args.out)
    return 0 if design.certified else 2


def _cmd_growth(args):
    q = growth_poly(args.n, abs(args.a))
    if args.a < 0:
        q = q.reflected()
    if args.format == "csv":
        _emit_poly_csv(q, args.out)
        return 0
    lhs, rhs = growth_gap(args.n, args.a)
    _emit_json(
        {
            "n": args.n,
            "a": args.a,
            "growth_value": growth_value(args.n, args.a),
            "poly": q.to_json(),
            "gap": {"lhs": lhs, "rhs": rhs},
        },
        args.out,
    )
    return 0


def _suite_pell(seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 21))
        a = 10.0 * (1.0 - rng.random())
        x = rng.uniform(-1.0, 1.0, 50)
        worst = max(worst, float(pell_residual(n, a, x).max()))
    return worst <= 1e-9, f"worst residual {worst:.3e} over 10000 samples"


def _suite_equivalence(_seed):
    """Optimizer against the available exact node sets, certificate demanded."""
    worst = 0.0
    ok = True
    for n, a in [(2, 1.0), (3, 1.0), (4, 0.25)]:
        found = optimize_support(n, 1j * a)
        oracle = closed_form_design(n, a)
        dev = float(np.abs(found.measure.nodes - oracle.measure.nodes).max())
        worst = max(worst, dev)
        ok = ok and found.certified and dev <= 1e-6
    for n, z0 in [(3, 1.5), (4, 2.0)]:
        found = optimize_support(n, z0)
        dev = float(
            np.abs(found.measure.nodes - np.cos(np.pi * np.arange(n, -1, -1) / n)).max()
        )
        worst = max(worst, dev)
        ok = ok and found.certified and dev <= 1e-6
    return ok, f"worst node deviation {worst:.3e}"


def _suite_duality(_seed):
    """K equals |P(z0)|^2 and the L2 norm is 1 on every certified design."""
    worst_gap = 0.0
    worst_l2 = 0.0
    ok = True
    for n, z0 in [(2, 2.0), (3, -3.0), (3, 1j), (2, 1 + 1j), (4, 0.5 + 0.5j)]:
        d = optimize_support(n, z0)
        worst_gap = max(worst_gap, d.certificate.duality_gap)
        worst_l2 = max(worst_l2, abs(d.certificate.l2_mu_norm - 1.0))
        ok = ok and d.certified and abs(d.certificate.l2_mu_norm - 1.0) <= 1e-10
    return ok, f"worst duality gap {worst_gap:.3e}, worst |L2 - 1| {worst_l2:.3e}"


# every suite takes the verify seed; only the Pell suite draws from it
_SUITES = {
    "pell": _suite_pell,
    "equivalence": _suite_equivalence,
    "duality": _suite_duality,
}


def _cmd_verify(args):
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    all_ok = True
    for name in names:
        ok, detail = _SUITES[name](args.seed)
        print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
        all_ok = all_ok and ok
    return 0 if all_ok else 2


def _cmd_simulate(args):
    try:
        with open(args.plan) as fh:
            plan = RegressionPlan.from_json(json.load(fh))
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ValueError(f"cannot read plan file {args.plan!r}: {exc}") from exc
    z0 = complex(args.z0[0], args.z0[1])
    est = mc_predictor_variance(plan, z0, args.replicates, args.seed)
    _emit_json(
        {
            "plan": plan.to_json(),
            "z0": [z0.real, z0.imag],
            "replicates": est.replicates,
            "seed": args.seed,
            "empirical": est.empirical,
            "predicted": est.predicted,
            "rel_error": est.rel_error,
            "metadata": {"rng": _RNG_NOTE, "variance": _VARIANCE_NOTE},
        },
        args.out,
    )
    return 0 if est.rel_error <= 0.05 else 2


def build_parser():
    parser = argparse.ArgumentParser(
        prog="optpred",
        description="Optimal prediction measures on [-1, 1] for exterior points",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="optimize node placement for z0")
    p.add_argument("--n", type=int, required=True, help="polynomial degree")
    p.add_argument("--z0", type=float, nargs=2, metavar=("RE", "IM"), required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(handler=_cmd_design)

    p = sub.add_parser("growth", help="closed-form growth data at z0 = ai")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(handler=_cmd_growth)

    p = sub.add_parser("verify", help="run identity and optimality suites")
    p.add_argument("--suite", choices=["pell", "equivalence", "duality", "all"],
                   default="all")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("simulate", help="Monte Carlo predictor variance")
    p.add_argument("--plan", required=True, help="RegressionPlan JSON file")
    p.add_argument("--z0", type=float, nargs=2, metavar=("RE", "IM"), required=True)
    p.add_argument("--replicates", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_simulate)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags; the contract reserves 2 for numeric
        # failures, so remap usage errors to 1 (and keep --help at 0)
        return 0 if exc.code in (0, None) else 1
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RankDeficiencyError, RuntimeError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
