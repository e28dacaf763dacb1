"""Command-line surface: design search, closed-form growth data, verification
suites, and the Monte Carlo variance simulator.

Exit codes are part of the contract so CI can consume the tool directly,
one code for each kind of failure: 0 = certified / all checks passed,
1 = unusable input (a bad flag or value, an unreadable plan file, an
unwritable --out), 2 = a valid input whose numbers fail (an uncertified
design, a failed verify suite, a value beyond the largest double, a
simulated plan's refused fit, or a simulated variance that disagrees with
the formula).  Neither ends in a traceback: stderr gets one line,
"error: ..." or "numeric failure: ...", or argparse's usage for a bad
flag, or an uncertified design's UserWarning.
"""

import argparse
import csv
import functools
import io
import json
import math
import sys
from datetime import datetime, timezone

import numpy as np

from .design import optimize_support
from .imaginary import (
    closed_form_support,
    growth_gap,
    growth_poly,
    growth_value,
    pell_residual,
)
from .polynomial import _check_int, _lobatto
from .regression import (
    _BATCH,
    RankDeficiencyError,
    RegressionPlan,
    mc_predictor_variance,
)

_SAMPLE_POINTS = 1001
_RNG_NOTE = (
    f"numpy.random.Generator(SFC64) per block of {_BATCH} replicates, "
    "spawned from SeedSequence(seed); "
    "one standard normal per node mean per replicate"
)
_VARIANCE_NOTE = "complex-valued predictions; variance is E|x - mean|^2"


def _timestamp():
    return datetime.now(timezone.utc).isoformat()


def _emit(text, out):
    if out:
        # newline="" writes the text as it is, CSV line ends included
        try:
            with open(out, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {out!r}: {exc}") from exc
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _finite_or_none(value):
    """value with each non-finite float in it replaced by None."""
    if isinstance(value, dict):
        return {k: _finite_or_none(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_none(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _emit_json(payload, out):
    """payload as strict JSON: a non-finite float, which json.dumps would
    write as Infinity or NaN, is written as null."""
    payload["timestamp"] = _timestamp()
    _emit(json.dumps(_finite_or_none(payload), indent=2, allow_nan=False), out)


def _emit_poly_csv(p, out):
    """Plotting payload: |p| and its parts on a uniform grid over [-1, 1]."""
    xs = np.linspace(-1.0, 1.0, _SAMPLE_POINTS)
    vals = p(xs)
    rows = [["x", "re", "im", "abs"]]
    rows += [
        [repr(float(x)), repr(float(v.real)), repr(float(v.imag)), repr(float(abs(v)))]
        for x, v in zip(xs, vals)
    ]
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    _emit(buf.getvalue(), out)


def _cmd_design(args):
    design = optimize_support(args.n, complex(args.z0[0], args.z0[1]))
    if args.format == "csv":
        _emit_poly_csv(design.extremal_poly, args.out)
    else:
        _emit_json(design.to_json(), args.out)
    return 0 if design.certified else 2


def _cmd_growth(args):
    q = growth_poly(args.n, args.a)
    if args.format == "csv":
        # |Q_n| <= 1 on [-1, 1]: the samples stay finite where the growth
        # value overflows
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


def _suite_pell(seed, _solve):
    rng = np.random.default_rng(seed)
    ns = rng.integers(1, 21, 200)
    avals = 10.0 * (1.0 - rng.random(200))
    xs = rng.uniform(-1.0, 1.0, (200, 50))
    residual = pell_residual(ns, avals, xs)
    worst = float(residual.max())
    return worst <= 1e-9, f"worst residual {worst:.3e} over {residual.size} samples"


def _suite_equivalence(_seed, solve):
    """Optimizer against the available exact node sets, certificate demanded.
    On both axes optimize_support takes the closed form and solves nothing,
    so the suite checks that the support returned is the closed form,
    closed_form_support on the imaginary axis, at (2, i), (3, i) and
    (4, 0.25i), and the Chebyshev extrema _lobatto(n) on the real line, at
    (3, 1.5) and (4, 2), and that the certificate, which is independent of
    either, accepts it."""
    worst = 0.0
    ok = True
    for n, z0 in [(2, 1j), (3, 1j), (4, 0.25j), (3, 1.5), (4, 2.0)]:
        found = solve(n, z0)
        oracle = closed_form_support(n, z0.imag) if z0.imag else _lobatto(n)
        dev = float(np.abs(found.measure.nodes - oracle).max())
        worst = max(worst, dev)
        ok = ok and found.certified and dev <= 1e-6
    return ok, f"worst node deviation {worst:.3e}"


def _suite_duality(_seed, solve):
    """K equals |P(z0)|^2 and the L2 norm is 1 on every certified design."""
    worst_gap = 0.0
    worst_l2 = 0.0
    ok = True
    for n, z0 in [(2, 2.0), (3, -3.0), (3, 1j), (2, 1 + 1j), (4, 0.5 + 0.5j)]:
        d = solve(n, z0)
        worst_gap = max(worst_gap, d.certificate.duality_gap)
        worst_l2 = max(worst_l2, abs(d.certificate.l2_mu_norm - 1.0))
        ok = ok and d.certified and abs(d.certificate.l2_mu_norm - 1.0) <= 1e-10
    return ok, f"worst duality gap {worst_gap:.3e}, worst |L2 - 1| {worst_l2:.3e}"


# every suite takes the verify seed, which only the Pell suite draws from,
# and the run's solver, which the other two share: a point that both solve,
# (3, i), is solved once per run
_SUITES = {
    "pell": _suite_pell,
    "equivalence": _suite_equivalence,
    "duality": _suite_duality,
}


def _cmd_verify(args):
    _check_int("seed", args.seed)
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    # a memo per run: one kept across runs would speed up only repeated
    # in-process calls, never a user's single verify
    solve = functools.cache(optimize_support)
    all_ok = True
    for name in names:
        ok, detail = _SUITES[name](args.seed, solve)
        print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
        all_ok = all_ok and ok
    return 0 if all_ok else 2


def _cmd_simulate(args):
    try:
        with open(args.plan) as fh:
            plan = RegressionPlan.from_json(json.load(fh))
    except (OSError, json.JSONDecodeError, KeyError, TypeError,
            OverflowError) as exc:
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


class _Parser(argparse.ArgumentParser):
    # argparse takes -1e-3 or -inf for a flag; any token float() reads is a value
    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
            return None
        except ValueError:
            return super()._parse_optional(arg_string)


# built once per process: parse_args puts each call's values, defaults
# included, in a new Namespace and leaves the parser as it was
@functools.cache
def build_parser():
    parser = _Parser(
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
    p.add_argument("--suite", choices=[*_SUITES, "all"], default="all")
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags; the contract reserves 2 for numeric
        # failures, so remap usage errors to 1 (and keep --help at 0)
        return 0 if exc.code in (0, None) else 1
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (RankDeficiencyError, RuntimeError, UserWarning) as exc:
        # under python -W error an uncertified design's UserWarning is raised;
        # it is a numeric failure all the same
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
