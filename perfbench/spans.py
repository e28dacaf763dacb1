"""Spans around calls into optpred's layers, recorded from outside the package.

`Tracer.install` replaces each traced function with a timing wrapper at every
place an optpred module binds it (the defining module, modules that imported
it by name, and the package namespace), so calls between layers are seen too.
Spans are kept in memory as (name, start, end, parent, item, note) and turned
into per-layer metrics per pass; `write` saves them at exit.
"""

import json
import statistics
import sys
import time
from collections import defaultdict

import numpy as np


def _certified(args, result):
    return {"certified": bool(result.certified)}


def _finite_k(args, result):
    return {"finite_K": bool(np.isfinite(result.K_value))}


def _nfev(args, result):
    # scipy.optimize.minimize(fun, x0, ...): x0 holds the n - 1 interior nodes
    return {"n": len(args[1]) + 1, "nfev": int(result.nfev)}


def _obs_replicates(args, result):
    plan, _z0, replicates = args[:3]
    return {"obs_replicates": plan.m * int(replicates)}


def _command(args, result):
    argv = args[0] if args else []
    return {"command": argv[0] if argv else ""}


# span name -> (defining module, attribute, note built from (args, result))
TARGETS = {
    "design.optimize_support": ("optpred.design", "optimize_support", _certified),
    "design.design_from_support": ("optpred.design", "design_from_support", None),
    "design.minimize": ("optpred.design", "minimize", _nfev),
    "polynomial.sup_norm_interval": ("optpred.polynomial", "sup_norm_interval", None),
    "polynomial.real_roots_bracketed": ("optpred.polynomial", "real_roots_bracketed", None),
    "imaginary.companion_zeros": ("optpred.imaginary", "companion_zeros", None),
    "imaginary.closed_form_design": ("optpred.imaginary", "closed_form_design", _finite_k),
    "measure.christoffel": ("optpred.measure", "christoffel", None),
    "regression.mc_predictor_variance": ("optpred.regression", "mc_predictor_variance", _obs_replicates),
    "regression.least_squares_fit": ("optpred.regression", "least_squares_fit", None),
    "cli.main": ("optpred.cli", "main", _command),
}

MODULES = ("design", "polynomial", "imaginary", "measure", "regression", "cli")
SWEEP_DEGREES = (4, 8, 12)
PLANS = ("plan_a", "plan_b", "plan_c")


class Tracer:
    def __init__(self):
        self.spans = []
        self.item = ""
        self._stack = []

    def install(self):
        """Wrap every target at each optpred binding; absent targets are skipped."""
        for name, (module, attr, note) in TARGETS.items():
            fn = getattr(sys.modules.get(module), attr, None)
            if fn is None:
                continue
            wrapper = self._wrap(name, fn, note)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "optpred" and not mod_name.startswith("optpred."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)

    def _wrap(self, name, fn, note):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = len(spans)
            span = [name, time.perf_counter(), None, parent, self.item, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if note is not None:
                span[5] = note(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path):
        keys = ("name", "start", "end", "parent", "item", "note")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


def pass_metrics(spans, first, wall):
    """Per-layer metrics of one pass: the spans with index >= first."""
    own = range(first, len(spans))
    dur = {i: spans[i][2] - spans[i][1] for i in own}
    child = defaultdict(float)
    for i in own:
        if spans[i][3] is not None:
            child[spans[i][3]] += dur[i]

    incl = defaultdict(float)
    module_self = defaultdict(float)
    roots = 0.0
    for i in own:
        name = spans[i][0]
        incl[name] += dur[i]
        module_self[name.split(".")[0]] += dur[i] - child[i]
        if spans[i][3] is None:
            roots += dur[i]

    def notes(name):
        return [(i, spans[i][5] or {}) for i in own if spans[i][0] == name]

    optimize = notes("design.optimize_support")
    batches = [i for i in own if spans[i][0] == "design.design_from_support"
               and spans[i][3] is not None and spans[spans[i][3]][0] == "design.optimize_support"]
    batch_time = sum(dur[i] for i in batches)
    certified = sum(1 for _, nt in optimize if nt.get("certified"))

    nm = notes("design.minimize")
    nfev = sum(nt.get("nfev", 0) for _, nt in nm)

    def per_call_us(calls):
        evals = sum(nt.get("nfev", 0) for _, nt in calls)
        return 1e6 * sum(dur[i] for i, _ in calls) / evals if evals else 0.0

    mc = notes("regression.mc_predictor_variance")
    obs = sum(nt.get("obs_replicates", 0) for _, nt in mc)
    cli = notes("cli.main")

    m = {
        "design.optimize_support.s": incl["design.optimize_support"],
        "design.solve.s": incl["design.optimize_support"] - batch_time,
        "design.objective.us": per_call_us(nm),
        "design.objective_calls": float(nfev),
        "design.batches": float(len(batches)),
        "design.certified_per_batch": certified / len(batches) if batches else 0.0,
        "design.uncertified": float(len(optimize) - certified),
        "design.design_from_support.s": incl["design.design_from_support"],
        "polynomial.sup_norm_interval.s": incl["polynomial.sup_norm_interval"],
        "polynomial.real_roots_bracketed.s": incl["polynomial.real_roots_bracketed"],
        "imaginary.companion_zeros.s": incl["imaginary.companion_zeros"],
        "imaginary.closed_form_design.s": incl["imaginary.closed_form_design"],
        "imaginary.nonfinite_K": float(sum(
            1 for _, nt in notes("imaginary.closed_form_design") if not nt.get("finite_K", True))),
        "measure.christoffel.s": incl["measure.christoffel"],
        "regression.mc_predictor_variance.s": incl["regression.mc_predictor_variance"],
        "regression.ns_per_obs_replicate": (
            1e9 * incl["regression.mc_predictor_variance"] / obs if obs else 0.0),
        "cli.main.s": incl["cli.main"],
        "trace.coverage": roots / wall,
    }
    for n in SWEEP_DEGREES:
        m[f"design.objective.n{n}.us"] = per_call_us(
            [(i, nt) for i, nt in nm if nt.get("n") == n])
    for plan in PLANS:
        m[f"regression.mc_predictor_variance.{plan}.s"] = sum(
            dur[i] for i, _ in mc if spans[i][4] == plan)
    for command in ("verify", "simulate"):
        m[f"cli.main.{command}.s"] = sum(
            dur[i] for i, nt in cli if nt.get("command") == command)
    for module in MODULES:
        m[f"share.{module}"] = module_self[module] / wall
    return m


def median_metrics(per_pass):
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
