"""One benchmark process: set up a workload, then run passes over its items.

Started by run.py, never by hand.  Prints `ready` once the package is
imported and the workload's inputs, oracles and plan files are built (run.py
times a fresh interpreter up to that line) and the mean reference time
measured right after it, then, unless --setup-only, runs closed-loop passes
for --seconds and prints one JSON result line.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench"

# The shared host's speed drifts by up to ~30% over minutes, for all code
# alike, which a run of 30 s cannot average out.  So each worker also times
# a fixed reference computation (no optpred code) interleaved with the work,
# and every time metric is scaled by REF_NOMINAL_S / (mean reference time):
# it reads as seconds on a host where the reference takes 60 ms, its typical
# time on the 2-core host the bounds were set on.  Unscaled times are
# printed on the host line.
REF_NOMINAL_S = 0.060
REF_SHARE = 0.25
SETUP_REFS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def import_package():
    """Import optpred from this checkout's src/, never from site-packages."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import optpred
    import optpred.cli  # noqa: F401  (the in-process CLI items call it)

    if not Path(optpred.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"optpred imported from {optpred.__file__}, not {src}")


def blas_version(module):
    try:
        deps = module.show_config(mode="dicts")["Build Dependencies"]
        return deps["blas"]["name"] + " " + deps["blas"]["version"]
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def host_record():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas_version(numpy),
        "scipy_blas": blas_version(scipy),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def reference():
    """Time a fixed computation that uses no optpred code: a Nelder-Mead run
    on the Rosenbrock function, the same interpreter-bound kind of work as
    the optimizer's."""
    from scipy.optimize import minimize, rosen
    import numpy as np

    start = time.perf_counter()
    minimize(rosen, np.zeros(6), method="Nelder-Mead",
             options={"maxfev": 1500, "xatol": 0.0, "fatol": 0.0})
    return time.perf_counter() - start


def run_pass(workload, seen_warnings, tracer=None):
    """Run the item list once, closed loop, one caller; gate every output.

    After each item the reference runs until its total time reaches
    REF_SHARE of the items' so far, so its samples spread over the pass like
    the work does.  Wall and CPU time exclude it.
    """
    item_s, ok, failed, wall, cpu, refs = [], 0, 0, 0.0, 0.0, [reference()]
    t0 = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for item in workload.items:
            if tracer is not None:
                tracer.item = item.name
            start, cpu0 = time.perf_counter(), time.process_time()
            try:
                result = item.call()
                item_s.append(time.perf_counter() - start)
                status = item.check(result)
            except Exception:
                item_s.append(time.perf_counter() - start)
                print(f"item {item.name!r} raised:\n{traceback.format_exc()}",
                      file=sys.stderr)
                status = "wrong"
            wall += time.perf_counter() - start
            cpu += time.process_time() - cpu0
            ok += status == "ok"
            if item.fails(status):
                failed += 1
                print(f"item {item.name!r} failed its check: {status}", file=sys.stderr)
            while sum(refs) < REF_SHARE * wall:
                refs.append(reference())
    for w in caught:
        key = f"{w.category.__name__}: {w.message}"
        seen_warnings[key] = seen_warnings.get(key, 0) + 1
    return {"wall": wall, "cpu": cpu, "item_s": item_s, "ok": ok, "failed": failed,
            "attempted": len(workload.items), "warnings": len(caught),
            "ref": statistics.fmean(refs), "elapsed": time.perf_counter() - t0}


def run_passes(runner, seconds):
    """Whole passes, at least one, while the next is expected to end in `seconds`."""
    passes, start = [], time.perf_counter()
    while True:
        passes.append(runner())
        if time.perf_counter() - start + passes[-1]["elapsed"] > seconds:
            return passes


def time_probe(probe, repeats=3):
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        probe()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def scale(p):
    return REF_NOMINAL_S / p["ref"]


def end_to_end(passes):
    return {
        "run_s": statistics.median(p["wall"] * scale(p) for p in passes),
        "cpu_s": statistics.median(p["cpu"] * scale(p) for p in passes),
        # each item's mean over the passes, then their geometric mean: every
        # item weighs alike, so the small and mid-size ones that run_s hides
        # show, and no single item's rank decides the value as a median's would
        "item_ms.gmean": 1e3 * statistics.geometric_mean(statistics.fmean(t) for t in zip(
            *([s * scale(p) for s in p["item_s"]] for p in passes))),
        "ok_frac": sum(p["ok"] for p in passes) / sum(p["attempted"] for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_run(workload, seen, seconds, untraced, name):
    """Traced passes after the untraced one; returns (passes, per-layer metrics)."""
    from spans import Tracer, median_metrics, pass_metrics
    from workloads import PROBES

    tracer = Tracer()
    tracer.install()
    layer = []

    def traced_pass():
        first = len(tracer.spans)
        p = run_pass(workload, seen, tracer)
        layer.append(pass_metrics(tracer.spans, first, p["wall"]))
        layer[-1]["warnings.count"] = float(p["warnings"])
        return p

    traced = run_passes(traced_pass, seconds - untraced["elapsed"])
    metrics = median_metrics(layer)
    metrics["trace.overhead_s"] = (
        statistics.median(p["wall"] * scale(p) for p in traced)
        - untraced["wall"] * scale(untraced))
    for probe in PROBES:
        metrics[probe] = time_probe(workload.probes[probe]) if probe in workload.probes else 0.0
    tracer.write(WORKDIR / f"trace-{name}.json")
    return traced, metrics


def main(argv=None):
    args = parse_args(argv)
    import_package()
    from workloads import build, self_test

    WORKDIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORKDIR) as tmp:
        workload = build(args.workload, args.seed, tmp)
        print("ready", flush=True)
        print(statistics.fmean(reference() for _ in range(SETUP_REFS)), flush=True)
        if args.setup_only:
            return 0

        missed = self_test()
        for name in missed:
            print(f"self-test: gate did not catch: {name}", file=sys.stderr)
        seen = {}
        if args.trace:
            # one untraced pass, the base for trace.overhead_s
            passes = [run_pass(workload, seen)]
            traced, metrics = traced_run(workload, seen, args.seconds, passes[0],
                                         f"{args.workload}-seed{args.seed}")
        else:
            passes = run_passes(lambda: run_pass(workload, seen), args.seconds)
            traced, metrics = [], end_to_end(passes)

    for message, count in seen.items():
        print(f"warning x{count}: {message}", file=sys.stderr)
    failed = sum(p["failed"] for p in passes + traced)
    print(json.dumps({
        "correct": failed == 0 and not missed,
        "attempted": sum(p["attempted"] for p in passes + traced),
        "failed": failed,
        "metrics": metrics,
        "pass_s": [p["wall"] for p in passes],
        "ref_s": [p["ref"] for p in passes],
        "traced_pass_s": [p["wall"] for p in traced],
        "self_test_missed": missed,
        "host": host_record(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
