"""optpred benchmark: seeded workloads, oracle-checked, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload design-sweep --seed 1 --seconds 30 --trace 0

Workloads: design-sweep, closed-form, simulate (or `all` to run each in
turn).  With --trace 0 the result holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics from a traced run.  The last line
of stdout is the result, {"correct", "attempted", "failed", "metrics"}; the
line before it records the host.  Each workload process imports optpred
from this checkout's src/ with the BLAS thread count fixed at 1.  Set-up is
timed from a fresh interpreter to ready-to-run, SETUPS times, and the median
is reported as setup_s.  Times are scaled to the host speed each worker
measures (see REF_NOMINAL_S in worker.py); the line before the result holds
the unscaled ones.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import REF_NOMINAL_S

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("design-sweep", "closed-form", "simulate")
SETUPS = 5
BLAS_THREADS = "1"
SETUP_TIMEOUT_S = 60
RUN_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def worker_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("PYTHONPATH", None)
    return env


def start_worker(args, workload, setup_only):
    """Start a worker; return it, the seconds until it printed `ready`, and
    the reference time it measured right after."""
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        if line.strip() != "ready":
            raise BenchError(f"{workload} worker did not set up")
        return proc, ready, float(proc.stdout.readline())
    except BaseException:
        proc.kill()
        proc.communicate()
        raise


def finish(proc, timeout):
    """Read the rest of a worker's stdout and wait for it; kill it on timeout."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker exceeded {timeout} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def expected_metrics(trace):
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(args, workload):
    setups = []
    for _ in range(SETUPS - 1):
        proc, ready, ref = start_worker(args, workload, setup_only=True)
        finish(proc, SETUP_TIMEOUT_S)
        setups.append((ready, ref))
    proc, ready, ref = start_worker(args, workload, setup_only=False)
    setups.append((ready, ref))
    out = finish(proc, RUN_TIMEOUT_S)
    result = json.loads(out.strip().splitlines()[-1])

    values = dict(result["metrics"])
    if not args.trace:
        values["setup_s"] = statistics.median(
            ready * REF_NOMINAL_S / ref for ready, ref in setups)
    units = expected_metrics(args.trace)
    if set(values) != set(units):
        raise BenchError(f"metrics {sorted(set(values) ^ set(units))} "
                         "do not match BENCHMARK.json")
    print(json.dumps({
        "workload": workload,
        "seed": args.seed,
        "setup_s": [ready for ready, _ in setups],
        "setup_ref_s": [ref for _, ref in setups],
        "pass_s": result["pass_s"],
        "ref_s": result["ref_s"],
        "traced_pass_s": result["traced_pass_s"],
        "self_test_missed": result["self_test_missed"],
        "host": result["host"],
    }))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }), flush=True)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "optpred" / "__init__.py").is_file():
        print(f"error: no optpred sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for workload in workloads:
            run_workload(args, workload)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
