"""The decision ledger: a committed record of which designs certify.

decision_ledger.json lists 601 points (n, z0, route) and, for each, the
outcome recorded with OPENBLAS_NUM_THREADS=1: certified, log K (null where
K overflows to inf) and, where the design raises, the start of the
RuntimeError's message.  The points are

- 300 default_rng(5) draws taken as vectors, n = integers(2, 33),
  Re z0 = uniform(-2, 2), Im z0 = 10^uniform(-9, 0.5) * choice([-1, 1]);
- the imaginary axis, n = 2..32 x z0 = ai, a in {1e-9, 1e-6, 1e-4, 1e-3};
- 100 default_rng(64) draws point by point, n = integers(33, 65),
  Re z0 = uniform(-1, 1), Im z0 = 10^uniform(-9, -1) * choice([-1, 1]);

all by optimize_support, and closed_form_design at n in {8, 16, 32, 64,
128, 192, 256, 512} x a in {0.05, 0.1, 0.5, 1, 2, 2.5, 4} and
optimize_support at n in {4, 8, 16, 32, 64, 128, 256} x z0 in {2, i,
0.5+0.5i}.  Uncertified points stay in: a point is never dropped or redrawn.

The ledger is a ratchet.  A certified point must still certify, with log K
within 1e-10 (a certified design is optimal, and K_opt is unique).  An
uncertified point must not get a larger K, beyond 1e-12 relative.  A point
that raised may raise the same RuntimeError again.  A change that certifies
more points rewrites the ledger's outcomes, from the points it holds, with

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/test_ledger.py
"""

import json
import math
import sys
import warnings
from pathlib import Path

from optpred import closed_form_design, optimize_support

LEDGER = Path(__file__).with_name("decision_ledger.json")


def _design(row):
    """The design of a ledger row, the uncertified warning silenced."""
    n, z0 = row["n"], complex(*row["z0"])
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "optimize_support.*failed certification",
                                UserWarning)
        if row["route"] == "closed_form_design":
            return closed_form_design(n, z0.imag)
        return optimize_support(n, z0)


def _outcome(row):
    """The ledger's fields for a row's point as the code stands."""
    try:
        d = _design(row)
    except RuntimeError as err:
        return {"certified": False, "log_K": None, "raises": str(err).split(" at ")[0]}
    K = d.K_value
    return {"certified": d.certified, "log_K": math.log(K) if math.isfinite(K) else None}


def _regression(row, now):
    """Why the outcome now is worse than the ledger's row, or None."""
    if "raises" in now:
        if row.get("raises") != now["raises"]:
            return f"raises {now['raises']!r}"
        return None
    if row["certified"]:
        if not now["certified"]:
            return "no longer certified"
        if now["log_K"] is None or abs(now["log_K"] - row["log_K"]) > 1e-10:
            return f"log K {now['log_K']!r}, was {row['log_K']!r}"
    elif row["log_K"] is not None and (
            now["log_K"] is None or now["log_K"] - row["log_K"] > 1e-12):
        return f"larger K: log K {now['log_K']!r}, was {row['log_K']!r}"
    return None


def test_no_decision_is_lost():
    rows = json.loads(LEDGER.read_text())["rows"]
    assert len(rows) == 601  # no point dropped
    lost = []
    for row in rows:
        why = _regression(row, _outcome(row))
        if why is not None:
            lost.append(f"{row['route']}({row['n']}, {complex(*row['z0'])}): {why}")
    assert not lost, "\n".join(lost)


if __name__ == "__main__":
    rows = [{key: row[key] for key in ("route", "n", "z0")} | _outcome(row)
            for row in json.loads(LEDGER.read_text())["rows"]]
    lines = ",\n".join("  " + json.dumps(row) for row in rows)
    LEDGER.write_text(f'{{"rows": [\n{lines}\n]}}\n')
    print(f"{sum(row['certified'] for row in rows)} of {len(rows)} certified, "
          f"written to {LEDGER}", file=sys.stderr)
