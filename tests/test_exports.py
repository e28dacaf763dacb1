import os
import subprocess
import sys
from pathlib import Path

import optpred

# the public surface: every name here is run by the package, the CLI or the
# benchmark, or is the public entry to code they run
EXPORTS = {
    "Certificate", "ChebPoly", "Design", "DiscreteMeasure",
    "RankDeficiencyError", "RegressionPlan", "VarianceEstimate", "as_nodes",
    "closed_form_design", "companion_zeros",
    "design_from_support", "extremal_signed_poly", "growth_gap",
    "growth_poly", "growth_value", "hoel_levine_weights", "lagrange_values",
    "least_squares_fit", "mc_predictor_variance", "optimize_support",
    "pell_companion", "pell_residual", "require_exterior", "vandermonde",
}


def test_all_names_resolve_once():
    names = optpred.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(optpred, name), name


def test_all_is_pinned():
    assert set(optpred.__all__) == EXPORTS
    assert len(EXPORTS) == 24


def _loaded_by_import():
    """The modules a fresh interpreter holds after importing the package and
    the CLI module."""
    src = Path(optpred.__file__).resolve().parents[1]
    code = "import sys, optpred, optpred.cli; print(' '.join(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    return set(out.stdout.split())


def test_import_leaves_scipy_unloaded():
    # the package runs on numpy alone
    assert not {m for m in _loaded_by_import() if m.split(".")[0] == "scipy"}


def test_import_leaves_thread_pool_unloaded():
    # only simulate runs the Monte Carlo thread pool, so design, growth and
    # verify start without concurrent.futures and the logging and queue
    # modules it loads
    assert not _loaded_by_import() & {"concurrent.futures", "logging", "queue"}
