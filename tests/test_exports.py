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


def test_import_leaves_scipy_unloaded():
    # the package runs on numpy alone; a fresh interpreter shows what
    # importing the package (and the CLI module) pulls in
    src = Path(optpred.__file__).resolve().parents[1]
    code = ("import sys, optpred, optpred.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
