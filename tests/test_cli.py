import csv
import json

import numpy as np
import pytest

from optpred import DiscreteMeasure, RegressionPlan, hoel_levine_weights
from optpred.cli import main
from optpred.design import Design, certify

NODES3 = np.array([-1.0, 0.0, 1.0])


def _strip_timestamp(text):
    data = json.loads(text)
    data.pop("timestamp")
    return data


def test_design_real_point(tmp_path, capsys):
    out = tmp_path / "design.json"
    code = main(["design", "--n", "4", "--z0", "1.5", "0", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    expected = np.cos(np.pi * np.arange(4, -1, -1) / 4)
    np.testing.assert_allclose(data["nodes"], expected, atol=1e-6)
    assert data["certificate"]["certified"] is True


def test_design_imaginary_point_matches_closed_form(tmp_path):
    out = tmp_path / "design.json"
    assert main(["design", "--n", "3", "--z0", "0", "1", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    np.testing.assert_allclose(np.abs(data["nodes"][1:-1]),
                               0.45508986056222733, atol=1e-6)


def test_design_round_trip_recertifies(tmp_path):
    out = tmp_path / "design.json"
    assert main(["design", "--n", "3", "--z0", "0", "1", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    data.pop("timestamp")
    d = Design.from_json(data)
    fresh = certify(d)
    assert abs(fresh.sup_norm - d.certificate.sup_norm) <= 1e-12
    assert abs(fresh.duality_gap - d.certificate.duality_gap) <= 1e-12
    assert abs(fresh.l2_mu_norm - d.certificate.l2_mu_norm) <= 1e-12


def test_design_deterministic_output(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["design", "--n", "3", "--z0", "1", "1", "--out", str(a)])
    main(["design", "--n", "3", "--z0", "1", "1", "--out", str(b)])
    assert _strip_timestamp(a.read_text()) == _strip_timestamp(b.read_text())


def test_design_rejects_interior_point(capsys):
    assert main(["design", "--n", "2", "--z0", "0.5", "0"]) == 1
    assert "exterior" in capsys.readouterr().err


def test_design_rejects_nonfinite_point(capsys):
    assert main(["design", "--n", "3", "--z0", "nan", "0"]) == 1
    assert "error:" in capsys.readouterr().err


def test_design_csv_samples(tmp_path):
    out = tmp_path / "poly.csv"
    code = main(["design", "--n", "2", "--z0", "0", "1", "--format", "csv",
                 "--out", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "re", "im", "abs"]
    assert len(rows) == 1002
    xs = np.array([float(r[0]) for r in rows[1:]])
    assert xs[0] == -1.0 and xs[-1] == 1.0
    mods = np.array([float(r[3]) for r in rows[1:]])
    assert mods.max() <= 1.0 + 1e-9


def test_growth_values(tmp_path, capsys):
    out = tmp_path / "growth.json"
    assert main(["growth", "--n", "2", "--a", "1", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["growth_value"] == pytest.approx(3.4142136, abs=5e-8)
    assert data["gap"]["lhs"] == pytest.approx(data["gap"]["rhs"], rel=1e-9)

    assert main(["growth", "--n", "1", "--a", "1", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["growth_value"] == pytest.approx(1.4142136, abs=5e-8)


def test_growth_negative_a_reflects_coefficients(tmp_path):
    pos, neg = tmp_path / "pos.json", tmp_path / "neg.json"
    main(["growth", "--n", "3", "--a", "2", "--out", str(pos)])
    main(["growth", "--n", "3", "--a", "-2", "--out", str(neg)])
    cp = json.loads(pos.read_text())["poly"]["coeffs"]
    cn = json.loads(neg.read_text())["poly"]["coeffs"]
    for k, (p, q) in enumerate(zip(cp, cn)):
        sign = (-1.0) ** k
        assert q[0] == pytest.approx(sign * p[0], abs=1e-15)
        assert q[1] == pytest.approx(sign * p[1], abs=1e-15)


def test_growth_rejects_zero(capsys):
    assert main(["growth", "--n", "1", "--a", "0"]) == 1
    assert "nonzero" in capsys.readouterr().err


@pytest.mark.parametrize("a", ["nan", "inf"])
def test_growth_rejects_nonfinite_a(a, capsys):
    assert main(["growth", "--n", "3", "--a", a]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "a = " in err


def test_verify_pell(capsys):
    assert main(["verify", "--suite", "pell", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "pell: PASS" in out


def test_verify_all(capsys):
    assert main(["verify", "--suite", "all", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    for name in ("pell", "equivalence", "duality"):
        assert f"{name}: PASS" in out


def _write_plan(path, mu, m=300, sigma=1.0):
    plan = RegressionPlan.from_measure(mu, m, sigma, np.array([0.3, -0.2, 0.5]))
    path.write_text(json.dumps(plan.to_json()))


def test_simulate_uniform_plan(tmp_path):
    plan_file = tmp_path / "plan.json"
    _write_plan(plan_file, DiscreteMeasure(NODES3, np.array([1, 1, 1]) / 3))
    out = tmp_path / "result.json"
    code = main(["simulate", "--plan", str(plan_file), "--z0", "2", "0",
                 "--replicates", "20000", "--seed", "5", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["predicted"] == pytest.approx(0.19, rel=1e-12)
    assert data["rel_error"] <= 0.05
    assert "rng" in data["metadata"]
    assert "variance" in data["metadata"]


def test_simulate_noiseless_plan(tmp_path):
    plan_file = tmp_path / "plan.json"
    _write_plan(plan_file, DiscreteMeasure(NODES3, np.array([1, 1, 1]) / 3),
                sigma=0.0)
    code = main(["simulate", "--plan", str(plan_file), "--z0", "2", "0",
                 "--replicates", "1000", "--seed", "5"])
    assert code == 0


def test_simulate_malformed_plan(tmp_path, capsys):
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps({
        "nodes": [-1.0, 0.0, 1.0],
        "weights": [0.5, 0.7, -0.2],
        "counts": [100, 100, 100],
        "sigma": 1.0,
        "theta": [0.1, 0.2, 0.3],
    }))
    assert main(["simulate", "--plan", str(plan_file), "--z0", "2", "0"]) == 1
    plan_file.write_text("not json")
    assert main(["simulate", "--plan", str(plan_file), "--z0", "2", "0"]) == 1
    assert main(["simulate", "--plan", str(tmp_path / "nope.json"),
                 "--z0", "2", "0"]) == 1


def test_simulate_rejects_nonfinite_point(tmp_path, capsys):
    plan_file = tmp_path / "plan.json"
    _write_plan(plan_file, DiscreteMeasure(NODES3, np.array([1, 1, 1]) / 3))
    code = main(["simulate", "--plan", str(plan_file), "--z0", "nan", "0",
                 "--replicates", "1000"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["nodes", "weights", "theta"])
def test_simulate_rejects_nonfinite_plan_field(field, tmp_path, capsys):
    plan_file = tmp_path / "plan.json"
    _write_plan(plan_file, DiscreteMeasure(NODES3, np.array([1, 1, 1]) / 3))
    data = json.loads(plan_file.read_text())
    data[field][1] = float("nan")
    plan_file.write_text(json.dumps(data))
    code = main(["simulate", "--plan", str(plan_file), "--z0", "2", "0",
                 "--replicates", "1000"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{field} must be finite" in err


def test_usage_errors_exit_one(capsys):
    assert main(["design", "--n", "2"]) == 1  # missing --z0
    assert main(["frobnicate"]) == 1
    assert main([]) == 1
    assert main(["--help"]) == 0
    capsys.readouterr()
