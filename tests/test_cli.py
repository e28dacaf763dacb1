import csv
import dataclasses
import json
import warnings

import numpy as np
import pytest

import optpred.cli
from optpred import DiscreteMeasure, RegressionPlan
from optpred.cli import _emit_json, main
from optpred.design import Design, design_from_support, optimize_support

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
    d = Design.from_json(data)
    assert data["certificate"] == d.certificate.to_json()


def test_design_payload_keys(tmp_path):
    out = tmp_path / "design.json"
    assert main(["design", "--n", "3", "--z0", "1", "1", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert set(data) == {"n", "z0", "nodes", "weights", "K_value", "poly",
                         "certificate", "timestamp"}
    assert set(data["certificate"]) == {"sup_norm", "max_violation", "l2_mu_norm",
                                        "on_support_moduli", "duality_gap",
                                        "certified"}


@pytest.mark.parametrize("z0", [("1e8", "0"), ("0", "1e8")])
def test_design_far_point_is_numeric_failure(z0, capsys):
    # the Lagrange values overflow at a valid exterior point: exit 2, and no
    # RuntimeWarning, which the suite's filter would raise as an error
    assert main(["design", "--n", "64", "--z0", *z0]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numeric failure:")
    assert "RuntimeWarning" not in err


def test_design_deterministic_output(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["design", "--n", "3", "--z0", "1", "1", "--out", str(a)])
    main(["design", "--n", "3", "--z0", "1", "1", "--out", str(b)])
    assert _strip_timestamp(a.read_text()) == _strip_timestamp(b.read_text())


def test_design_rejects_interior_point(capsys):
    assert main(["design", "--n", "2", "--z0", "0.5", "0"]) == 1
    assert "exterior" in capsys.readouterr().err


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


def test_design_csv_stdout_matches_file(tmp_path, capsysbinary):
    out = tmp_path / "poly.csv"
    args = ["design", "--n", "3", "--z0", "1.5", "0.5", "--format", "csv"]
    assert main(args + ["--out", str(out)]) == 0
    assert capsysbinary.readouterr().out == b""
    assert main(args) == 0
    assert capsysbinary.readouterr().out == out.read_bytes()


def test_back_to_back_calls_keep_defaults(capsys):
    # main reuses one parser; a flag given in one call must not become the
    # next call's default
    args = ["design", "--n", "2", "--z0", "2", "0"]
    assert main([*args, "--format", "csv"]) == 0
    assert capsys.readouterr().out.startswith("x,re,im,abs")
    assert main(args) == 0
    assert _strip_timestamp(capsys.readouterr().out)["n"] == 2


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


def test_growth_overflow_is_numeric_failure(tmp_path, capsys):
    # valid n and a whose growth value is beyond the largest double, like
    # every other overflow
    assert main(["growth", "--n", "512", "--a", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numeric failure:") and "n = 512" in captured.err
    # the sampled polynomial has |Q_n| <= 1, so its csv is still written
    out = tmp_path / "q.csv"
    argv = ["growth", "--n", "512", "--a", "4", "--format", "csv", "--out", str(out)]
    assert main(argv) == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    mods = np.array([float(r[3]) for r in rows[1:]])
    assert mods.max() <= 1.0 + 1e-9


def test_growth_rejects_zero(capsys):
    assert main(["growth", "--n", "1", "--a", "0"]) == 1
    assert "nonzero" in capsys.readouterr().err


@pytest.mark.parametrize("a", ["nan", "inf", "-inf"])
def test_growth_rejects_nonfinite_a(a, capsys):
    for argv in ([f"--a={a}"], ["--a", a]):
        assert main(["growth", "--n", "3", *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"a = {a} is not finite" in err


def test_negative_exponent_values_are_not_flags(tmp_path):
    out = tmp_path / "growth.json"
    assert main(["growth", "--n", "3", "--a", "-1e-3", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["a"] == -1e-3
    nodes = []
    for im in ("-1", "-1e0"):
        out = tmp_path / f"design{im}.json"
        assert main(["design", "--n", "3", "--z0", "0", im, "--out", str(out)]) == 0
        nodes.append(json.loads(out.read_text())["nodes"])
    assert nodes[0] == nodes[1]


def test_verify_pell(capsys):
    lines = []
    for _ in range(2):
        assert main(["verify", "--suite", "pell", "--seed", "7"]) == 0
        lines.append(capsys.readouterr().out)
    assert lines[0] == lines[1]
    assert lines[0].startswith("pell: PASS (worst residual ")
    assert lines[0].endswith(" over 10000 samples)\n")


def test_verify_all(capsys):
    assert main(["verify", "--suite", "all", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    for name in ("pell", "equivalence", "duality"):
        assert f"{name}: PASS" in out


@pytest.mark.parametrize("suite", ["equivalence", "duality"])
def test_verify_single_suite(suite, capsys):
    assert main(["verify", "--suite", suite]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"{suite}: PASS (") and out.count("\n") == 1


@pytest.mark.parametrize("suite, solves", [("all", 9), ("equivalence", 5),
                                           ("duality", 5)])
def test_verify_solves_each_point_once_per_run(suite, solves, monkeypatch,
                                               capsys):
    # equivalence and duality both solve (3, i); a run solves it once, and
    # the next run solves everything again
    calls = []

    def solve(n, z0):
        calls.append((n, z0))
        return optimize_support(n, z0)

    monkeypatch.setattr(optpred.cli, "optimize_support", solve)
    assert main(["verify", "--suite", suite]) == 0
    assert len(calls) == solves == len(set(calls))
    assert main(["verify", "--suite", suite]) == 0
    assert len(calls) == 2 * solves
    capsys.readouterr()


def _verify_with(solver, suite, monkeypatch, capsys):
    monkeypatch.setattr(optpred.cli, "optimize_support", solver)
    code = main(["verify", "--suite", suite])
    return code, capsys.readouterr().out


def test_verify_equivalence_fails_on_a_moved_node(monkeypatch, capsys):
    def moved(n, z0):
        x = optimize_support(n, z0).measure.nodes.copy()
        x[1] += 1e-3
        return design_from_support(n, z0, x)

    code, out = _verify_with(moved, "equivalence", monkeypatch, capsys)
    assert code == 2
    assert out.startswith("equivalence: FAIL (worst node deviation 1.000e-03)")


def test_verify_duality_fails_on_an_uncertified_design(monkeypatch, capsys):
    def uncertified(n, z0):
        d = optimize_support(n, z0)
        cert = dataclasses.replace(d.certificate, duality_gap=1.0)
        return dataclasses.replace(d, certificate=cert)

    code, out = _verify_with(uncertified, "duality", monkeypatch, capsys)
    assert code == 2
    assert out.startswith("duality: FAIL (worst duality gap 1.000e+00")


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"non-JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


def test_design_overflowed_K_is_null(capsys):
    # K = inf at n = 200, z0 = 4i: the design is uncertified (exit 2) and
    # its K_value is written as null, not as Infinity
    with pytest.warns(UserWarning, match="failed certification"):
        assert main(["design", "--n", "200", "--z0", "0", "4"]) == 2
    data = _strict_json(capsys.readouterr().out)
    assert data["K_value"] is None
    assert data["certificate"]["certified"] is False


def test_uncertified_design_under_warnings_as_errors_is_numeric_failure(capsys):
    # python -W error raises the solver's UserWarning before anything is
    # written; it is reported as a numeric failure, not a traceback
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["design", "--n", "200", "--z0", "0", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numeric failure: optimize_support(n=200")
    assert "failed certification" in captured.err


def test_emit_json_writes_nonfinite_values_as_null(capsys):
    _emit_json({"a": [1.5, float("nan")], "b": {"c": -float("inf")}, "d": 2},
               None)
    data = _strict_json(capsys.readouterr().out)
    assert data["a"] == [1.5, None] and data["b"] == {"c": None}
    assert data["d"] == 2


def test_verify_rejects_negative_seed(capsys):
    assert main(["verify", "--suite", "pell", "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be >= 0, got -1\n"


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
    assert "SFC64" in data["metadata"]["rng"]
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


def test_simulate_rejects_negative_seed(tmp_path, capsys):
    plan_file = tmp_path / "plan.json"
    _write_plan(plan_file, DiscreteMeasure(NODES3, np.array([1, 1, 1]) / 3))
    code = main(["simulate", "--plan", str(plan_file), "--z0", "2", "0",
                 "--replicates", "1000", "--seed", "-1"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seed" in err


def test_simulate_rejects_fractional_counts(tmp_path, capsys):
    # counts are refused, not truncated to 75/150/75
    plan_file = tmp_path / "plan.json"
    _write_plan(plan_file, DiscreteMeasure(NODES3, np.array([1, 2, 1]) / 4))
    data = json.loads(plan_file.read_text())
    data["counts"] = [75.9, 150.9, 75.9]
    plan_file.write_text(json.dumps(data))
    code = main(["simulate", "--plan", str(plan_file), "--z0", "2", "0",
                 "--replicates", "1000"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "counts must be an integer" in err


def test_simulate_rejects_count_beyond_int64(tmp_path, capsys):
    plan_file = tmp_path / "plan.json"
    _write_plan(plan_file, DiscreteMeasure(NODES3, np.array([1, 2, 1]) / 4))
    data = json.loads(plan_file.read_text())
    data["counts"] = [2**63, 2, 1]
    plan_file.write_text(json.dumps(data))
    code = main(["simulate", "--plan", str(plan_file), "--z0", "2", "0",
                 "--replicates", "1000"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: cannot read plan file")


@pytest.mark.parametrize("re", ["1e100", "1e200"])
def test_simulate_far_point_is_numeric_failure(re, tmp_path, capsys):
    plan_file = tmp_path / "plan.json"
    _write_plan(plan_file, DiscreteMeasure(NODES3, np.array([1, 1, 1]) / 3))
    code = main(["simulate", "--plan", str(plan_file), "--z0", re, "0",
                 "--replicates", "1000"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numeric failure: prediction variance overflows")


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


# README's exit-code examples, and an --out that cannot be written for every
# command and format that writes one: one exit code and one stderr line per
# kind of failure, never a traceback.  {dir} is a directory holding plan.json,
# a valid plan, and fractional.json, one with counts 75.9; {dir}/missing does
# not exist.  The suite's warning filter raises an uncertified design's
# UserWarning, as python -W error does.
_CONTRACT = {
    "design-on-interval": ("design --n 2 --z0 0.5 0", 1, "error:"),
    "design-nan-z0": ("design --n 3 --z0 nan 0", 1, "error:"),
    "growth-zero-a": ("growth --n 1 --a 0", 1, "error:"),
    "verify-negative-seed": ("verify --suite pell --seed -1", 1, "error:"),
    "simulate-missing-plan": ("simulate --plan {dir}/missing/plan.json --z0 2 0",
                              1, "error: cannot read plan file"),
    "simulate-fractional-counts": ("simulate --plan {dir}/fractional.json --z0 2 0",
                                   1, "error:"),
    "simulate-nan-z0": ("simulate --plan {dir}/plan.json --z0 nan 0", 1, "error:"),
    "design-out-missing": ("design --n 4 --z0 2 0 --out {dir}/missing/d.json",
                           1, "error: cannot write"),
    "design-out-dir": ("design --n 4 --z0 2 0 --out {dir}", 1, "error: cannot write"),
    "growth-out-missing": ("growth --n 3 --a 1 --out {dir}/missing/g.json",
                           1, "error: cannot write"),
    "growth-out-dir": ("growth --n 3 --a 1 --out {dir}", 1, "error: cannot write"),
    "growth-csv-out-missing": ("growth --n 3 --a 1 --format csv --out "
                               "{dir}/missing/g.csv", 1, "error: cannot write"),
    "growth-csv-out-dir": ("growth --n 3 --a 1 --format csv --out {dir}",
                           1, "error: cannot write"),
    "simulate-out-missing": ("simulate --plan {dir}/plan.json --z0 2 0 "
                             "--replicates 1000 --out {dir}/missing/s.json",
                             1, "error: cannot write"),
    "simulate-out-dir": ("simulate --plan {dir}/plan.json --z0 2 0 "
                         "--replicates 1000 --out {dir}", 1, "error: cannot write"),
    "design-uncertified": ("design --n 1 --z0 1e200 0", 2, "numeric failure:"),
    "design-lagrange-overflow": ("design --n 64 --z0 1e8 0", 2, "numeric failure:"),
    "design-lebesgue-overflow": ("design --n 2 --z0 1e154 0", 2, "numeric failure:"),
    "simulate-variance-overflow": ("simulate --plan {dir}/plan.json --z0 1e200 0 "
                                   "--replicates 1000", 2, "numeric failure:"),
    "growth-overflow": ("growth --n 340 --a 4", 2, "numeric failure:"),
}


@pytest.mark.parametrize("case", list(_CONTRACT))
def test_exit_contract(case, tmp_path, capsys):
    command, code, prefix = _CONTRACT[case]
    mu = DiscreteMeasure(NODES3, np.array([1, 2, 1]) / 4)
    _write_plan(tmp_path / "plan.json", mu)
    plan = json.loads((tmp_path / "plan.json").read_text())
    plan["counts"] = [75.9, 150.9, 75.9]
    (tmp_path / "fractional.json").write_text(json.dumps(plan))
    argv = [arg.format(dir=tmp_path) for arg in command.split()]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1
    assert "Traceback" not in err
