import json
import subprocess
import sys

import numpy as np
import pytest

from delaris import cli
from delaris import power as powmod
from delaris import power_exact
from delaris import sweeps
from delaris.exceptions import ParameterError


def run_cli(*argv):
    return cli.main(list(argv))


def test_console_script_version():
    out = subprocess.run(
        [sys.executable, "-m", "delaris.cli", "--version"],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip().startswith("delaris ")


def test_strategy_exponential(tmp_path):
    out = tmp_path / "o"
    assert run_cli("strategy", "--out", str(out), "--t-points", "4") == 0
    lines = (out / "strategy.csv").read_text().splitlines()
    assert lines[0] == "t,q_hat,pi_amount,pi_fraction"
    assert len(lines) == 5
    first = [float(v) for v in lines[1].split(",")]
    assert first[1] == pytest.approx(0.2915107143288456, rel=1e-12)
    manifest = json.loads((out / "manifest_strategy.json").read_text())
    assert manifest["tool"] == "delaris"
    assert manifest["subcommand"] == "strategy"
    assert manifest["outputs"] == ["strategy.csv"]
    assert manifest["resolved_config"]["risk_aversion"]["points"] == [[0.5, 0.5], [0.9, 0.5]]


def test_strategy_power_writes_growth_factors(tmp_path):
    out = tmp_path / "o"
    code = run_cli("strategy", "--family", "power", "--case", "II",
                   "--out", str(out), "--t-points", "3", "--dt", "0.01")
    assert code == 0
    assert (out / "growth_factors.csv").exists()
    manifest = json.loads((out / "manifest_strategy.json").read_text())
    assert sorted(manifest["outputs"]) == ["growth_factors.csv", "strategy.csv"]


def test_strategy_power_factors_match_rk4(tmp_path):
    # the CLI writes the closed-form factors; RK4 at dt 1e-4 marches the same grid
    out = tmp_path / "o"
    assert run_cli("strategy", "--family", "power", "--case", "II", "--out", str(out)) == 0
    written = powmod.read_csv(out / "growth_factors.csv")
    rk4 = powmod.solve_growth_factors(sweeps.baseline_params("power", "II"), dt=1e-4)
    assert not written.exploded and np.array_equal(written.t, rk4.t)
    np.testing.assert_allclose(written.g, rk4.g, rtol=5e-14, atol=0.0)
    np.testing.assert_allclose(written.varpi, rk4.varpi, rtol=5e-14, atol=0.0)


def test_strategy_power_rows_are_the_closed_form_at_their_times(tmp_path):
    # 7 rows fall between the nodes of the default factor grid: they are the
    # closed form at exactly those times, not an interpolation of the grid
    out = tmp_path / "o"
    assert run_cli("strategy", "--family", "power", "--t-points", "7", "--out", str(out)) == 0
    rows = np.loadtxt(out / "strategy.csv", delimiter=",", skiprows=1)
    params = sweeps.baseline_params("power", "I")
    np.testing.assert_array_equal(rows[:, 0], np.linspace(0.0, params.horizon, 7))
    _, varpi = power_exact.factors(params, rows[:, 0])
    w = params.x0 + params.delay.beta * params.m1_0
    want = np.column_stack(powmod._controls(params, w, varpi))
    np.testing.assert_allclose(rows[:, 1:3], want, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(rows[:, 3], want[:, 1] / params.x0, rtol=1e-14, atol=0.0)


def test_config_round_trip(tmp_path):
    params = sweeps.baseline_params("power", "II")
    cfg_path = tmp_path / "model.json"
    cfg_path.write_text(json.dumps(cli.config_dict(params)))
    loaded = cli.load_config(str(cfg_path))
    assert loaded == params


def test_config_errors(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ParameterError, match="JSON"):
        cli.load_config(str(p))
    p.write_text(json.dumps({"horizon": 2.0}))
    with pytest.raises(ParameterError, match="missing config fields"):
        cli.load_config(str(p))
    good = cli.config_dict(sweeps.baseline_params("exponential", "I"))
    good["delay"]["alpha"] = "fast"
    p.write_text(json.dumps(good))
    with pytest.raises(ParameterError, match="delay.alpha"):
        cli.load_config(str(p))
    good["delay"]["alpha"] = 0.5
    good["extra"] = 1
    p.write_text(json.dumps(good))
    with pytest.raises(ParameterError, match="unknown config fields: extra"):
        cli.load_config(str(p))


def test_case_config_conflict(tmp_path, capsys):
    cfg = tmp_path / "m.json"
    cfg.write_text(json.dumps(cli.config_dict(sweeps.baseline_params("exponential", "I"))))
    assert run_cli("strategy", "--config", str(cfg), "--case", "II",
                   "--out", str(tmp_path / "x")) == 1
    assert "--case" in capsys.readouterr().err
    assert run_cli("strategy", "--case", "custom", "--out", str(tmp_path / "y")) == 1


def test_sweep_marks_invalid_rows(tmp_path):
    out = tmp_path / "o"
    # r above mu is rejected by validation, sweep must keep going
    assert run_cli("sweep", "--param", "r", "--points", "5",
                   "--lo", "0.1", "--hi", "0.3", "--out", str(out)) == 0
    rows = (out / "sweep_r.csv").read_text().splitlines()
    assert rows[0] == "param_value,q_hat_0,pi_0,valid,reason"
    parsed = [r.split(",", 4) for r in rows[1:]]
    flags = [p[3] for p in parsed]
    assert "true" in flags and "false" in flags
    bad = next(p for p in parsed if p[3] == "false")
    assert bad[1] == "" and "financial.mu" in bad[4]


def test_simulate_writes_estimate_and_paths(tmp_path):
    out = tmp_path / "o"
    code = run_cli("simulate", "--n-paths", "300", "--dt", "0.01",
                   "--seed", "5", "--paths-csv", "2", "--out", str(out))
    assert code == 0
    est = json.loads((out / "estimate.json").read_text())
    assert est["n_paths"] == 300
    assert set(est) == {"mean", "se", "n_paths", "excluded_paths", "per_gamma"}
    assert (out / "path_0.csv").exists() and (out / "path_1.csv").exists()
    manifest = json.loads((out / "manifest_simulate.json").read_text())
    assert manifest["options"]["seed"] == 5


def test_verify_pass_and_fault(tmp_path, capsys):
    out = tmp_path / "ok"
    assert run_cli("verify", "--check", "coefficients", "--out", str(out)) == 0
    rep = json.loads((out / "verify_report.json").read_text())
    assert rep["passed"] is True
    assert rep["checks"]["coefficients"]["passed"] is True
    capsys.readouterr()

    bad = tmp_path / "bad"
    assert run_cli("verify", "--check", "expectation", "--fault-kappa", "0.01",
                   "--out", str(bad)) == 2
    text = capsys.readouterr().out
    assert "FAIL expectation" in text
    rep = json.loads((bad / "verify_report.json").read_text())
    assert rep["passed"] is False
    assert rep["checks"]["expectation"]["max_scaled_residual"] > 1e-4

    bad = tmp_path / "bad_power"
    assert run_cli("verify", "--family", "power", "--check", "optimality",
                   "--fault-kappa", "0.01", "--out", str(bad)) == 2
    assert "FAIL optimality" in capsys.readouterr().out
    rep = json.loads((bad / "verify_report.json").read_text())
    assert rep["checks"]["optimality"]["max_scaled_sup_gap"] > 1e-4


def test_verify_power_skips_coefficient_check(tmp_path):
    out = tmp_path / "o"
    assert run_cli("verify", "--family", "power", "--check", "coefficients",
                   "--dt", "0.01", "--out", str(out)) == 0
    rep = json.loads((out / "verify_report.json").read_text())
    assert rep["checks"]["coefficients"]["skipped"] is True


@pytest.mark.parametrize("check", ["expectation", "optimality"])
def test_verify_reports_exploded_power_solution(tmp_path, capsys, check):
    # the factor solve explodes near t = 1.59; grid times before it must
    # fail their lookup instead of being moved onto the first valid node
    cfg = cli.config_dict(sweeps.baseline_params("power", "I"))
    cfg["risk_aversion"]["points"] = [[1e-4, 0.5], [0.9, 0.5]]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(cfg))
    assert run_cli("verify", "--config", str(path), "--check", check,
                   "--out", str(tmp_path / "o")) == 1
    assert "exploded" in capsys.readouterr().err


def test_verify_monotonicity_with_custom_horizon(tmp_path):
    # the check sweeps the bundled baselines, whatever the config's horizon
    cfg = cli.config_dict(sweeps.baseline_params("power", "I"))
    cfg["horizon"] = 3.0
    path = tmp_path / "model.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert run_cli("verify", "--config", str(path), "--check", "monotonicity",
                   "--points", "3", "--out", str(out)) == 0
    rep = json.loads((out / "verify_report.json").read_text())
    assert rep["checks"]["monotonicity"]["violations"] == []
    assert rep["checks"]["monotonicity"]["scope"] == "bundled baselines"


def test_reproduce_figures_and_manifest_reproducibility(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    argv = ["reproduce-figures", "--points", "3"]
    assert run_cli(*argv, "--out", str(out1)) == 0
    assert run_cli(*argv, "--out", str(out2)) == 0
    names = sorted(p.name for p in out1.glob("fig*.csv"))
    assert len(names) == 29
    assert "fig1_a.csv" in names and "fig6_f.csv" in names
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    m1 = json.loads((out1 / "manifest_reproduce-figures.json").read_text())
    m2 = json.loads((out2 / "manifest_reproduce-figures.json").read_text())
    m1.pop("created_utc"), m2.pop("created_utc")
    assert m1 == m2
    header = (out1 / "fig1_a.csv").read_text().splitlines()[0]
    assert header == "param_value,q_hat_0_case_I,q_hat_0_case_II,valid,reason"


@pytest.mark.parametrize("argv, flag", [
    (("verify", "--check", "monotonicity", "--points", "0"), "--points"),
    (("sweep", "--param", "r", "--points", "-1"), "--points"),
    (("reproduce-figures", "--points", "0"), "--points"),
    (("strategy", "--t-points", "0"), "--t-points"),
    (("strategy", "--t-points", "-2"), "--t-points"),
    (("simulate", "--paths-csv", "-1"), "--paths-csv"),
    (("verify", "--check", "monotonicity", "--points", "2"), "--points"),
])
def test_nonpositive_counts_rejected(tmp_path, capsys, argv, flag):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv, "--out", str(out))
    assert exc.value.code == 1
    assert f"argument {flag}: must be at least" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [
    ("--x", "0"), ("--x", "nan"), ("--x", "inf"), ("--x", "-inf"),
    ("--m1", "nan"), ("--m1", "inf"),
])
def test_strategy_rejects_bad_state(tmp_path, capsys, flag, value):
    # a zero --x would divide pi_fraction by zero; a non-finite state would
    # write NaN or inf rows
    out = tmp_path / "o"
    assert run_cli("strategy", f"{flag}={value}", "--out", str(out)) == 1
    assert f"error: {flag} " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (("verify", "--check", "expectation", "--fault-kappa", "nan"), "--fault-kappa"),
    (("verify", "--check", "expectation", "--fault-kappa", "inf"), "--fault-kappa"),
    (("sweep", "--param", "alpha", "--lo", "nan"), "--lo"),
    (("sweep", "--param", "alpha", "--lo=-inf"), "--lo"),
    (("sweep", "--param", "alpha", "--hi", "nan"), "--hi"),
    (("sweep", "--param", "alpha", "--hi", "inf"), "--hi"),
])
def test_nonfinite_float_options_rejected(tmp_path, capsys, argv, flag):
    # a NaN fault would fail verification as if it had found a fault, and a
    # NaN sweep bound would write a table of NaN rows
    out = tmp_path / "o"
    assert run_cli(*argv, "--out", str(out)) == 1
    assert f"error: {flag} must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_argparse_usage_error_exits_1():
    # sweeps and figures have no time step to choose, so --dt is unrecognized there
    for argv in (("sweep", "--param", "nope"), ("sweep", "--param", "r", "--dt", "0.01"),
                 ("reproduce-figures", "--dt", "0.04")):
        out = subprocess.run([sys.executable, "-m", "delaris.cli", *argv],
                             capture_output=True, text=True)
        assert out.returncode == 1, argv
