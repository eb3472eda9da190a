import json
import math
import os
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delaris import cli
from delaris import power as powmod
from delaris import simulation as sim
from delaris import sweeps
from delaris.exceptions import DomainError, ParameterError
from delaris.model import (
    DelayParams,
    FinancialParams,
    InsuranceParams,
    ModelParams,
    RiskAversionDist,
)


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
    _, varpi = powmod.factors(params, rows[:, 0])
    w = params.x0 + params.delay.beta * params.m1_0
    want = np.column_stack(powmod._controls(params, w, varpi))
    np.testing.assert_allclose(rows[:, 1:3], want, rtol=1e-14, atol=0.0)
    np.testing.assert_allclose(rows[:, 3], want[:, 1] / params.x0, rtol=1e-14, atol=0.0)


def test_nine_atom_power_model(tmp_path):
    # past 8 atoms numpy sums a trailing axis in another order than a leading
    # one; strategy and both grid checks run warning-free, and the written
    # factors read back bit for bit
    cfg = cli.config_dict(sweeps.baseline_params("power", "I"))
    cfg["risk_aversion"]["points"] = [
        [0.15, 0.05], [0.25, 0.1], [0.35, 0.1], [0.45, 0.15], [0.55, 0.2],
        [0.65, 0.15], [0.75, 0.1], [0.85, 0.1], [0.95, 0.05]]
    path = tmp_path / "nine.json"
    path.write_text(json.dumps(cfg))
    for i, argv in enumerate([("strategy",), ("verify", "--check", "expectation"),
                              ("verify", "--check", "optimality")]):
        assert run_cli(*argv, "--config", str(path), "--out", str(tmp_path / str(i))) == 0
    written = powmod.read_csv(tmp_path / "0" / "growth_factors.csv")
    want = powmod.growth_factors(cli.load_config(str(path)))
    for field in ("t", "g", "varpi"):
        np.testing.assert_array_equal(getattr(written, field), getattr(want, field))
    for field in ("gammas", "probs", "dt", "horizon", "exploded", "explosion_time"):
        assert getattr(written, field) == getattr(want, field)


def test_config_round_trip(tmp_path):
    params = sweeps.baseline_params("power", "II")
    cfg_path = tmp_path / "model.json"
    cfg_path.write_text(json.dumps(cli.config_dict(params)))
    loaded = cli.load_config(str(cfg_path))
    assert loaded == params


@st.composite
def _models(draw):
    """A random valid model of either family."""
    num = lambda lo, hi: draw(st.floats(lo, hi))
    family = draw(st.sampled_from(["exponential", "power"]))
    eta1 = num(0.01, 2.0)
    eta2 = eta1 if family == "power" else num(eta1, 3.0)
    r = num(0.001, 0.5)
    lo, hi = (1e-3, 10.0) if family == "exponential" else (1e-4, 0.99)
    gammas = draw(st.lists(st.floats(lo, hi), min_size=1, max_size=4, unique=True))
    weights = [num(0.01, 1.0) for _ in gammas]
    total = math.fsum(weights)
    return ModelParams.build(
        insurance=InsuranceParams(lambda1=num(0.01, 10.0), mu1=num(0.01, 10.0),
                                  mu2=num(0.01, 10.0), eta1=eta1, eta2=eta2),
        financial=FinancialParams(r=r, mu=num(r, 2.0), sigma=num(0.01, 2.0)),
        delay=DelayParams(alpha=num(0.0, 5.0), beta=num(0.0, 2.0), h=num(0.01, 5.0)),
        dist=RiskAversionDist(family, tuple((g, w / total) for g, w in zip(gammas, weights))),
        horizon=num(0.1, 5.0),
        x0=num(0.01, 5.0) if family == "power" else num(-5.0, 5.0),
    )


@settings(max_examples=200, deadline=None)
@given(params=_models())
def test_config_round_trip_property(tmp_path_factory, params):
    # the manifest's resolved_config rebuilds the model it records, bit for bit
    path = tmp_path_factory.mktemp("config") / "model.json"
    path.write_text(json.dumps(cli.config_dict(params)))
    assert cli.load_config(str(path)) == params


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


def test_overflowing_coefficient_config_rejected(tmp_path, capsys):
    # b = sqrt(lambda1*mu2) overflows: the model was built with q_hat 0
    good = cli.config_dict(sweeps.baseline_params("exponential", "I"))
    good["insurance"] |= {"lambda1": 1e200, "mu1": 1e-200, "mu2": 1e200}
    cfg = tmp_path / "m.json"
    cfg.write_text(json.dumps(good))
    assert run_cli("strategy", "--config", str(cfg), "--out", str(tmp_path / "o")) == 1
    assert "insurance.lambda1 and insurance.mu2" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("family, fields", [
    ("exponential", {"delay": {"alpha": 0.0, "h": 1e300}, "x0": 1e10}),
    ("power", {"delay": {"alpha": 0.0, "beta": 1e10, "h": 1e300}, "x0": 1.0})],
    ids=["m1_0", "beta*m1_0"])
@pytest.mark.parametrize("command", ["strategy", "simulate"])
def test_overflowing_initial_memory_config_rejected(tmp_path, capsys, family, fields, command):
    # x0*h overflows m1_0, or beta*m1_0 overflows w0: the model was built
    # with w0 = inf, and simulate exited 1 with "only 0 usable paths"
    config = cli.config_dict(sweeps.baseline_params(family, "I"))
    config["delay"] |= fields["delay"]
    config["x0"] = fields["x0"]
    cfg = tmp_path / "m.json"
    cfg.write_text(json.dumps(config))
    assert run_cli(command, "--config", str(cfg), "--out", str(tmp_path / "o")) == 1
    err = capsys.readouterr().err
    assert "x0" in err and "delay.h" in err and "delay.beta" in err
    assert not (tmp_path / "o").exists()


def test_monte_carlo_runs_leave_no_thread(tmp_path, monkeypatch, capsys):
    # 100 paths are four seeding blocks, shared out to two workers; a run
    # that fails inside the second worker's block exits 1 all the same
    path_rngs, started = sim.path_rngs, threading.active_count()
    monkeypatch.setattr(sim, "_max_workers", lambda: 2)
    argv = ("simulate", "--family", "power", "--n-paths", "100", "--dt", "0.01")
    assert run_cli(*argv, "--out", str(tmp_path / "pass")) == 0
    assert threading.active_count() == started

    def failing(seed, indices):
        for i, rng in zip(indices, path_rngs(seed, indices)):
            if i == 70:
                raise DomainError("path 70 failed")
            yield rng

    monkeypatch.setattr(sim, "path_rngs", failing)
    assert run_cli(*argv, "--out", str(tmp_path / "fail")) == 1
    assert "path 70 failed" in capsys.readouterr().err
    assert threading.active_count() == started


# the address space a million-step run fits: streaming each path through
# one (N, 2) row, `simulate --n-paths 64 --dt 2e-6` reads VmPeak 316 MB
# (exponential) and 324 MB (power) on two workers, where one (32, N, 2)
# block of draws per worker read 684 MB on one worker and 1258 MB on two
_FINE_DT_ADDRESS_SPACE = 512 * 2**20


@pytest.mark.parametrize("family", ["exponential", "power"])
def test_fine_dt_run_fits_a_fixed_address_space(tmp_path, family):
    # in a child under RLIMIT_AS, with one BLAS thread so that the cap does
    # not depend on the CPU count; block draws exit 3 here on any number of
    # workers, "Unable to allocate 488. MiB"
    code = ("import resource, sys\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({_FINE_DT_ADDRESS_SPACE},) * 2)\n"
            "from delaris import cli\n"
            "sys.exit(cli.main(sys.argv[1:]))")
    out = subprocess.run([sys.executable, "-c", code, "simulate", "--family", family,
                          "--n-paths", "64", "--dt", "2e-6", "--out", str(tmp_path)],
                         env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


@pytest.mark.parametrize("dt", ["1e-300", "5e-324"])
@pytest.mark.parametrize("argv", [("simulate",), ("strategy", "--family", "power"),
                                  ("verify", "--check", "feynman-kac")],
                         ids=["simulate", "strategy-power", "verify-fk"])
def test_dt_too_small_for_any_array(tmp_path, capsys, argv, dt):
    # span/dt is 2e300 steps, or inf at the smallest subnormal: rounding it
    # raised OverflowError, or numpy could not size the array, and both
    # exited 3 as unexpected errors
    out = tmp_path / "o"
    assert run_cli(*argv, "--dt", dt, "--out", str(out)) == 1
    assert f"error: dt={float(dt)} is too small" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("argv, field", [
    (("--param", "sigma", "--lo", "1e-300", "--points", "3"), "financial.sigma"),
    (("--family", "power", "--param", "mu1", "--lo", "1e300", "--hi", "1e300", "--points", "1"),
     "insurance.mu1"),
    (("--family", "power", "--param", "mu2", "--lo", "1e-320", "--hi", "1e-320", "--points", "1"),
     "insurance.mu2"),
], ids=["sigma", "mu1", "mu2"])
def test_nonfinite_g2_sweep_point_is_invalid(tmp_path, capsys, argv, field):
    out = tmp_path / "o"
    assert run_cli("sweep", *argv, "--out", str(out)) == 0
    param = argv[argv.index("--param") + 1]
    first = (out / f"sweep_{param}.csv").read_text().splitlines()[1].split(",", 4)
    assert first[3] == "false" and "G2 is not finite" in first[4] and field in first[4]
    cfg = cli.config_dict(sweeps.baseline_params())
    cfg["financial"]["sigma"] = 1e-300
    (tmp_path / "m.json").write_text(json.dumps(cfg))
    assert run_cli("strategy", "--config", str(tmp_path / "m.json"),
                   "--out", str(tmp_path / "c")) == 1
    assert "financial.sigma" in capsys.readouterr().err


@pytest.mark.parametrize("family", ["exponential", "power"])
def test_memory_past_the_float_range_of_its_decay(tmp_path, family):
    # exp(-alpha*h) underflows to 0 past alpha*h of about 745: at alpha = 400
    # and h = 2, and at the sweeps' alpha = 400 and h = 2000 ends, the delay
    # constants divided by it and every command exited 3
    cfg = cli.config_dict(sweeps.baseline_params(family, "I"))
    cfg["delay"]["alpha"] = 400.0
    (tmp_path / "m.json").write_text(json.dumps(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_cli("strategy", "--config", str(tmp_path / "m.json"),
                       "--out", str(tmp_path / "s")) == 0
        for param, lo, hi in (("alpha", "0.05", "400"), ("h", "0.25", "2000")):
            out = tmp_path / param
            assert run_cli("sweep", "--family", family, "--param", param, "--lo", lo, "--hi", hi,
                           "--points", "3", "--out", str(out)) == 0
            rows = [r.split(",") for r in (out / f"sweep_{param}.csv").read_text().splitlines()[1:]]
            assert [r[3] for r in rows] == ["true"] * 3


@pytest.mark.parametrize("lo, hi, points", [("1e153", "4e153", "2"), ("7e153", "7e153", "1")],
                         ids=["g2-near-float-max", "g2-tau-overflows"])
def test_power_sweep_at_the_float_range_of_g2(tmp_path, lo, hi, points):
    # G2 = 4.4e307 at mu = 4e153 overflowed the panel range, and at mu = 7e153
    # G2*T itself overflows: every row is valid at varpi(0) = gamma_min,
    # psi's limit, with no floating-point warning
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("sweep", "--family", "power", "--param", "mu", "--lo", lo, "--hi", hi,
                       "--points", points, "--out", str(out)) == 0
    rows = [r.split(",") for r in (out / "sweep_mu.csv").read_text().splitlines()[1:]]
    assert [r[3] for r in rows] == ["true"] * int(points)
    assert [r[1] for r in rows] == ["0.19137817005891405"] * int(points)


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


@pytest.mark.parametrize("family", ["exponential", "power"])
def test_unrecorded_runs_need_no_delay_grid(tmp_path, capsys, family):
    # h = 1/3 is no multiple of the default dt: the Monte Carlo and the
    # Feynman-Kac check never read the memory window, a recorded path does
    cfg = cli.config_dict(sweeps.baseline_params(family, "I"))
    cfg["delay"]["h"] = 1.0 / 3.0
    path = tmp_path / "model.json"
    path.write_text(json.dumps(cfg))
    common = ("--config", str(path), "--n-paths", "200")
    assert run_cli("simulate", *common, "--out", str(tmp_path / "s")) == 0
    assert run_cli("verify", "--check", "feynman-kac", *common, "--out", str(tmp_path / "v")) == 0
    capsys.readouterr()
    out = tmp_path / "p"
    assert run_cli("simulate", *common, "--paths-csv", "1", "--out", str(out)) == 1
    assert "must divide delay.h" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("argv", [
    ("verify", "--check", "expectation"), ("verify", "--check", "optimality"),
    ("verify", "--check", "feynman-kac", "--n-paths", "100"), ("strategy",),
    ("simulate", "--n-paths", "10"), ("simulate", "--n-paths", "10", "--dt", "0.2"),
], ids=["expectation", "optimality", "feynman-kac", "strategy", "simulate", "simulate-dt0.2"])
def test_verify_reports_exploded_power_solution(tmp_path, capsys, argv):
    # the factors explode near t = 1.59; every command reads them at its own
    # times, fails before the explosion and names the model's explosion time
    cfg = cli.config_dict(sweeps.baseline_params("power", "I"))
    cfg["risk_aversion"]["points"] = [[1e-4, 0.5], [0.9, 0.5]]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(cfg))
    assert run_cli(*argv, "--config", str(path), "--out", str(tmp_path / "o")) == 1
    when = powmod.growth_factors(cli.load_config(str(path))).explosion_time
    assert 1.59 < when < 1.6
    assert (f"error: power growth factors exploded at t={when}: a factor leaves (0, inf) "
            "before it\n") == capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [("strategy",), ("simulate", "--n-paths", "10")])
def test_exploded_power_model_writes_nothing(tmp_path, capsys, argv):
    # the same exploding model: strategy and simulate reject it before
    # --out exists, so no growth_factors.csv or estimate is left behind
    cfg = cli.config_dict(sweeps.baseline_params("power", "I"))
    cfg["risk_aversion"]["points"] = [[1e-4, 0.5], [0.9, 0.5]]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert run_cli(*argv, "--config", str(path), "--out", str(out)) == 1
    assert "exploded" in capsys.readouterr().err
    assert not out.exists()


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
    ("--x", "0"), ("--x", "1e-309"), ("--x", "nan"), ("--x", "inf"), ("--x", "-inf"),
    ("--m1", "nan"), ("--m1", "inf"),
])
def test_strategy_rejects_bad_state(tmp_path, capsys, flag, value):
    # pi_fraction divides by --x: a zero or subnormal --x would make it
    # infinite; a non-finite state would write NaN or inf rows
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
