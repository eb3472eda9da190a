"""Benchmark workloads: the CLI operations each one issues, and the checks
that decide whether an operation's output is correct.

Every operation is ``delaris.cli.main(argv + ["--seed", seed, "--out", dir])``
with a fresh output directory. Expected values come from ``refmodel.py``
(exponential closed forms) and ``reference.json`` (power factors and
figure columns, frozen by ``make_reference.py``), never from the package
under test. The one exception is reading the growth CSV back, which must go
through ``delaris.power.read_csv``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import refmodel as R

REFERENCE = json.loads(Path(__file__).with_name("reference.json").read_text())

# Relative tolerance on power controls and figure columns. RK4 at
# dt = T/2000 on the baselines is within 1e-14 of the reference (RK4 at
# T/20 is within 1e-10), so 1e-11 is met by any solver at least that
# accurate with three orders of margin for rounding.
POWER_RTOL = 1e-11
EXP_RTOL = 1e-12
# weak-order-one allowance of the Monte Carlo band: 3*SE + FK_DT*dt*|ref|
FK_DT = 0.5


class WrongOutput(Exception):
    """An operation exited as expected but its output is wrong."""


def expect(ok, message):
    if not ok:
        raise WrongOutput(message)


def expect_close(got, want, rtol, what):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    expect(got.shape == want.shape, f"{what}: shape {got.shape}, expected {want.shape}")
    err = np.abs(got - want) / np.maximum(np.abs(want), 1e-300)
    expect(np.all(err <= rtol), f"{what}: relative error {np.max(err):.3g} > {rtol:g}")


def expect_mc(mean, se, ref, dt, what):
    """Monte Carlo mean within 3*SE + FK_DT*dt*|ref| of ``ref``. ``dt`` is
    the step the benchmark expects, so a coarser step does not widen the band."""
    band = 3.0 * se + FK_DT * dt * abs(ref)
    expect(abs(mean - ref) <= band, f"{what}: |{mean} - {ref}| > {band}")


def read_table(path: Path) -> dict[str, list[str]]:
    with path.open(newline="") as f:
        rows = list(csv.reader(f))
    expect(len(rows) >= 2, f"{path.name}: no data rows")
    header, body = rows[0], rows[1:]
    expect(all(len(r) == len(header) for r in body), f"{path.name}: ragged rows")
    return {name: [r[k] for r in body] for k, name in enumerate(header)}


def floats(cells) -> np.ndarray:
    return np.array([float(c) for c in cells])


def check_manifest(out: Path, subcommand: str):
    manifest = json.loads((out / f"manifest_{subcommand}.json").read_text())
    expect(manifest["subcommand"] == subcommand, "manifest names another subcommand")
    files = sorted(p.name for p in out.iterdir() if not p.name.startswith("manifest_"))
    expect(manifest["outputs"] == files, f"manifest outputs {manifest['outputs']} != {files}")


def verify_report(out: Path, checks: tuple[str, ...], passed: bool = True) -> dict:
    report = json.loads((out / "verify_report.json").read_text())
    expect(sorted(report["checks"]) == sorted(checks), f"report checks {sorted(report['checks'])}")
    expect(report["passed"] is passed, f"report passed={report['passed']}, expected {passed}")
    if passed:
        for name, c in report["checks"].items():
            expect(c["passed"] is True, f"check {name} failed")
    return report


# ------------------------------------------------------------ exponential

EXP_I = R.baseline("exponential", "I")
SIM_PATHS = 4000
SIM_PATH_FILES = 2
EXP_FK_PATHS = 8000
FK_DT_DEFAULT = 2.0 / 1000  # verify's default Feynman-Kac step, T/1000


def check_exp_simulate(out: Path):
    m = EXP_I
    n_steps = 2000  # the simulate default dt = T/2000
    dt = m["horizon"] / n_steps
    est = json.loads((out / "estimate.json").read_text())
    expect(est["n_paths"] == SIM_PATHS and est["excluded_paths"] == 0, "estimate path counts")
    expect_mc(est["mean"], est["se"], R.exp_value(m), dt, "aggregate certainty equivalent")
    expect([pg["gamma"] for pg in est["per_gamma"]] == list(m["gammas"]), "estimate gammas")
    for pg in est["per_gamma"]:
        expect_mc(pg["y_mean"], pg["y_se"], R.exp_expected_utility(m, pg["gamma"]), dt,
                  f"E[u] at gamma={pg['gamma']}")
    t_ref = np.arange(n_steps + 1) * dt
    q_ref, pi_ref = R.exp_controls(m, t_ref)
    for i in range(SIM_PATH_FILES):
        cols = read_table(out / f"path_{i}.csv")
        expect(list(cols) == ["t", "X", "M1", "M2", "q", "pi_amount"], f"path_{i} header")
        data = {k: floats(v) for k, v in cols.items()}
        expect(all(np.all(np.isfinite(v)) for v in data.values()), f"path_{i}: non-finite")
        expect(np.max(np.abs(data["t"] - t_ref)) <= 1e-12, f"path_{i}: time grid")
        expect_close(data["q"], q_ref, EXP_RTOL, f"path_{i} q")
        expect_close(data["pi_amount"], pi_ref, EXP_RTOL, f"path_{i} pi_amount")
        expect_close(data["X"][0], m["x0"], EXP_RTOL, f"path_{i} X(0)")
        expect_close(data["M1"][0], R.m1_0(m), EXP_RTOL, f"path_{i} M1(0)")
    check_manifest(out, "simulate")


def check_exp_verify_all(out: Path):
    report = verify_report(out, ("expectation", "optimality", "coefficients",
                                 "feynman-kac", "monotonicity"))
    fk = report["checks"]["feynman-kac"]
    expect(fk["n_paths"] == EXP_FK_PATHS and fk["dt"] == FK_DT_DEFAULT, "feynman-kac paths/dt")
    for r in fk["per_gamma"]:
        expect_mc(r["mc_mean"], r["mc_se"], R.exp_expected_utility(EXP_I, r["gamma"]),
                  FK_DT_DEFAULT, f"feynman-kac gamma={r['gamma']}")
    check_manifest(out, "verify")


# ------------------------------------------------------------ power

POW_I = R.baseline("power", "I")
POW_REF = REFERENCE["power_case_I"]
POW_FK_PATHS = 5000


def check_power_strategy(out: Path):
    from delaris import power  # the growth CSV must read back through the package

    m = POW_I
    x0, w = m["x0"], R.w0(m)
    varpi = np.array(POW_REF["varpi"])
    cq, cpi = R.control_coeffs(m, 1.0)
    cols = read_table(out / "strategy.csv")
    expect(list(cols) == ["t", "q_hat", "pi_amount", "pi_fraction"], "strategy.csv header")
    expect_close(floats(cols["t"]), POW_REF["t"], EXP_RTOL, "strategy t")
    expect_close(floats(cols["q_hat"]), cq * w / varpi, POWER_RTOL, "strategy q_hat")
    expect_close(floats(cols["pi_amount"]), cpi * w / varpi, POWER_RTOL, "strategy pi_amount")
    expect_close(floats(cols["pi_fraction"]), cpi * w / varpi / x0, POWER_RTOL,
                 "strategy pi_fraction")

    sol = power.read_csv(out / "growth_factors.csv")
    expect(not sol.exploded and sol.t[0] == 0.0 and sol.t[-1] == m["horizon"],
           "growth factors: grid must span [0, T] without explosion")
    expect(bool(np.all(np.diff(sol.t) > 0)), "growth factors: time not ascending")
    expect_close(sol.gammas, m["gammas"], 1e-6, "growth factor gammas")
    expect_close(sol.probs, m["probs"], EXP_RTOL, "growth factor probs")
    expect_close(sol.g[-1], [1.0] * len(m["gammas"]), EXP_RTOL, "g(T)")
    expect_close(sol.g[0], POW_REF["g0"], POWER_RTOL, "g(0)")
    right = np.searchsorted(sol.t, POW_REF["t"]).clip(1, len(sol.t) - 1)
    nearer = np.abs(sol.t[right - 1] - POW_REF["t"]) < np.abs(sol.t[right] - POW_REF["t"])
    nodes = right - nearer
    on_grid = np.abs(sol.t[nodes] - POW_REF["t"]) <= 1e-12
    expect(on_grid[0] and on_grid[-1], "growth factors: t = 0 and t = T not on the grid")
    expect_close(sol.varpi[nodes[on_grid]], varpi[on_grid], POWER_RTOL, "growth varpi")
    check_manifest(out, "strategy")


def power_verify_check(name: str) -> Callable[[Path], None]:
    def check(out: Path):
        report = verify_report(out, (name,))
        if name == "feynman-kac":
            fk = report["checks"][name]
            expect(fk["n_paths"] == POW_FK_PATHS and fk["dt"] == FK_DT_DEFAULT,
                   "feynman-kac paths/dt")
            for i, r in enumerate(fk["per_gamma"]):
                ref = R.power_expected_utility(POW_I, POW_REF["g0"][i], i)
                expect_mc(r["mc_mean"], r["mc_se"], ref, FK_DT_DEFAULT,
                          f"feynman-kac gamma={r['gamma']}")
        check_manifest(out, "verify")

    return check


def check_fault_detected(out: Path):
    report = verify_report(out, ("expectation",), passed=False)
    expect(report["fault_kappa"] == 0.01, "fault size not recorded")
    expect(report["checks"]["expectation"]["passed"] is False, "fault not detected")
    check_manifest(out, "verify")


# ------------------------------------------------------------ figures

FIGURES = REFERENCE["figures"]


def check_figures(out: Path):
    files = FIGURES["files"]
    expect(sorted(p.stem for p in out.glob("*.csv")) == sorted(files), "figure file set")
    for stem, ref_cols in files.items():
        cols = read_table(out / f"{stem}.csv")
        expect(list(cols) == [*ref_cols, "valid", "reason"], f"{stem} header")
        expect(all(v == "true" for v in cols["valid"]), f"{stem}: invalid rows")
        expect(not any(cols["reason"]), f"{stem}: rows carry a reason")
        for name, ref in ref_cols.items():
            expect_close(floats(cols[name]), ref, POWER_RTOL, f"{stem} {name}")
    check_manifest(out, "reproduce-figures")


# ------------------------------------------------------------ workloads

@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    check: Callable[[Path], None]
    exit_code: int = 0

    @property
    def subcommand(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    name: str
    notes: str
    ops: tuple[Op, ...]


_PV = ("verify", "--family", "power", "--check")
WORKLOADS = {w.name: w for w in (
    Workload(
        "mc-exp",
        "simulate at 4000 paths fills one 2048-path chunk, so the (n_steps, 2048, 2) "
        "noise buffer sets the peak RSS",
        (
            Op(("simulate", "--family", "exponential", "--n-paths", str(SIM_PATHS),
                "--paths-csv", str(SIM_PATH_FILES)), check_exp_simulate),
            Op(("verify", "--family", "exponential", "--check", "all",
                "--n-paths", str(EXP_FK_PATHS)), check_exp_verify_all),
        ),
    ),
    Workload(
        "power-verify",
        "the fault operation is expectation with --fault-kappa 0.01 and must exit 2; "
        "feynman-kac with the same fault exits 0 at the seed commit, so it is not "
        "used as the fault operation",
        (
            Op(("strategy", "--family", "power"), check_power_strategy),
            Op((*_PV, "expectation"), power_verify_check("expectation")),
            Op((*_PV, "optimality"), power_verify_check("optimality")),
            Op((*_PV, "feynman-kac", "--n-paths", str(POW_FK_PATHS)),
               power_verify_check("feynman-kac")),
            Op((*_PV, "expectation", "--fault-kappa", "0.01"), check_fault_detected, exit_code=2),
        ),
    ),
    Workload(
        "figures",
        f"reproduce-figures at --points {FIGURES['points']}: 29 panels from 24 sweeps, 18 of "
        "them power sweeps that solve the factor system at every point",
        (Op(("reproduce-figures", "--points", str(FIGURES["points"])), check_figures),),
    ),
)}
