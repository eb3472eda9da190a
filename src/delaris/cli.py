"""Command-line front end.

Subcommands
    strategy            tabulate the equilibrium controls over time
    sweep               sweep one model parameter, tabulate time-zero controls
    simulate            Monte Carlo of the delayed wealth dynamics
    verify              run analytic/numeric consistency checks
    reproduce-figures   regenerate every bundled figure data file

Every run writes its outputs plus a ``manifest_<subcommand>.json`` recording
the resolved configuration and options: re-running with the same manifest
inputs reproduces the outputs byte for byte (timestamp aside).

Exit codes: 0 success, 1 invalid input or configuration, 2 a verification
check failed, 3 unexpected runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from . import exponential as expmod
from . import power as powmod
from . import power_exact
from . import simulation as sim
from . import sweeps as swp
from . import verification as ver
from .exceptions import DelarisError, DomainError, ParameterError
from .model import (
    DelayParams,
    FinancialParams,
    InsuranceParams,
    ModelParams,
    RiskAversionDist,
)
from .utility import EXPONENTIAL, FAMILIES

CHECKS = ("expectation", "optimality", "coefficients", "feynman-kac", "monotonicity", "all")

_CONFIG_SECTIONS = {
    "insurance": ("lambda1", "mu1", "mu2", "eta1", "eta2"),
    "financial": ("r", "mu", "sigma"),
    "delay": ("alpha", "beta", "h"),
}


# ------------------------------------------------------------- config

def _number(raw, path):
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ParameterError(f"config field {path} must be a number, got {raw!r}")
    return float(raw)


def load_config(path: str) -> ModelParams:
    """Parse and validate a JSON model configuration."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as err:
        raise ParameterError(f"cannot read config {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ParameterError(f"config {path} is not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise ParameterError("config root must be a JSON object")

    expected_root = set(_CONFIG_SECTIONS) | {"risk_aversion", "horizon", "x0"}
    unknown = sorted(set(raw) - expected_root)
    if unknown:
        raise ParameterError(f"unknown config fields: {', '.join(unknown)}")
    missing = sorted(expected_root - set(raw))
    if missing:
        raise ParameterError(f"missing config fields: {', '.join(missing)}")

    sections = {}
    for name, keys in _CONFIG_SECTIONS.items():
        block = raw[name]
        if not isinstance(block, dict):
            raise ParameterError(f"config field {name} must be an object")
        unknown = sorted(set(block) - set(keys))
        if unknown:
            raise ParameterError(
                f"unknown config fields: {', '.join(f'{name}.{u}' for u in unknown)}"
            )
        vals = {}
        for key in keys:
            if key not in block:
                raise ParameterError(f"missing config field {name}.{key}")
            vals[key] = _number(block[key], f"{name}.{key}")
        sections[name] = vals

    ra = raw["risk_aversion"]
    if not isinstance(ra, dict):
        raise ParameterError("config field risk_aversion must be an object")
    unknown = sorted(set(ra) - {"family", "points"})
    if unknown:
        raise ParameterError(
            f"unknown config fields: {', '.join(f'risk_aversion.{u}' for u in unknown)}"
        )
    family = ra.get("family")
    if family not in FAMILIES:
        raise ParameterError(
            f"config field risk_aversion.family must be one of {FAMILIES}, got {family!r}"
        )
    pts = ra.get("points")
    if not isinstance(pts, list) or not pts:
        raise ParameterError("config field risk_aversion.points must be a non-empty list")
    points = []
    for i, pair in enumerate(pts):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ParameterError(
                f"config field risk_aversion.points[{i}] must be a [gamma, p] pair"
            )
        points.append((
            _number(pair[0], f"risk_aversion.points[{i}][0]"),
            _number(pair[1], f"risk_aversion.points[{i}][1]"),
        ))

    return ModelParams.build(
        insurance=InsuranceParams(**sections["insurance"]),
        financial=FinancialParams(**sections["financial"]),
        delay=DelayParams(**sections["delay"]),
        dist=RiskAversionDist(family=family, points=tuple(points)),
        horizon=_number(raw["horizon"], "horizon"),
        x0=_number(raw["x0"], "x0"),
    )


def config_dict(params: ModelParams) -> dict:
    """The JSON-config form of a resolved model (round-trips via load_config)."""
    ins, fin, d = params.insurance, params.financial, params.delay
    return {
        "insurance": {"lambda1": ins.lambda1, "mu1": ins.mu1, "mu2": ins.mu2,
                      "eta1": ins.eta1, "eta2": ins.eta2},
        "financial": {"r": fin.r, "mu": fin.mu, "sigma": fin.sigma},
        "delay": {"alpha": d.alpha, "beta": d.beta, "h": d.h},
        "risk_aversion": {
            "family": params.dist.family,
            "points": [[g, p] for g, p in params.dist.points],
        },
        "horizon": params.horizon,
        "x0": params.x0,
    }


def resolve_params(args) -> tuple[ModelParams, str]:
    """Model from --config/--family/--case; returns (params, case label)."""
    if args.config is not None:
        if args.case not in (None, "custom"):
            raise ParameterError(
                "--case presets conflict with --config; omit --case or pass custom"
            )
        return load_config(args.config), "custom"
    case = args.case or "I"
    if case == "custom":
        raise ParameterError("--case custom requires --config")
    family = args.family or EXPONENTIAL
    return swp.baseline_params(family, case), case


# ------------------------------------------------------------- outputs

def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_manifest(out: Path, subcommand: str, params: ModelParams,
                   options: dict, outputs: list[str]) -> Path:
    manifest = {
        "tool": "delaris",
        "version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "subcommand": subcommand,
        "options": options,
        "resolved_config": config_dict(params),
        "outputs": sorted(outputs),
    }
    path = out / f"manifest_{subcommand}.json"
    _write_json(path, manifest)
    return path


def _write_table(path: Path, values, columns: dict, valid, reasons) -> None:
    """A sweep table: param_value, the columns, valid, reason. Floats are
    written with repr; the columns of an invalid row are left blank."""
    with path.open("w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["param_value", *columns, "valid", "reason"])
        for k, ok in enumerate(valid):
            cells = [repr(float(col[k])) if ok else "" for col in columns.values()]
            w.writerow([repr(float(values[k])), *cells, "true" if ok else "false", reasons[k]])


# ------------------------------------------------------------- commands

def _require_finite(*flags) -> None:
    """Reject a set (not None) float option that is NaN or infinite."""
    for flag, v in flags:
        if v is not None and not math.isfinite(v):
            raise ParameterError(f"{flag} must be finite, got {v}")


def cmd_strategy(args) -> int:
    params, case = resolve_params(args)
    x = params.x0 if args.x is None else args.x
    m1 = params.m1_0 if args.m1 is None else args.m1
    _require_finite(("--x", x), ("--m1", m1))
    if x == 0.0:
        raise ParameterError("--x (default x0) must be nonzero: pi_fraction divides by it")
    out = _out_dir(args)
    t_vals = np.linspace(0.0, params.horizon, args.t_points)
    outputs = ["strategy.csv"]

    if params.dist.family == EXPONENTIAL:
        q, amount = np.array([expmod.strategy(params, float(t)) for t in t_vals]).T
    else:
        powmod.write_csv(power_exact.growth_factors(params, args.dt), out / "growth_factors.csv")
        outputs.append("growth_factors.csv")
        w = powmod._effective_wealth(params, x, m1, "strategy")
        q, amount = powmod._controls(params, w, power_exact.factors(params, t_vals)[1])

    with (out / "strategy.csv").open("w") as f:
        f.write("t,q_hat,pi_amount,pi_fraction\n")
        for row in zip(t_vals, q, amount, amount / x):
            f.write(",".join(repr(float(v)) for v in row) + "\n")

    write_manifest(out, "strategy", params, {
        "case": case, "t_points": args.t_points, "x": x, "m1": m1, "dt": args.dt,
    }, outputs)
    print(f"wrote {out / 'strategy.csv'} ({len(t_vals)} rows)")
    return 0


def cmd_sweep(args) -> int:
    params, case = resolve_params(args)
    _require_finite(("--lo", args.lo), ("--hi", args.hi))
    out = _out_dir(args)
    result = swp.run_sweep(params, case, args.param, points=args.points, lo=args.lo, hi=args.hi)
    name = f"sweep_{args.param}.csv"
    _write_table(out / name, result.values, {"q_hat_0": result.q0, "pi_0": result.pi0},
                 result.valid, result.reasons)
    n_bad = int((~result.valid).sum())
    write_manifest(out, "sweep", params, {
        "case": case, "param": args.param, "points": args.points,
        "lo": args.lo, "hi": args.hi,
    }, [name])
    print(f"wrote {out / name} ({len(result.values)} points, {n_bad} invalid)")
    return 0


def cmd_simulate(args) -> int:
    params, case = resolve_params(args)
    out = _out_dir(args)
    dt = args.dt if args.dt is not None else params.horizon / 2000
    n_paths = args.n_paths if args.n_paths is not None else 10000
    cfg = sim.SimConfig(dt=dt, n_paths=n_paths, seed=args.seed, strategy=params.dist.family)

    outputs = ["estimate.json"]
    est = sim.mc_reward(params, cfg)
    sim.write_estimate_json(est, out / "estimate.json")
    for i in range(args.paths_csv):
        path = sim.simulate_path(params, cfg, path_index=i)
        sim.write_path_csv(path, out / f"path_{i}.csv")
        outputs.append(f"path_{i}.csv")

    write_manifest(out, "simulate", params, {
        "case": case, "dt": dt, "n_paths": n_paths, "seed": args.seed,
        "paths_csv": args.paths_csv,
    }, outputs)
    print(f"J = {est.mean:.6f} +/- {est.se:.6f} "
          f"({est.n_paths} paths, {est.excluded_paths} excluded)")
    return 0


def _verify_checks(params, args):
    """Run the requested checks; returns the checks dict, one entry per
    check with its measured numbers and ``passed``."""
    horizon = params.horizon
    which = args.check
    want = lambda name: which in (name, "all")
    power = params.dist.family != EXPONENTIAL

    if args.fault_kappa:
        params = ver.perturb_constants(params, "kappa", args.fault_kappa)

    t_vals = np.linspace(0.0, horizon, 10)
    x_vals = np.linspace(0.2, 1.2, 10)
    m1_vals = np.linspace(0.3, 1.2, 10)

    checks = {}
    if want("expectation"):
        grid = ver.expectation_pde_residual(params, t_vals, x_vals, m1_vals, m2=params.x0)
        checks["expectation"] = {
            "passed": bool(grid.max_scaled <= 1e-6),
            "max_scaled_residual": grid.max_scaled,
            "rms_scaled_residual": grid.rms_scaled,
            "tolerance": 1e-6,
        }
    if want("optimality"):
        res = ver.optimality_residual(params, t_vals, x_vals, m1_vals, m2=params.x0)
        checks["optimality"] = {
            "passed": bool(res.max_scaled_sup <= 1e-6 and res.max_cell_distance <= 1.0
                           and res.concave),
            "max_scaled_sup_gap": res.max_scaled_sup,
            "max_argmax_cell_distance": res.max_cell_distance,
            "concave": res.concave,
            "tolerance": 1e-6,
        }
    if want("coefficients"):
        if power:
            checks["coefficients"] = {"passed": True, "skipped": True,
                                      "note": "exponential-family check"}
        else:
            worst_slope = 0.0
            worst_intercept = 0.0
            for gamma in params.dist.gammas:
                for t in (0.0, 0.5 * horizon, horizon):
                    split = ver.coefficient_split_check(params, gamma, t)
                    worst_slope = max(worst_slope, split.slope_scaled)
                    worst_intercept = max(worst_intercept, split.intercept_scaled)
            checks["coefficients"] = {
                "passed": bool(worst_slope <= 1e-10 and worst_intercept <= 1e-10),
                "max_slope_residual": worst_slope,
                "max_intercept_residual": worst_intercept,
                "tolerance": 1e-10,
            }
    if want("feynman-kac"):
        fk_dt = args.dt if args.dt is not None else horizon / 1000
        fk_n = args.n_paths if args.n_paths is not None else 20000
        rep = ver.feynman_kac_check(params, dt=fk_dt, n_paths=fk_n, seed=args.seed)
        checks["feynman-kac"] = {
            "passed": rep.passed,
            "dt": rep.dt,
            "n_paths": rep.n_paths,
            "excluded_paths": rep.excluded_paths,
            "per_gamma": [
                {"gamma": r.gamma, "mc_mean": r.mc_mean, "mc_se": r.mc_se,
                 "reference": r.reference, "abs_diff": r.abs_diff,
                 "tolerance": r.tolerance, "passed": r.passed}
                for r in rep.results
            ],
        }
    if want("monotonicity"):
        # the bundled baseline panels, whatever the configured model
        panels = swp.figure_data(points=args.points, families=(params.dist.family,))
        violations = swp.validate_shapes(panels)
        checks["monotonicity"] = {
            "passed": not violations,
            "scope": "bundled baselines",
            "panels": len(panels),
            "points_per_sweep": args.points,
            "violations": violations,
        }
    return checks


def cmd_verify(args) -> int:
    params, case = resolve_params(args)
    _require_finite(("--fault-kappa", args.fault_kappa))
    out = _out_dir(args)
    checks = _verify_checks(params, args)
    all_passed = all(c["passed"] for c in checks.values())
    report = {
        "family": params.dist.family,
        "case": case,
        "fault_kappa": args.fault_kappa,
        "checks": checks,
        "passed": all_passed,
    }
    _write_json(out / "verify_report.json", report)
    write_manifest(out, "verify", params, {
        "case": case, "check": args.check, "fault_kappa": args.fault_kappa,
        "dt": args.dt, "n_paths": args.n_paths, "seed": args.seed,
        "points": args.points,
    }, ["verify_report.json"])
    for name, c in checks.items():
        status = "SKIP" if c.get("skipped") else ("PASS" if c["passed"] else "FAIL")
        print(f"{status:4s} {name}")
    print(f"report: {out / 'verify_report.json'}")
    return 0 if all_passed else 2


def cmd_reproduce_figures(args) -> int:
    out = _out_dir(args)
    # figure panels always use the bundled baselines for both families
    base = swp.baseline_params(EXPONENTIAL, "I")
    panels = swp.figure_data(points=args.points)
    outputs = []
    for stem, panel in sorted(panels.items()):
        name = f"{stem}.csv"
        _write_table(out / name, panel["values"], panel["columns"], panel["valid"], panel["reasons"])
        outputs.append(name)
    write_manifest(out, "reproduce-figures", base, {"points": args.points}, outputs)
    print(f"wrote {len(outputs)} figure data files to {out}")
    return 0


# ------------------------------------------------------------- parser

def _count(minimum: int):
    """argparse ``type`` for an integer count of at least ``minimum``."""
    def count(raw: str) -> int:
        value = int(raw)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    return count


class _Parser(argparse.ArgumentParser):
    """argparse exits usage errors with code 2; remap them to 1 so exit
    code 2 stays reserved for failed verification checks."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--config", help="JSON model configuration file")
    common.add_argument("--out", default="outputs", help="output directory (default: outputs)")
    common.add_argument("--seed", type=int, default=0, help="base RNG seed (default: 0)")
    common.add_argument("--n-paths", type=int, default=None, help="Monte Carlo sample size")
    common.add_argument("--family", choices=FAMILIES, default=None,
                        help="utility family for the bundled baseline (default: exponential)")
    common.add_argument("--case", choices=("I", "II", "custom"), default=None,
                        help="bundled risk-aversion case, or custom with --config")

    parser = _Parser(prog="delaris",
                     description="Equilibrium reinsurance and investment under wealth memory")
    parser.add_argument("--version", action="version", version=f"delaris {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("strategy", parents=[common],
                       help="tabulate equilibrium controls over time")
    p.add_argument("--dt", type=float, default=None,
                   help="grid step of the power growth_factors.csv (default: horizon/20000)")
    p.add_argument("--t-points", type=_count(1), default=101, help="grid size (default: 101)")
    p.add_argument("--x", type=float, default=None, help="wealth for fractions (default: x0)")
    p.add_argument("--m1", type=float, default=None,
                   help="wealth average for the power state (default: initial value)")
    p.set_defaults(func=cmd_strategy)

    p = sub.add_parser("sweep", parents=[common],
                       help="sweep one parameter, record time-zero controls")
    p.add_argument("--param", required=True, choices=sorted(swp.SWEEP_RANGES))
    p.add_argument("--points", type=_count(1), default=25, help="sweep size (default: 25)")
    p.add_argument("--lo", type=float, default=None, help="sweep lower bound override")
    p.add_argument("--hi", type=float, default=None, help="sweep upper bound override")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", parents=[common],
                       help="Monte Carlo estimate of the expected certainty equivalent")
    p.add_argument("--dt", type=float, default=None,
                   help="Euler step; power factors are read at its times (default: horizon/2000)")
    p.add_argument("--paths-csv", type=_count(0), default=0,
                   help="also write this many individual path files")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", parents=[common],
                       help="check the analytic solution against its defining equations")
    p.add_argument("--dt", type=float, default=None,
                   help="Feynman-Kac Euler step (default: horizon/1000)")
    p.add_argument("--check", choices=CHECKS, default="all")
    p.add_argument("--fault-kappa", type=float, default=0.0,
                   help="relative fault injected into the decay constant (diagnostic; "
                        "a nonzero fault should make checks fail)")
    p.add_argument("--points", type=_count(3), default=9,
                   help="sweep size for the monotonicity check, at least 3 "
                        "(default: 9)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("reproduce-figures", parents=[common],
                       help="regenerate all bundled figure data files")
    p.add_argument("--points", type=_count(1), default=25,
                   help="sweep size per panel (default: 25)")
    p.set_defaults(func=cmd_reproduce_figures)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, DomainError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except DelarisError as err:
        print(f"runtime error: {err}", file=sys.stderr)
        return 3
    except Exception as err:  # noqa: BLE001 - CLI boundary
        print(f"unexpected error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
