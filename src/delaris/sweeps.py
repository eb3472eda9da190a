"""Baseline parameter presets, one-dimensional sweeps and figure data.

The bundled baseline uses the benchmark configuration: claim intensity 1,
claim moments (0.1, 0.2), loadings (0.3, 0.5) for the exponential family
(equal loadings 0.3 for power), rates (r, mu, sigma) = (0.1, 0.2, 0.6),
memory (alpha, beta, h) = (0.5, 0.05, 2), horizon 2, initial wealth 0.6,
and the two-point risk-aversion cases

    case I : gamma = (0.5, 0.9), p = (0.5, 0.5)
    case II: gamma = (0.5, 0.9), p = (0.8, 0.2)

Sweeps rebuild every point's model first. A power point's time-zero
controls then come from the closed-form varpi(0) = psi(S(G2*T)) at its
one node tau = T, with no grid to choose. psi depends only on the
risk-aversion distribution, so the valid power points of a sweep, and
those of every figure sweep of one case, are solved together in one
``power.initial_strategies`` call; each equals its one-model
``power.initial_strategy`` bit for bit. Invalid points are reported as
marked rows, with their own reasons, never dropped silently.

``FIGURE_TABLE`` is the single definition of the 29 figure panels and their
shape claims; ``figure_data`` turns its rows into panels.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import exponential as expmod
from . import power as powmod
from .exceptions import DelarisError
from .model import (
    DelayParams,
    FinancialParams,
    InsuranceParams,
    ModelParams,
    RiskAversionDist,
)
from .utility import EXPONENTIAL, POWER

CASES = ("I", "II")

SWEEP_RANGES = {
    "alpha": (0.05, 1.2),
    "beta": (0.0, 0.5),
    "h": (0.25, 4.0),
    "mu1": (0.05, 0.2),
    "mu2": (0.1, 0.4),
    "eta2": (0.3, 0.8),
    "r": (0.02, 0.18),
    "mu": (0.12, 0.4),
    "sigma": (0.3, 1.0),
}


def case_points(case: str) -> tuple[tuple[float, float], ...]:
    if case == "I":
        return ((0.5, 0.5), (0.9, 0.5))
    if case == "II":
        return ((0.5, 0.8), (0.9, 0.2))
    raise DelarisError(f"unknown risk-aversion case {case!r}; expected one of {CASES}")


def baseline_params(family: str = EXPONENTIAL, case: str = "I") -> ModelParams:
    """The bundled benchmark model for the given family and case."""
    eta1 = 0.3
    eta2 = 0.5 if family == EXPONENTIAL else 0.3
    return ModelParams.build(
        insurance=InsuranceParams(lambda1=1.0, mu1=0.1, mu2=0.2, eta1=eta1, eta2=eta2),
        financial=FinancialParams(r=0.1, mu=0.2, sigma=0.6),
        delay=DelayParams(alpha=0.5, beta=0.05, h=2.0),
        dist=RiskAversionDist(family=family, points=case_points(case)),
        horizon=2.0,
        x0=0.6,
    )


def apply_param(base: ModelParams, name: str, value: float) -> ModelParams:
    """Rebuild the model with one primitive changed. For the power family a
    swept eta2 co-moves eta1 so the net loading stays zero."""
    ins, fin, delay = base.insurance, base.financial, base.delay
    if name in ("alpha", "beta", "h"):
        delay = replace(delay, **{name: value})
    elif name in ("mu1", "mu2"):
        ins = replace(ins, **{name: value})
    elif name == "eta2":
        if base.dist.family == POWER:
            ins = replace(ins, eta1=value, eta2=value)
        else:
            ins = replace(ins, eta2=value)
    elif name in ("r", "mu", "sigma"):
        fin = replace(fin, **{name: value})
    else:
        raise DelarisError(f"unknown sweep parameter {name!r}; expected one of {sorted(SWEEP_RANGES)}")
    return ModelParams.build(
        insurance=ins,
        financial=fin,
        delay=delay,
        dist=base.dist,
        horizon=base.horizon,
        x0=base.x0,
    )


def _models(base: ModelParams, param: str, values: np.ndarray) -> list:
    """``base`` with ``param`` set to each value, or the DelarisError that
    marks the point invalid."""
    models = []
    for v in values:
        try:
            models.append(apply_param(base, param, float(v)))
        except DelarisError as err:
            models.append(err)
    return models


def _initial_controls(models: list) -> list:
    """(retention, invested fraction) at time zero and the initial state of
    each model, or the DelarisError that marks its point invalid (an entry
    that is already one stays). The power models go to one
    ``power.initial_strategies`` call, which solves those of one
    distribution together."""
    power = iter(powmod.initial_strategies(
        [m for m in models if isinstance(m, ModelParams) and m.dist.family == POWER]))
    rows = []
    for m in models:
        row = m
        if isinstance(m, ModelParams):
            if m.dist.family == POWER:
                row = next(power)
            else:
                try:
                    row = expmod.strategy(m, 0.0)
                except DelarisError as err:
                    row = err
            if not isinstance(row, DelarisError):
                row = (row[0], row[1] / m.x0)
        rows.append(row)
    return rows


@dataclass(frozen=True)
class SweepResult:
    """One-parameter sweep of the time-zero equilibrium controls. An invalid
    point has NaN controls and the error text as its reason."""

    values: np.ndarray
    q0: np.ndarray
    pi0: np.ndarray
    valid: np.ndarray
    reasons: tuple[str, ...]


def _values(param: str, points: int, lo: float | None = None, hi: float | None = None) -> np.ndarray:
    if param not in SWEEP_RANGES:
        raise DelarisError(f"unknown sweep parameter {param!r}; expected one of {sorted(SWEEP_RANGES)}")
    lo_d, hi_d = SWEEP_RANGES[param]
    return np.linspace(lo_d if lo is None else lo, hi_d if hi is None else hi, points)


def _result(values: np.ndarray, rows: list) -> SweepResult:
    valid = np.array([not isinstance(r, DelarisError) for r in rows], dtype=bool)
    q0, pi0 = (np.array([r[j] if ok else np.nan for r, ok in zip(rows, valid)], dtype=float)
               for j in (0, 1))
    reasons = tuple("" if ok else str(r) for r, ok in zip(rows, valid))
    return SweepResult(values, q0, pi0, valid, reasons)


def run_sweep(
    base: ModelParams,
    param: str,
    points: int = 25,
    lo: float | None = None,
    hi: float | None = None,
) -> SweepResult:
    values = _values(param, points, lo, hi)
    return _result(values, _initial_controls(_models(base, param, values)))


# ------------------------------------------------------------- figures
# one row per figure CSV: (stem, family, swept parameter, metric, cases, per-case shape)
FIGURE_TABLE = (
    ("fig1_a", EXPONENTIAL, "alpha", "q_hat_0", CASES, "interior_min"),
    ("fig1_b", EXPONENTIAL, "beta", "q_hat_0", CASES, "decreasing"),
    ("fig1_c", EXPONENTIAL, "h", "q_hat_0", CASES, "decreasing"),
    ("fig1_d", EXPONENTIAL, "alpha", "pi_0", CASES, "interior_min"),
    ("fig1_e", EXPONENTIAL, "beta", "pi_0", CASES, "decreasing"),
    ("fig1_f", EXPONENTIAL, "h", "pi_0", CASES, "decreasing"),
    ("fig2_a", POWER, "alpha", "q_hat_0", ("I",), "decreasing"),
    ("fig2_b", POWER, "alpha", "q_hat_0", ("II",), "decreasing"),
    ("fig2_c", POWER, "alpha", "pi_0", ("I",), "decreasing"),
    ("fig2_d", POWER, "alpha", "pi_0", ("II",), "decreasing"),
    ("fig3_a", POWER, "beta", "q_hat_0", CASES, "increasing"),
    ("fig3_b", POWER, "beta", "pi_0", CASES, "increasing"),
    ("fig3_c", POWER, "h", "q_hat_0", CASES, "increasing"),
    ("fig3_d", POWER, "h", "pi_0", CASES, "increasing"),
    ("fig4_a", POWER, "mu1", "q_hat_0", CASES, "increasing"),
    ("fig4_b", POWER, "mu2", "q_hat_0", CASES, "decreasing"),
    ("fig4_c", POWER, "eta2", "q_hat_0", CASES, "increasing"),
    ("fig5_a", POWER, "mu1", "pi_0", ("I",), "increasing"),
    ("fig5_b", POWER, "mu1", "pi_0", ("II",), "increasing"),
    ("fig5_c", POWER, "mu2", "pi_0", ("I",), "decreasing"),
    ("fig5_d", POWER, "mu2", "pi_0", ("II",), "decreasing"),
    ("fig5_e", POWER, "eta2", "pi_0", ("I",), "increasing"),
    ("fig5_f", POWER, "eta2", "pi_0", ("II",), "increasing"),
    ("fig6_a", POWER, "r", "q_hat_0", CASES, "decreasing"),
    ("fig6_b", POWER, "mu", "q_hat_0", CASES, "increasing"),
    ("fig6_c", POWER, "sigma", "q_hat_0", CASES, "decreasing"),
    ("fig6_d", POWER, "r", "pi_0", CASES, "decreasing"),
    ("fig6_e", POWER, "mu", "pi_0", CASES, "increasing"),
    ("fig6_f", POWER, "sigma", "pi_0", CASES, "decreasing"),
)


def figure_data(points: int = 25,
                families: tuple[str, ...] = (EXPONENTIAL, POWER)) -> dict[str, dict]:
    """All bundled figure panels keyed by stem: one per FIGURE_TABLE row of
    ``families``. Each (family, param, case) sweep is run once, and the
    time-zero controls of all their points in one ``_initial_controls``
    call, so the power points of a case share one solve."""
    keys = dict.fromkeys((family, param, case) for _, family, param, _, cases, _ in FIGURE_TABLE
                         if family in families for case in cases)
    values = {key: _values(key[1], points) for key in keys}
    models = [_models(baseline_params(family, case), param, values[family, param, case])
              for family, param, case in keys]
    rows = iter(_initial_controls([m for sweep_models in models for m in sweep_models]))
    sweep = {key: _result(values[key], [next(rows) for _ in sweep_models])
             for key, sweep_models in zip(keys, models)}

    alpha_star, panels = baseline_sensitivity_threshold(), {}
    for stem, family, param, metric, cases, shape in FIGURE_TABLE:
        if family not in families:
            continue
        columns, claims = {}, []
        for case in cases:
            res, col = sweep[family, param, case], f"{metric}_case_{case}"
            columns[col] = res.q0 if metric == "q_hat_0" else res.pi0
            claims.append((shape, col, alpha_star) if shape == "interior_min" else (shape, col))
        if len(cases) == 2:
            # lower mean risk aversion (case II) always demands the larger position
            claims.append(("below", *columns))
        first = sweep[family, param, cases[0]]
        panels[stem] = {"param": param, "values": first.values, "columns": columns,
                        "valid": first.valid, "reasons": first.reasons, "claims": claims}
    return panels


def baseline_sensitivity_threshold() -> float:
    """The alpha at which the exponential retention's alpha-derivative flips
    for the baseline window h = 2."""
    base = baseline_params(EXPONENTIAL, "I")
    return expmod.sensitivity(base).alpha_star


def validate_shapes(panels: dict[str, dict], band: float = 1e-10) -> list[str]:
    """Check every panel's qualitative claims; returns human-readable
    violations (empty means all shapes hold). Differences within ``band``
    (scaled by the column's largest magnitude) count as noise.

    Claim vocabulary: ("increasing"|"decreasing", column),
    ("interior_min", column, x_star), ("below", lower_column, higher_column)."""
    violations = []
    for stem, panel in panels.items():
        xs = panel["values"]
        if not panel["valid"].all():
            bad = [f"{xs[i]:g}: {panel['reasons'][i]}" for i in np.nonzero(~panel["valid"])[0]]
            violations.append(f"{stem}: invalid sweep points ({'; '.join(bad)})")
            continue
        for claim in panel["claims"]:
            kind, col = claim[0], claim[1]
            y = panel["columns"][col]
            tol = band * max(1.0, float(np.nanmax(np.abs(y))))
            d = np.diff(y)
            if kind == "increasing":
                if np.any(d < -tol):
                    violations.append(f"{stem}: {col} not increasing in {panel['param']}")
            elif kind == "decreasing":
                if np.any(d > tol):
                    violations.append(f"{stem}: {col} not decreasing in {panel['param']}")
            elif kind == "interior_min":
                x_star = claim[2]
                k = int(np.argmin(y))
                if k == 0 or k == len(y) - 1:
                    violations.append(f"{stem}: {col} minimum not interior")
                    continue
                if np.any(d[:k] > tol) or np.any(d[k:] < -tol):
                    violations.append(f"{stem}: {col} not V-shaped around its minimum")
                cell = xs[1] - xs[0]
                if abs(xs[k] - x_star) > cell:
                    violations.append(
                        f"{stem}: {col} minimum at {xs[k]:g}, expected near {x_star:g}"
                    )
            elif kind == "below":
                hi_col = claim[2]
                y_hi = panel["columns"][hi_col]
                if np.any(y - y_hi > -tol):
                    violations.append(f"{stem}: {col} not strictly below {hi_col}")
            else:
                violations.append(f"{stem}: unknown claim {kind!r}")
    return violations
