"""Regenerate ``reference.json``, the frozen expected outputs the benchmark
checks against. It uses only ``refmodel.py``, never the package under test.

    python3 perfbench/make_reference.py

Power factors come from RK4 in log coordinates at ``N_STEPS`` steps; the
run also integrates at half the steps and records the largest relative
difference as ``self_agreement`` (about 1e-15 on the bundled baselines).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import refmodel as R

N_STEPS = 20000
T_POINTS = 100  # strategy table: t = k*T/100, the CLI default of 101 rows
FIG_POINTS = 2  # reproduce-figures --points

SWEEP_RANGES = {
    "alpha": (0.05, 1.2), "beta": (0.0, 0.5), "h": (0.25, 4.0),
    "mu1": (0.05, 0.2), "mu2": (0.1, 0.4), "eta2": (0.3, 0.8),
    "r": (0.02, 0.18), "mu": (0.12, 0.4), "sigma": (0.3, 1.0),
}

# stem -> (family, swept parameter, metric, cases), one entry per figure CSV
_BOTH = ("I", "II")
PANELS = {
    **{f"fig1_{s}": ("exponential", p, met, _BOTH) for s, p, met in (
        ("a", "alpha", "q_hat_0"), ("b", "beta", "q_hat_0"), ("c", "h", "q_hat_0"),
        ("d", "alpha", "pi_0"), ("e", "beta", "pi_0"), ("f", "h", "pi_0"))},
    **{f"fig2_{s}": ("power", "alpha", met, (case,)) for s, met, case in (
        ("a", "q_hat_0", "I"), ("b", "q_hat_0", "II"), ("c", "pi_0", "I"), ("d", "pi_0", "II"))},
    **{f"fig3_{s}": ("power", p, met, _BOTH) for s, p, met in (
        ("a", "beta", "q_hat_0"), ("b", "beta", "pi_0"), ("c", "h", "q_hat_0"), ("d", "h", "pi_0"))},
    **{f"fig4_{s}": ("power", p, "q_hat_0", _BOTH) for s, p in (
        ("a", "mu1"), ("b", "mu2"), ("c", "eta2"))},
    **{f"fig5_{s}": ("power", p, "pi_0", (case,)) for s, p, case in (
        ("a", "mu1", "I"), ("b", "mu1", "II"), ("c", "mu2", "I"),
        ("d", "mu2", "II"), ("e", "eta2", "I"), ("f", "eta2", "II"))},
    **{f"fig6_{s}": ("power", p, met, _BOTH) for s, p, met in (
        ("a", "r", "q_hat_0"), ("b", "mu", "q_hat_0"), ("c", "sigma", "q_hat_0"),
        ("d", "r", "pi_0"), ("e", "mu", "pi_0"), ("f", "sigma", "pi_0"))},
}


def _solve(models, n_out):
    varpi, log_g = R.power_factors(models, N_STEPS, n_out)
    varpi_half, log_g_half = R.power_factors(models, N_STEPS // 2, n_out)
    agree = max(float(np.max(np.abs(varpi - varpi_half) / varpi)),
                float(np.max(np.abs(np.expm1(log_g - log_g_half)))))
    return varpi, np.exp(log_g), agree


def _time_zero_controls(m, family, varpi0):
    """(q_hat_0, pi_0 as a fraction of x0) at time zero and the initial state."""
    if family == "exponential":
        q, pi = R.exp_controls(m, 0.0)
        return float(q), float(pi) / m["x0"]
    q, pi = R.control_coeffs(m, varpi0)
    w = R.w0(m)
    return q * w, pi * w / m["x0"]


def main() -> None:
    base = R.baseline("power", "I")
    varpi, g, agree = _solve([base], T_POINTS)
    strategy = {
        "t": [base["horizon"] * k / T_POINTS for k in range(T_POINTS + 1)],
        "varpi": varpi[:, 0].tolist(),
        "g0": g[0, 0].tolist(),
    }

    # every power sweep point as one batch
    grid = {}
    for family, param, _, cases in PANELS.values():
        for case in cases:
            for v in np.linspace(*SWEEP_RANGES[param], FIG_POINTS):
                key = (family, param, case, float(v))
                grid[key] = R.with_param(R.baseline(family, case), family, param, float(v))
    power_keys = [k for k in grid if k[0] == "power"]
    varpi0, _, agree_fig = _solve([grid[k] for k in power_keys], 1)
    v0 = dict(zip(power_keys, varpi0[0]))

    files = {}
    for stem, (family, param, metric, cases) in PANELS.items():
        values = np.linspace(*SWEEP_RANGES[param], FIG_POINTS)
        cols = {"param_value": values.tolist()}
        for case in cases:
            col = []
            for v in values:
                key = (family, param, case, float(v))
                q, pi = _time_zero_controls(grid[key], family, v0.get(key))
                col.append(q if metric == "q_hat_0" else pi)
            cols[f"{metric}_case_{case}"] = col
        files[stem] = cols

    ref = {
        "n_steps": N_STEPS,
        "self_agreement": max(agree, agree_fig),
        "power_case_I": strategy,
        "figures": {"points": FIG_POINTS, "files": files},
    }
    out = Path(__file__).with_name("reference.json")
    out.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {out} (self-agreement {ref['self_agreement']:.2e})")


if __name__ == "__main__":
    main()
