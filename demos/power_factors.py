"""Solve the coupled growth-factor system for the power family.

With power utilities there is no closed form for the mixture: each
risk-aversion level gamma_i carries its own factor g_i(t), and the
factors are coupled through the certainty-equivalent weight varpi(t).
The script integrates the system backward from g_i(T) = 1, prints the
varpi path (which starts below E[gamma] and rises to hit it exactly at
T), compares the RK4 march with the closed-form factors on the same
grid, and evaluates the wealth-proportional strategy at t = 0.

Run:  python demos/power_factors.py
"""

import numpy as np

from delaris import ModelParams, RiskAversionDist, mean_gamma
from delaris import power
from delaris.sweeps import baseline_params


def main() -> None:
    for case in ("I", "II"):
        params = baseline_params("power", case)
        sol = power.solve_growth_factors(params, dt=1e-4)
        print(f"case {case}: gammas {params.dist.gammas}, probs {params.dist.probs}, "
              f"E[gamma] = {mean_gamma(params.dist):.4f}")
        print(f"{'t':>6} {'varpi':>10}" + "".join(f" {'g_'+str(g):>12}" for g in params.dist.gammas))
        for t in np.linspace(0.0, params.horizon, 9):
            g = power.g_at(sol, float(t))
            w = power.varpi_at(sol, float(t))
            print(f"{t:6.2f} {w:10.6f}" + "".join(f" {gi:12.8f}" for gi in g))
        print(f"  varpi(T) - E[gamma] = {power.varpi_at(sol, params.horizon) - mean_gamma(params.dist):.2e}")
        exact = power.growth_factors(params, dt=1e-4)
        gap = max(np.max(np.abs(sol.g / exact.g - 1.0)),
                  np.max(np.abs(sol.varpi / exact.varpi - 1.0)))
        print(f"  RK4 at dt = 1e-4 vs the closed form, largest relative difference "
              f"over every node of g and varpi: {gap:.2e}")

        # both rules are proportional to effective wealth x + beta*m1
        x, m1 = params.x0, params.m1_0
        q, pi = power.strategy(sol, params, 0.0, x, m1)
        print(f"  strategy at t=0, x={x}, m1={m1:.4f}:  q = {q:.6f}, pi = {pi:.6f}")
        q2, pi2 = power.strategy(sol, params, 0.0, 2 * x, 2 * m1)
        print(f"  doubling (x, m1) doubles both: q = {q2:.6f}, pi = {pi2:.6f}\n")

    # a single-atom distribution has a closed form; use it to show the
    # solver error at a coarse step
    base = baseline_params("power", "I")
    single = ModelParams.build(
        insurance=base.insurance,
        financial=base.financial,
        delay=base.delay,
        dist=RiskAversionDist(family="power", points=((0.5, 1.0),)),
        horizon=base.horizon,
        x0=base.x0,
    )
    for dt in (0.02, 0.01):
        sol = power.solve_growth_factors(single, dt=dt)
        err = max(
            abs(power.g_at(sol, t)[0] - power.single_gamma_growth(single, 0.5, t))
            for t in np.linspace(0.0, single.horizon, 11)
        )
        print(f"single-gamma check, dt = {dt}: max |g - closed form| = {err:.3e}")


if __name__ == "__main__":
    main()
