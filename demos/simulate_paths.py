"""Simulate the delayed wealth dynamics under the equilibrium strategy.

A single path is printed to show the three recorded state components:
wealth X, the exponentially weighted running average M1 and the lagged
wealth M2 = X(t - h). Monte Carlo estimates of the expected certainty
equivalent under the exponential and the power baselines then get
compared with their closed-form aggregated values; each pair agrees within
a few standard errors. A power path's terminal wealth is the running
product of its step factors.

Run:  python demos/simulate_paths.py
"""

from delaris import exponential, power
from delaris.simulation import SimConfig, mc_reward, simulate_path
from delaris.sweeps import baseline_params


def main() -> None:
    params = baseline_params("exponential", "I")

    cfg = SimConfig(dt=0.01, n_paths=1, seed=7)
    path = simulate_path(params, cfg, path_index=0)
    print("one path, every 40th grid point:")
    print(f"{'t':>6} {'X':>10} {'M1':>10} {'M2':>10} {'q':>8} {'pi':>8}")
    for k in range(0, len(path.t), 40):
        print(f"{path.t[k]:6.2f} {path.X[k]:10.5f} {path.M1[k]:10.5f} "
              f"{path.M2[k]:10.5f} {path.q[k]:8.4f} {path.pi_x[k]:8.4f}")
    print(f"terminal effective wealth X + beta*M1 = {path.terminal_effective_wealth:.5f}\n")

    report(params, exponential.value(params, 0.0, params.x0, params.m1_0))
    params = baseline_params("power", "I")
    factors = power.growth_factors(params)
    report(params, power.value(factors, params, 0.0, params.x0, params.m1_0))


def report(params, ref: float) -> None:
    """Print a 20 000-path estimate under the family's own strategy against
    the closed-form value ``ref``."""
    cfg = SimConfig(dt=0.01, n_paths=20_000, seed=7)  # no strategy: the model's own equilibrium
    est = mc_reward(params, cfg)
    print(f"{params.dist.family} Monte Carlo reward ({cfg.n_paths} paths, dt = {cfg.dt}):")
    print(f"  J_hat = {est.mean:.6f} +/- {est.se:.6f}")
    print(f"  closed form = {ref:.6f}  (|diff| = {abs(est.mean - ref):.2e}, "
          f"{abs(est.mean - ref) / est.se:.2f} standard errors)")
    for pg in est.per_gamma:
        print(f"  gamma = {pg.gamma}: certainty equivalent {pg.ce:.6f} +/- {pg.ce_se:.6f}")


if __name__ == "__main__":
    main()
