"""Check the closed-form solutions against the equations that define them.

Three independent checks run on the case-I benchmark:

  1. generator residual of each per-gamma candidate on a state grid
     (cancels to roundoff when the derived constants are right); each
     time is one slice evaluated as arrays over the effective wealth
     w = x + beta*m1 of every state,
  2. pointwise optimality: sweeping the control objective over a grid
     must not beat the closed-form controls, and the argmax must land
     on them (the objective separates into a retention part and an
     investment part, so each control is swept on its own mesh),
  3. the same residual after deliberately corrupting one derived
     constant by 1 percent, which must light up by many orders of
     magnitude; otherwise the residual check would be vacuous.

Run:  python demos/verify_equilibrium.py
"""

import numpy as np

from delaris import power, verification
from delaris.sweeps import baseline_params


def main() -> None:
    t_vals = np.linspace(0.0, 2.0, 5)
    x_vals = np.linspace(0.2, 1.2, 6)
    m1_vals = np.linspace(0.3, 1.2, 6)

    for family in ("exponential", "power"):
        params = baseline_params(family, "I")
        sol = power.solve_growth_factors(params, dt=1e-3) if family == "power" else None

        grid = verification.expectation_pde_residual(params, t_vals, x_vals, m1_vals, solution=sol)
        print(f"{family}: max scaled generator residual = {grid.max_scaled:.3e}")

        opt = verification.optimality_residual(params, t_vals[:3], x_vals[:3], m1_vals[:3], solution=sol)
        print(f"{family}: optimality sup gap = {opt.max_scaled_sup:.3e}, "
              f"argmax offset = {opt.max_cell_distance:.2f} cells, "
              f"concave at every node = {opt.concave}")

        clean = grid.max_scaled
        for name in ("A", "B", "C", "kappa"):
            bad = verification.perturb_constants(params, name, 0.01)
            bad_sol = power.solve_growth_factors(bad, dt=1e-3) if family == "power" else None
            lifted = verification.expectation_pde_residual(
                bad, t_vals, x_vals, m1_vals, solution=bad_sol).max_scaled
            print(f"{family}: +1% fault in {name:5s} -> residual {lifted:.3e} "
                  f"({lifted / max(clean, 1e-16):.1e}x the clean level)")
        print()


if __name__ == "__main__":
    main()
