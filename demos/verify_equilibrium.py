"""Check the closed-form solutions against the equations that define them.

Three independent checks run on the case-I benchmark:

  1. generator residual of each per-gamma candidate on a state grid
     (cancels to roundoff when the derived constants are right); each
     time is one slice evaluated as arrays over the effective wealth
     w = x + beta*m1 of every state,
  2. pointwise optimality: the control objective is a concave quadratic
     in (retention, investment), so its sup is read at its vertex; the
     sup must vanish and the vertex must be the closed-form controls
     (first-order gap at roundoff, within 1e-10),
  3. the same residual after deliberately corrupting one derived
     constant by 1 percent, which must light up by many orders of
     magnitude; otherwise the residual check would be vacuous.

The power family needs no solved grid: each time slice evaluates the
growth factors in closed form at exactly its time, from the (possibly
corrupted) model itself.

Run:  python demos/verify_equilibrium.py
"""

import numpy as np

from delaris import verification
from delaris.sweeps import baseline_params


def main() -> None:
    t_vals = np.linspace(0.0, 2.0, 5)
    x_vals = np.linspace(0.2, 1.2, 6)
    m1_vals = np.linspace(0.3, 1.2, 6)

    for family in ("exponential", "power"):
        params = baseline_params(family, "I")

        grid = verification.expectation_pde_residual(params, t_vals, x_vals, m1_vals)
        print(f"{family}: max scaled generator residual = {grid.max_scaled:.3e}")

        opt = verification.optimality_residual(params, t_vals[:3], x_vals[:3], m1_vals[:3])
        print(f"{family}: optimality sup gap = {opt.max_scaled_sup:.3e}, "
              f"first-order gap = {opt.max_first_order_gap:.3e}, "
              f"concave at every node = {opt.concave}")

        clean = grid.max_scaled
        for name in ("A", "B", "C", "kappa"):
            bad = verification.perturb_constants(params, name, 0.01)
            lifted = verification.expectation_pde_residual(bad, t_vals, x_vals, m1_vals).max_scaled
            print(f"{family}: +1% fault in {name:5s} -> residual {lifted:.3e} "
                  f"({lifted / max(clean, 1e-16):.1e}x the clean level)")
        print()


if __name__ == "__main__":
    main()
