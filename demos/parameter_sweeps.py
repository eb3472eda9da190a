"""Sweep model parameters and confirm the qualitative shape claims.

One sweep is printed in full (retention at t = 0 against the averaging
rate alpha, for both risk-aversion cases) so the interior minimum at
alpha* = ln(h)/h is visible in the numbers. The full panel bundle is
then rebuilt at a coarse grid and every claimed monotonicity, interior
extremum and case ordering is validated.

Run:  python demos/parameter_sweeps.py
"""

from delaris import sweeps
from delaris.sweeps import baseline_params


def main() -> None:
    base = baseline_params("exponential", "I")
    res_i = sweeps.run_sweep(base, "alpha", points=13)
    res_ii = sweeps.run_sweep(baseline_params("exponential", "II"), "alpha", points=13)
    thr = sweeps.baseline_sensitivity_threshold()
    print(f"retention at t=0 against alpha (alpha* = {thr:.4f}):")
    print(f"{'alpha':>8} {'q case I':>12} {'q case II':>12}")
    for v, qi, qii in zip(res_i.values, res_i.q0, res_ii.q0):
        marker = "  <- past alpha*" if v > thr and v - (res_i.values[1] - res_i.values[0]) <= thr else ""
        print(f"{v:8.4f} {qi:12.8f} {qii:12.8f}{marker}")
    print()

    panels = sweeps.figure_data(points=9)
    violations = sweeps.validate_shapes(panels)
    print(f"built {len(panels)} sweep panels, shape violations: {violations or 'none'}")
    for name in sorted(panels):
        p = panels[name]
        claims = "; ".join(
            f"{c[0]}({', '.join(str(v) for v in c[1:])})" for c in p["claims"]
        )
        print(f"  {name}: sweep {p['param']:6s} {claims}")


if __name__ == "__main__":
    main()
