"""Acceptance criteria, one test per criterion.

Each test prints a single ``PASS``/``FAIL`` line (visible with ``pytest -v -s``
or in captured output on failure) and asserts the stated tolerance. Values
marked "frozen" were produced by independent oracles: a 50-digit mpmath
evaluation for closed forms and a step-doubled first-order integration for
the factor system.
"""

import math
import time

import numpy as np
import pytest

from delaris import exponential as expmod
from delaris import power as powmod
from delaris import sweeps
from delaris import verification as ver
from delaris.model import (
    DelayParams,
    FinancialParams,
    InsuranceParams,
    ModelParams,
    RiskAversionDist,
    kappa_closed_form,
    solve_delay_constants,
)
from delaris.utility import EXPONENTIAL

from helpers import richardson_growth, varpi_of


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {label} ({detail})")
    assert ok, f"criterion {num}: {label}: {detail}"


def test_criterion_1_closure_identities(exp_case1):
    tol = 1e-12
    worst = 0.0
    rng = np.random.default_rng(1001)
    draws = [(0.1, 0.5, 0.05, 2.0)]
    for _ in range(1000):
        draws.append((
            rng.uniform(0.01, 0.3),
            rng.uniform(0.0, 2.0),
            rng.uniform(0.0, 1.0),
            rng.uniform(0.1, 5.0),
        ))
    for r, alpha, beta, h in draws:
        cons = solve_delay_constants(
            FinancialParams(r=r, mu=r + 0.1, sigma=0.5),
            DelayParams(alpha=alpha, beta=beta, h=h),
        )
        e = math.exp(-alpha * h)
        worst = max(
            worst,
            abs(cons.C - beta * e),
            abs(cons.B * e - (alpha + cons.A + beta) * cons.C),
            abs(cons.A - (r - cons.B - cons.C)),
            abs(cons.kappa - (cons.A + beta)),
            abs(cons.kappa - kappa_closed_form(r, alpha, beta, h)),
        )
    _report(1, "delay-constant closure identities", worst <= tol,
            f"max deviation {worst:.2e} over {len(draws)} draws, tol {tol:.0e}")


def test_criterion_2_exponential_closed_forms(exp_case1):
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    mp.dps = 50
    one = mpmath.mpf(1)
    r, alpha, beta, h = (mpmath.mpf("0.1"), mpmath.mpf("0.5"),
                         mpmath.mpf("0.05"), mpmath.mpf(2))
    mu, sigma = mpmath.mpf("0.2"), mpmath.mpf("0.6")
    a, b2 = mpmath.mpf("0.1"), mpmath.mpf("0.2")
    eta2 = mpmath.mpf("0.5")
    eta = mpmath.mpf("0.3") - eta2
    x0, horizon = mpmath.mpf("0.6"), mpmath.mpf(2)
    e_mean = mpmath.mpf("0.7")

    decay = mpmath.e ** (-alpha * h)
    c = beta * decay
    b = c * (alpha + r + beta - c) / (decay + c)
    a_const = r - b - c
    kappa = a_const + beta
    tau = horizon
    grow = mpmath.e ** (kappa * tau)

    q0 = a * eta2 / (b2 * e_mean) / grow
    pix0 = (mu - r) / (sigma**2 * e_mean) / grow
    m10 = x0 * (1 - decay) / alpha
    w0 = x0 + beta * m10
    f_sum = (mu - r) ** 2 / sigma**2 + (a * eta2) ** 2 / b2
    u0 = w0 * grow + a * eta * (grow - 1) / kappa + f_sum / e_mean / 2 * tau

    def y_of(gam):
        gam = mpmath.mpf(gam)
        g1 = -gam * grow
        d_const = gam * f_sum / e_mean - gam**2 * f_sum / e_mean**2 / 2
        g2 = -gam * a * eta * (grow - 1) / kappa - d_const * tau
        return -one / gam * mpmath.e ** (g1 * w0 + g2)

    pkg_q0, pkg_pix0 = expmod.strategy(exp_case1, 0.0)
    checks = {
        "q_hat(0)": (pkg_q0, q0),
        "pi_amount(0)": (pkg_pix0, pix0),
        "pi_fraction(0)": (expmod.pi_fraction(exp_case1, 0.0, 0.6), pix0 / x0),
        "m1_0": (exp_case1.m1_0, m10),
        "U(0)": (expmod.value(exp_case1, 0.0, 0.6, exp_case1.m1_0), u0),
        "Y_0.5(0)": (expmod.ansatz(exp_case1, 0.5, 0.0, 0.6, exp_case1.m1_0), y_of("0.5")),
        "Y_0.9(0)": (expmod.ansatz(exp_case1, 0.9, 0.0, 0.6, exp_case1.m1_0), y_of("0.9")),
        "kappa": (exp_case1.constants.kappa, kappa),
    }
    worst_name, worst = "", 0.0
    for name, (got, want) in checks.items():
        rel = abs(got - float(want)) / abs(float(want))
        if rel > worst:
            worst_name, worst = name, rel
    # frozen literals pin the oracle itself against silent drift
    assert float(q0) == pytest.approx(0.2915107143288456, rel=1e-15)
    assert float(u0) == pytest.approx(0.7947423524704365, rel=1e-15)
    _report(2, "closed forms vs 50-digit oracle", worst <= 1e-9,
            f"worst rel err {worst:.2e} at {worst_name}, tol 1e-09")


def _exp_model(r, alpha, beta, h):
    return ModelParams.build(
        insurance=InsuranceParams(lambda1=1.0, mu1=0.1, mu2=0.2, eta1=0.3, eta2=0.5),
        financial=FinancialParams(r=r, mu=r + 0.1, sigma=0.6),
        delay=DelayParams(alpha=alpha, beta=beta, h=h),
        dist=RiskAversionDist(family=EXPONENTIAL, points=((0.5, 0.5), (0.9, 0.5))),
        horizon=2.0,
        x0=0.6,
    )


def test_criterion_3_sensitivity_signs():
    rng = np.random.default_rng(3003)
    step = 1e-6
    band = 1e-6  # analytic derivative must clear the finite-difference noise
    needed = 200
    agree = {"alpha": 0, "beta": 0, "h": 0}
    tried = 0
    while min(agree.values()) < needed and tried < 20000:
        tried += 1
        r = rng.uniform(0.02, 0.25)
        alpha = rng.uniform(0.05, 1.5)
        beta = rng.uniform(0.01, 0.8)
        h = rng.uniform(0.3, 4.0)
        rep = expmod.sensitivity(_exp_model(r, alpha, beta, h))
        for name, value, dv in (("alpha", alpha, rep.d_alpha),
                                ("beta", beta, rep.d_beta),
                                ("h", h, rep.d_h)):
            if agree[name] >= needed or abs(dv) < band:
                continue
            lo = dict(r=r, alpha=alpha, beta=beta, h=h)
            hi = dict(r=r, alpha=alpha, beta=beta, h=h)
            lo[name] = value - step
            hi[name] = value + step
            fd = (expmod.strategy(_exp_model(**hi), 0.0)[0]
                  - expmod.strategy(_exp_model(**lo), 0.0)[0]) / (2 * step)
            if abs(fd) < band:
                continue
            ok = math.copysign(1, fd) == math.copysign(1, dv)
            assert ok, (name, r, alpha, beta, h, fd, dv)
            agree[name] += 1
    done = all(v >= needed for v in agree.values())
    _report(3, "sensitivity signs vs finite differences", done,
            f"{agree} confirmed draws per parameter, step {step:g}")


def test_criterion_4_single_gamma_closed_form(pow_single):
    sol = powmod.solve_growth_factors(pow_single, dt=1e-4)
    worst = 0.0
    for t in np.linspace(0.0, 2.0, 21):
        closed = powmod.single_gamma_growth(pow_single, 0.5, float(t))
        worst = max(worst, abs(powmod.g_at(sol, float(t))[0] - closed) / closed)
    exact0 = powmod.single_gamma_growth(pow_single, 0.5, 0.0)
    errs = [abs(powmod.solve_growth_factors(pow_single, dt=dt).g[0][0] - exact0)
            for dt in (0.2, 0.1)]
    factor = errs[0] / errs[1]
    ok = worst <= 1e-8 and 12.0 <= factor <= 20.0
    _report(4, "single-gamma factor vs closed form", ok,
            f"max rel err {worst:.2e} (tol 1e-08), halving factor {factor:.1f} in [12, 20]")


def test_criterion_5_factor_system_vs_reference(pow_case1, pow_case2):
    t0 = time.perf_counter()
    worst = 0.0
    for params, probs in ((pow_case1, (0.5, 0.5)), (pow_case2, (0.8, 0.2))):
        sol = powmod.solve_growth_factors(params, dt=1e-4)
        kappa = params.constants.kappa
        co, fin = params.coeffs, params.financial
        g2 = (fin.mu - fin.r) ** 2 / fin.sigma**2 + (co.a * co.eta2) ** 2 / co.b2
        ref = richardson_growth(kappa, g2, (0.5, 0.9), probs, 2.0, 2_000_000)
        ref_varpi = varpi_of(ref, (0.5, 0.9), probs)
        for got, want in zip(sol.g[0], ref):
            worst = max(worst, abs(got - want) / abs(want))
        worst = max(worst, abs(sol.varpi[0] - ref_varpi) / ref_varpi)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 60.0
    _report(5, "two-point factor system vs step-doubled reference", ok,
            f"max rel err {worst:.2e} (tol 1e-06), {elapsed:.1f}s < 60s")


def test_criterion_6_aggregated_gamma_diagnostics(pow_case1):
    sol = powmod.solve_growth_factors(pow_case1, dt=1e-3)
    end_gap = abs(sol.varpi[-1] - pow_case1.mean_gamma)
    in_hull = bool(np.all(sol.varpi >= 0.5 - 1e-12) and np.all(sol.varpi <= 0.9 + 1e-12))
    # steps chosen inside the truncation-dominated regime: below ~1e-2 the
    # finite-difference rounding floor (~1e-13) hides the second-order decay
    residuals = []
    for dt in (0.1, 0.05, 0.025):
        s = powmod.solve_growth_factors(pow_case1, dt=dt)
        residuals.append(powmod.varpi_rate_residual(s, pow_case1, 1.0))
    orders = [math.log2(residuals[i] / residuals[i + 1]) for i in range(2)]
    ok = end_gap <= 1e-13 and in_hull and min(orders) >= 1.9
    _report(6, "aggregated risk aversion: terminal value, hull, rate", ok,
            f"terminal gap {end_gap:.1e}, hull {in_hull}, "
            f"rate-residual orders {orders[0]:.2f}/{orders[1]:.2f} >= 1.9")


def test_criterion_7_equation_residuals(exp_case1):
    t_vals = np.linspace(0.0, 2.0, 10)
    x_vals = np.linspace(0.2, 1.2, 10)
    m1_vals = np.linspace(0.3, 1.2, 10)
    grid = ver.expectation_pde_residual(exp_case1, t_vals, x_vals, m1_vals, m2=0.6)
    far = ver.expectation_pde_residual(exp_case1, t_vals, x_vals, m1_vals, m2=5.0)
    opt = ver.optimality_residual(exp_case1, t_vals, x_vals, m1_vals, m2=0.6)
    lift_ok = True
    min_lift = math.inf
    floor = max(grid.max_scaled, 1e-14)
    for name in ("A", "B", "C", "kappa"):
        for rel in (0.01, -0.01):
            bad = ver.perturb_constants(exp_case1, name, rel)
            lifted = ver.expectation_pde_residual(bad, t_vals, x_vals, m1_vals, m2=0.6)
            min_lift = min(min_lift, lifted.max_scaled / floor)
            lift_ok = lift_ok and lifted.max_scaled >= 100 * floor
    ok = (grid.max_scaled <= 1e-6 and far.max_scaled <= 1e-6
          and opt.max_scaled_sup <= 1e-6 and opt.max_cell_distance <= 1.0
          and opt.concave and lift_ok)
    _report(7, "expectation and optimality residuals with fault injection", ok,
            f"residual {grid.max_scaled:.1e} <= 1e-06, sup gap {opt.max_scaled_sup:.1e}, "
            f"argmax within {opt.max_cell_distance:.1e} cells, "
            f"weakest fault lift {min_lift:.1e}x >= 100x")


def test_criterion_8_feynman_kac(exp_case1, pow_single):
    t0 = time.perf_counter()
    rep_exp = ver.feynman_kac_check(exp_case1, dt=1e-3, n_paths=100_000, seed=424242)
    sol = powmod.solve_growth_factors(pow_single, dt=1e-3)
    rep_pow = ver.feynman_kac_check(pow_single, dt=1e-3, n_paths=100_000,
                                    seed=424242, solution=sol)
    elapsed = time.perf_counter() - t0
    ok = rep_exp.passed and rep_pow.passed and elapsed < 300.0
    diffs = [f"gamma {r.gamma}: |diff| {r.abs_diff:.1e} <= {r.tolerance:.1e}"
             for r in (*rep_exp.results, *rep_pow.results)]
    _report(8, "Monte Carlo expectations match the analytic solutions", ok,
            "; ".join(diffs) + f"; {elapsed:.0f}s < 300s")


def test_criterion_9_figure_shapes():
    panels = sweeps.figure_data(points=15)
    violations = sweeps.validate_shapes(panels, band=1e-10)
    _report(9, "bundled figure data reproduces all qualitative claims",
            not violations,
            f"{len(panels)} panels, violations: {violations if violations else 'none'}")
