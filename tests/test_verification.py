import dataclasses
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings

from delaris import cli
from delaris import power as powmod
from delaris import sweeps
from delaris import verification as ver
from delaris.exceptions import DomainError, ParameterError
from delaris.model import DelayParams, FinancialParams, ModelParams, RiskAversionDist
from delaris.utility import EXPONENTIAL, POWER, inverse_utility_d2
from helpers import aggregated_value_identity
from test_cli import _models

T_GRID = np.linspace(0.0, 2.0, 6)
X_GRID = np.linspace(0.2, 1.2, 6)
M1_GRID = np.linspace(0.3, 1.2, 6)


@pytest.fixture(scope="module")
def pow_sol(pow_case1):
    return powmod.solve_growth_factors(pow_case1, dt=1e-3)


def test_generator_terms_hand_example(exp_case1):
    # phi = w^2 with w = x + beta*m1: no time channel; drift, diffusion and
    # the memory channel (through dphi/dm1 = beta*2w) remain
    c, co, fin = exp_case1.constants, exp_case1.coeffs, exp_case1.financial
    d = exp_case1.delay
    x, m1, m2, q, pi = 0.8, 0.7, 0.6, 0.3, 0.4
    w = x + d.beta * m1
    jet = ver.Jet(phi_t=0.0, phi_w=2 * w, phi_ww=2.0)
    time_term, drift, diff, mem = ver.generator_terms(jet, exp_case1, x, m1, m2, q, pi)
    assert time_term == 0.0
    exp_drift = (c.A * x + pi * (fin.mu - fin.r) + c.B * m1 + c.C * m2
                 + co.a * co.eta + co.a * co.eta2 * q) * 2 * w
    assert drift == pytest.approx(exp_drift, rel=1e-14)
    assert diff == pytest.approx(0.5 * (co.b2 * q**2 + fin.sigma**2 * pi**2) * 2.0, rel=1e-14)
    exp_mem = (x - d.alpha * m1 - math.exp(-d.alpha * d.h) * m2) * d.beta * 2 * w
    assert mem != 0.0
    assert mem == pytest.approx(exp_mem, rel=1e-14)


def test_expectation_residual_exponential(exp_case1):
    grid = ver.expectation_pde_residual(exp_case1, T_GRID, X_GRID, M1_GRID, m2=0.6)
    assert grid.max_scaled < 1e-12
    assert grid.rms_scaled <= grid.max_scaled
    assert grid.scaled.shape == (2, 6, 6, 6)  # one slab per gamma


def test_expectation_residual_ignores_lagged_argument(exp_case1):
    a = ver.expectation_pde_residual(exp_case1, T_GRID, X_GRID, M1_GRID, m2=0.6)
    b = ver.expectation_pde_residual(exp_case1, T_GRID, X_GRID, M1_GRID, m2=7.5)
    assert b.max_scaled < 1e-12
    assert abs(a.max_scaled - b.max_scaled) < 1e-12


def test_expectation_residual_power(pow_case1, pow_sol):
    grid = ver.expectation_pde_residual(
        pow_case1, T_GRID, X_GRID, M1_GRID, m2=0.6, solution=pow_sol)
    assert grid.max_scaled < 1e-12


def test_power_closed_form_route(pow_case1, pow_sol):
    # with no solution a slice reads the closed-form factors at exactly its
    # time; at the nodes of the RK4 solution the two routes agree
    grid = ver.expectation_pde_residual(pow_case1, T_GRID, X_GRID, M1_GRID, m2=0.6)
    assert grid.max_scaled < 1e-12
    opt = ver.optimality_residual(pow_case1, T_GRID, X_GRID, M1_GRID, m2=0.6)
    assert opt.max_scaled_sup < 1e-12 and opt.max_cell_distance <= 1.0 and opt.concave
    w = np.linspace(0.3, 1.5, 5)
    for t in pow_sol.t[::250]:
        (q, pi_x), jets, u, curv = next(ver._slices(pow_case1, None, [t], w))
        (q_rk, pi_rk), jets_rk, u_rk, curv_rk = next(ver._slices(pow_case1, pow_sol, [t], w))
        np.testing.assert_allclose([q, pi_x], [q_rk, pi_rk], rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(curv, curv_rk, rtol=1e-12, atol=0.0)
        for jet, jet_rk in zip([*jets, u], [*jets_rk, u_rk]):
            for field, field_rk in zip(dataclasses.astuple(jet), dataclasses.astuple(jet_rk)):
                np.testing.assert_allclose(field, field_rk, rtol=1e-12, atol=0.0)


def test_fault_injection_lifts_residual(exp_case1):
    clean = ver.expectation_pde_residual(exp_case1, T_GRID, X_GRID, M1_GRID, m2=0.6)
    for name in ("A", "B", "C", "kappa"):
        for rel in (0.01, -0.01):
            bad = ver.perturb_constants(exp_case1, name, rel)
            lifted = ver.expectation_pde_residual(bad, T_GRID, X_GRID, M1_GRID, m2=0.6)
            assert lifted.max_scaled > 100 * max(clean.max_scaled, 1e-14), (name, rel)


def test_fault_injection_power(pow_case1, pow_sol):
    clean = ver.expectation_pde_residual(
        pow_case1, T_GRID, X_GRID, M1_GRID, m2=0.6, solution=pow_sol)
    bad = ver.perturb_constants(pow_case1, "C", 0.01)
    lifted = ver.expectation_pde_residual(
        bad, T_GRID, X_GRID, M1_GRID, m2=0.6, solution=pow_sol)
    assert lifted.max_scaled > 100 * max(clean.max_scaled, 1e-14)


def test_perturb_constants_validation(exp_case1):
    with pytest.raises(ParameterError):
        ver.perturb_constants(exp_case1, "D", 0.01)
    flat = ver.perturb_constants(exp_case1, "kappa", -1.0)
    assert flat.constants.kappa == 0.0
    # other constants untouched
    assert flat.constants.A == exp_case1.constants.A


def test_optimality_exponential(exp_case1):
    res = ver.optimality_residual(exp_case1, T_GRID, X_GRID, M1_GRID, m2=0.6)
    assert res.max_scaled_sup < 1e-12
    assert res.max_cell_distance <= 1.0
    assert res.max_first_order_gap <= ver.OPTIMALITY_GAP_TOL
    assert res.concave
    assert res.n_nodes == 216


def test_optimality_power(pow_case1, pow_sol):
    res = ver.optimality_residual(
        pow_case1, T_GRID, X_GRID, M1_GRID, m2=0.6, solution=pow_sol)
    assert res.max_scaled_sup < 1e-12
    assert res.max_cell_distance <= 1.0
    assert res.max_first_order_gap <= ver.OPTIMALITY_GAP_TOL
    assert res.concave


@pytest.mark.parametrize("family", ["exponential", "power"])
def test_optimality_detects_wrong_candidate(family):
    # a faulted decay constant shifts the candidate off the true argmax; the
    # power factors are solved from the faulted model, as verify
    # --fault-kappa does
    bad = ver.perturb_constants(sweeps.baseline_params(family, "I"), "kappa", 0.2)
    sol = powmod.growth_factors(bad, 1e-3) if family == "power" else None
    res = ver.optimality_residual(bad, T_GRID, X_GRID, M1_GRID, m2=0.6, solution=sol)
    assert res.max_scaled_sup > 1e-6 or res.max_cell_distance > 1.0


def test_coefficient_split(exp_case1):
    for gamma in exp_case1.dist.gammas:
        for t in (0.0, 1.0, 2.0):
            split = ver.coefficient_split_check(exp_case1, gamma, t)
            assert split.slope_scaled < 1e-12
            assert split.intercept_scaled < 1e-12
    polluted = ver.coefficient_split_check(exp_case1, 0.5, 1.0, g1_factor=1.01)
    assert polluted.slope_scaled > 1e-4
    assert polluted.intercept_scaled > 1e-6


def test_aggregated_value_identity(exp_case1, pow_case1, pow_sol):
    for t, x, m1 in ((0.0, 0.6, 0.75), (1.3, 0.9, 0.5)):
        h, u = aggregated_value_identity(exp_case1, t, x, m1)
        assert h == pytest.approx(u, rel=1e-12)
        hp, up = aggregated_value_identity(pow_case1, t, x, m1, solution=pow_sol)
        assert hp == pytest.approx(up, rel=1e-12)


def test_feynman_kac_quick(exp_case1):
    rep = ver.feynman_kac_check(exp_case1, dt=4e-3, n_paths=4000, seed=902)
    assert rep.passed
    assert len(rep.results) == 2
    assert rep.excluded_paths == 0
    for r in rep.results:
        assert r.abs_diff <= r.tolerance


def test_feynman_kac_power(pow_single):
    sol = powmod.solve_growth_factors(pow_single, dt=1e-3)
    rep = ver.feynman_kac_check(pow_single, dt=4e-3, n_paths=4000, seed=902, solution=sol)
    assert rep.passed


def test_feynman_kac_detects_wrong_reference(exp_case1):
    # a heavily faulted constant moves the analytic reference away from the
    # simulated expectation by much more than the statistical band
    bad = ver.perturb_constants(exp_case1, "kappa", 0.5)
    rep = ver.feynman_kac_check(bad, dt=4e-3, n_paths=20000, seed=902)
    assert not rep.passed


@pytest.mark.parametrize("family", ["exponential", "power"])
def test_optimality_with_zero_candidate(family):
    # mu == r is admissible and makes the invested amount zero; its
    # first-order gap is measured on the node's wealth and stays finite
    base = sweeps.baseline_params(family, "I")
    params = ModelParams.build(
        insurance=base.insurance,
        financial=dataclasses.replace(base.financial, mu=base.financial.r),
        delay=base.delay, dist=base.dist, horizon=base.horizon, x0=base.x0)
    sol = powmod.solve_growth_factors(params, dt=1e-3) if family == "power" else None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = ver.optimality_residual(
            params, T_GRID[::2], X_GRID[::2], M1_GRID[::2], m2=0.6, solution=sol)
    assert math.isfinite(res.max_cell_distance)
    assert res.max_cell_distance <= 1.0
    assert res.max_first_order_gap <= ver.OPTIMALITY_GAP_TOL
    assert res.max_scaled_sup < 1e-12
    assert res.concave


def _random_models(family, n, seed):
    """Seeded admissible models around the baseline: market, memory and a
    two-atom risk-aversion distribution drawn at random."""
    base = sweeps.baseline_params(family, "I")
    rng = np.random.default_rng(seed)
    lo, hi = (0.1, 3.0) if family == "exponential" else (0.2, 0.95)
    for _ in range(n):
        r = rng.uniform(0.01, 0.3)
        gammas = rng.uniform(lo, hi, size=2)
        p = rng.uniform(0.1, 0.9)
        yield ModelParams.build(
            insurance=base.insurance,
            financial=FinancialParams(r=r, mu=r + rng.uniform(0.0, 0.3),
                                      sigma=rng.uniform(0.2, 1.0)),
            delay=DelayParams(alpha=rng.uniform(0.0, 2.0), beta=rng.uniform(0.0, 1.0),
                              h=rng.uniform(0.1, 5.0)),
            dist=RiskAversionDist(family=family,
                                  points=((gammas[0], p), (gammas[1], 1.0 - p))),
            horizon=base.horizon,
            x0=base.x0,
        )


@pytest.mark.parametrize("family", ["exponential", "power"])
def test_jets_on_random_models(family):
    t_vals, x_vals, m1_vals = np.linspace(0.0, 2.0, 3), X_GRID[::2], M1_GRID[::2]
    for params in _random_models(family, 10, seed=5150 if family == "power" else 5151):
        sol = powmod.solve_growth_factors(params, dt=1e-3) if family == "power" else None
        clean = ver.expectation_pde_residual(
            params, t_vals, x_vals, m1_vals, m2=0.6, solution=sol).max_scaled
        assert clean <= 1e-12, params
        for t, x, m1 in ((0.0, 0.6, 0.75), (1.3, 0.9, 0.5)):
            h, u = aggregated_value_identity(params, t, x, m1, solution=sol)
            assert h == pytest.approx(u, rel=1e-12), params
        bad = ver.perturb_constants(params, "C", 0.01)
        lifted = ver.expectation_pde_residual(
            bad, t_vals, x_vals, m1_vals, m2=0.6, solution=sol).max_scaled
        assert lifted >= 100 * max(clean, 1e-14), params


def test_checks_read_the_factors_in_one_call(pow_case1, pow_case2):
    # a check evaluates the closed form at all its times at once; that
    # agrees with one evaluation per time to rounding, and so do the slices
    t_vals = np.linspace(0.0, 2.0, 10)
    w = np.linspace(0.3, 1.5, 5)
    for params in (pow_case1, pow_case2):
        g, varpi = powmod.factors(params, t_vals)
        for t, slc, g_a, varpi_a in zip(t_vals, ver._slices(params, None, t_vals, w), g, varpi):
            g_t, varpi_t = powmod.factors(params, t)
            np.testing.assert_allclose(g_a, g_t, rtol=1e-15, atol=0.0)
            np.testing.assert_allclose(varpi_a, varpi_t, rtol=1e-15, atol=0.0)
            (q, pi_x), jets, u, curv = slc
            (q_t, pi_t), jets_t, u_t, curv_t = next(ver._slices(params, None, [t], w))
            np.testing.assert_allclose([q, pi_x], [q_t, pi_t], rtol=1e-15, atol=0.0)
            np.testing.assert_allclose(curv, curv_t, rtol=1e-14, atol=0.0)
            for jet, jet_t in zip([*jets, u], [*jets_t, u_t]):
                for field, field_t in zip(dataclasses.astuple(jet), dataclasses.astuple(jet_t)):
                    np.testing.assert_allclose(field, field_t, rtol=1e-14, atol=0.0)


def _cli_grid(params):
    """The (t, x, m1) grid of ``verify``."""
    return (np.linspace(0.0, params.horizon, 10), np.linspace(0.2, 1.2, 10),
            np.linspace(0.3, 1.2, 10))


def _passes(res):
    """The optimality gate of ``verify``."""
    return (res.max_scaled_sup <= 1e-6 and res.concave
            and res.max_first_order_gap <= ver.OPTIMALITY_GAP_TOL)


@pytest.mark.parametrize("case", ["I", "II"])
@pytest.mark.parametrize("family", ["exponential", "power"])
def test_curvature_is_the_inverse_utility_form(family, case):
    # the phi-free curvature equals sum_i p_i (u_i^{-1})''(phi_i) phi_i,w^2
    # read through the inverse utility itself, phi_i from the family's
    # ansatz and phi_i,w as the jet's log-derivative times phi_i; the power
    # curvature is divided by the certainty factor, as the value jet is
    params = sweeps.baseline_params(family, case)
    w = np.linspace(0.3, 1.5, 5)
    for t, (_, jets, _, curvature) in zip(T_GRID, ver._slices(params, None, T_GRID, w)):
        phis = ver._ansatz_values(params, None, t, w, 0.0)
        direct = sum(p * inverse_utility_d2(family, gamma, phi) * (jet.phi_w * phi)**2
                     for (gamma, p), jet, phi in zip(params.dist.points, jets, phis))
        if family != EXPONENTIAL:
            curvature = curvature * powmod.certainty_factor(None, params, t)
        np.testing.assert_allclose(curvature, direct, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("control", [0, 1], ids=["q", "pi"])
@pytest.mark.parametrize("family", ["exponential", "power"])
def test_optimality_detects_control_off_by_a_tenth_percent(family, control, monkeypatch,
                                                          tmp_path):
    # the vertex's value does not read the candidate, so the sup stays at
    # roundoff; the first-order gap reads the candidate's 0.1% error
    slices = ver._slices

    def faulted(*args):
        for controls, jets, u, curvature in slices(*args):
            controls = list(controls)
            controls[control] = controls[control] * (1.0 + 1e-3)
            yield tuple(controls), jets, u, curvature

    monkeypatch.setattr(ver, "_slices", faulted)
    params = sweeps.baseline_params(family, "I")
    res = ver.optimality_residual(params, T_GRID, X_GRID, M1_GRID, m2=0.6)
    assert res.concave and res.max_scaled_sup < 1e-12
    assert res.max_first_order_gap == pytest.approx(1e-3 / (1.0 + 1e-3), rel=1e-9)
    assert not _passes(res)
    out = tmp_path / "out"
    assert cli.main(["verify", "--family", family, "--check", "optimality",
                     "--out", str(out)]) == 2
    report = json.loads((out / "verify_report.json").read_text())["checks"]["optimality"]
    assert report["max_first_order_gap"] > report["gap_tolerance"] == ver.OPTIMALITY_GAP_TOL


@pytest.mark.parametrize("family", ["exponential", "power"])
@pytest.mark.parametrize("sign", [0.0, -1.0], ids=["flat", "convex"])
def test_optimality_without_concavity_fails_finite(family, sign, monkeypatch):
    # a curvature that leaves quad >= 0 has no vertex to read: the check
    # fails on concavity alone, warning-free and with every number finite
    slices = ver._slices

    def flipped(*args):
        for controls, jets, u, curvature in slices(*args):
            yield controls, jets, u, sign * curvature

    monkeypatch.setattr(ver, "_slices", flipped)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = ver.optimality_residual(sweeps.baseline_params(family, "I"),
                                      T_GRID, X_GRID, M1_GRID, m2=0.6)
    assert not res.concave
    assert all(map(math.isfinite, (res.max_scaled_sup, res.max_first_order_gap,
                                   res.max_cell_distance)))


@pytest.mark.parametrize("family", ["exponential", "power"])
def test_optimality_fails_on_a_nan_slice(family, monkeypatch):
    # one time whose controls, value jet and curvature are NaN, as where a
    # factor's weight overflowed, fails the verdict instead of being skipped
    slices = ver._slices

    def one_nan(*args):
        for k, (controls, jets, u, curvature) in enumerate(slices(*args)):
            if k == 2:
                nan = np.full(np.shape(controls[0]), np.nan)
                controls, u, curvature = (nan, nan), ver.Jet(nan, nan, nan), nan
            yield controls, jets, u, curvature

    monkeypatch.setattr(ver, "_slices", one_nan)
    res = ver.optimality_residual(sweeps.baseline_params(family, "I"),
                                  T_GRID, X_GRID, M1_GRID, m2=0.6)
    assert math.isnan(res.max_scaled_sup) and math.isnan(res.max_first_order_gap)
    assert not res.concave and not _passes(res)


_PAST_RANGE = json.loads(Path(__file__).with_name("optimality_models.json").read_text())


@pytest.mark.parametrize("index", range(len(_PAST_RANGE)))
def test_optimality_on_exponential_models_past_the_ansatz_range(index, tmp_path):
    # each exponential model's ansatz underflows or overflows at some nodes,
    # which raised DomainError or a RuntimeWarning while the curvature read
    # phi, and EvaluationError while the jets read phi; each power model has
    # a finite factor whose weight g^{gamma/(1-gamma)} overflowed while the
    # slices read the factors and not varpi alone
    config = tmp_path / "model.json"
    config.write_text(json.dumps(_PAST_RANGE[index]))
    params = cli.load_config(str(config))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = ver.optimality_residual(params, *_cli_grid(params), m2=params.x0)
        assert _passes(res), res
        grid = ver.expectation_pde_residual(params, *_cli_grid(params), m2=params.x0)
        assert grid.max_scaled <= 1e-6, grid.max_scaled
        for check in ("optimality", "expectation"):
            assert cli.main(["verify", "--case", "custom", "--config", str(config),
                             "--check", check, "--out", str(tmp_path / check)]) == 0


@settings(max_examples=100, deadline=None, derandomize=True)
@given(params=_models())
def test_optimality_verdict_on_admitted_exponential_models(params):
    # every admitted exponential model passes the optimality and expectation
    # checks, warning-free, also where its ansatz leaves the float range
    assume(params.dist.family == EXPONENTIAL)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = ver.optimality_residual(params, *_cli_grid(params), m2=params.x0)
        grid = ver.expectation_pde_residual(params, *_cli_grid(params), m2=params.x0)
    assert _passes(res), res
    assert grid.max_scaled <= 1e-6, grid.max_scaled


def _model_of(config):
    """The model ``load_config`` builds from a JSON config dict."""
    return ModelParams.build(
        **{name: cls(**config[name]) for name, cls in cli._CONFIG_SECTIONS.items()},
        dist=RiskAversionDist(config["risk_aversion"]["family"],
                              tuple(map(tuple, config["risk_aversion"]["points"]))),
        horizon=config["horizon"], x0=config["x0"])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(params=_models())
@example(params=_model_of(_PAST_RANGE[-1]))
def test_optimality_verdict_on_admitted_power_models(params):
    # every admitted power model passes the optimality and expectation
    # checks, warning-free, also where a factor's weight leaves the float
    # range, or raises the DomainError that names its explosion time
    assume(params.dist.family == POWER)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            res = ver.optimality_residual(params, *_cli_grid(params), m2=params.x0)
            grid = ver.expectation_pde_residual(params, *_cli_grid(params), m2=params.x0)
        except DomainError as err:
            assert f"exploded at t={powmod.growth_factors(params).explosion_time}" in str(err)
            return
    assert _passes(res), res
    assert grid.max_scaled <= 1e-6, grid.max_scaled
