import math
import warnings

import numpy as np
import pytest

from delaris import power as powmod
from delaris.exceptions import DomainError, EvaluationError, ParameterError
from delaris.model import ModelParams, RiskAversionDist
from delaris.utility import POWER, utility
from helpers import levered, random_power_models, single_gamma_value

# frozen references: step-doubled first-order integration at dt = 1e-6
# (helpers.richardson_growth), independent of the RK4 solver under test
G0_CASE1 = (1.3000393046659242, 1.0265628314491584)
VARPI0_CASE1 = 0.6973552528424453
G0_CASE2 = (1.3052813922522757, 1.0256428155559951)
VARPI0_CASE2 = 0.577561764079297
# closed form for the collapsed single-gamma model
G0_SINGLE = 1.3068434592081293
V0_SINGLE = 0.8336710325890428
Q0_SINGLE = 0.19137817005891404
PI0_SINGLE = 0.35440401862761859


@pytest.fixture(scope="module")
def sol1(pow_case1):
    return powmod.solve_growth_factors(pow_case1, dt=1e-4)


def test_growth_factors_match_reference(sol1, pow_case2):
    np.testing.assert_allclose(sol1.g[0], G0_CASE1, rtol=1e-9)
    assert sol1.varpi[0] == pytest.approx(VARPI0_CASE1, rel=1e-9)
    sol2 = powmod.solve_growth_factors(pow_case2, dt=1e-4)
    np.testing.assert_allclose(sol2.g[0], G0_CASE2, rtol=1e-9)
    assert sol2.varpi[0] == pytest.approx(VARPI0_CASE2, rel=1e-9)


def test_terminal_and_bounds(sol1, pow_case1):
    assert sol1.t[0] == 0.0 and sol1.t[-1] == 2.0
    np.testing.assert_array_equal(sol1.g[-1], 1.0)
    # aggregated gamma starts at the plain mean and never leaves the hull
    assert sol1.varpi[-1] == pytest.approx(pow_case1.mean_gamma, abs=1e-12)
    assert np.all(sol1.varpi >= 0.5 - 1e-12) and np.all(sol1.varpi <= 0.9 + 1e-12)
    # it can only grow along calendar time
    assert np.all(np.diff(sol1.varpi) >= -1e-12)


def test_single_gamma_closed_form(pow_single):
    sol = powmod.solve_growth_factors(pow_single, dt=1e-4)
    assert sol.g[0][0] == pytest.approx(G0_SINGLE, rel=1e-10)
    assert sol.varpi[0] == pytest.approx(0.5, abs=1e-14)
    for t in (0.0, 0.75, 2.0):
        closed = powmod.single_gamma_growth(pow_single, 0.5, t)
        assert powmod.g_at(sol, t)[0] == pytest.approx(closed, rel=1e-10)
    v = powmod.value(sol, pow_single, 0.0, pow_single.x0, pow_single.m1_0)
    assert v == pytest.approx(V0_SINGLE, rel=1e-10)
    assert v == pytest.approx(
        single_gamma_value(pow_single, 0.5, 0.0, pow_single.x0, pow_single.m1_0),
        rel=1e-10,
    )
    q0, pi0 = powmod.strategy(sol, pow_single, 0.0, pow_single.x0, pow_single.m1_0)
    assert q0 == pytest.approx(Q0_SINGLE, rel=1e-10)
    assert pi0 == pytest.approx(PI0_SINGLE, rel=1e-10)


def test_rk4_order(pow_single):
    # single-gamma truncation error vs the exact solution must shrink ~16x
    # per halving; coarse steps keep it far above the rounding floor
    exact = powmod.single_gamma_growth(pow_single, 0.5, 0.0)
    errs = []
    for dt in (0.2, 0.1):
        sol = powmod.solve_growth_factors(pow_single, dt=dt)
        errs.append(abs(sol.g[0][0] - exact))
    factor = errs[0] / errs[1]
    assert 12.0 <= factor <= 20.0


def test_strategy_scales_with_effective_wealth(sol1, pow_case1):
    q1, p1 = powmod.strategy(sol1, pow_case1, 0.5, 0.6, 0.8)
    q2, p2 = powmod.strategy(sol1, pow_case1, 0.5, 1.2, 1.6)
    assert q2 == pytest.approx(2 * q1, rel=1e-13)
    assert p2 == pytest.approx(2 * p1, rel=1e-13)
    with pytest.raises(DomainError):
        powmod.strategy(sol1, pow_case1, 0.5, -1.0, 0.0)


def test_terminal_value_and_ansatz(sol1, pow_case1):
    rng = np.random.default_rng(17)
    for _ in range(10):
        x = rng.uniform(0.1, 2.0)
        m1 = rng.uniform(0.1, 2.0)
        w = x + pow_case1.delay.beta * m1
        assert powmod.value(sol1, pow_case1, 2.0, x, m1) == pytest.approx(w, rel=1e-12)
        for i, gamma in enumerate(pow_case1.dist.gammas):
            got = powmod.ansatz(sol1, pow_case1, i, 2.0, x, m1)
            assert got == pytest.approx(utility(POWER, gamma, w), rel=1e-12)
    assert powmod.certainty_factor(sol1, pow_case1, 2.0) == pytest.approx(1.0, abs=1e-14)


def test_none_is_the_closed_form_for_every_reader(pow_case1, pow_case2):
    # a solution of None reads gammas and probs from the model, as
    # ``strategy`` and ``factors`` do: each reader equals its value on the
    # closed-form grid solution, whose nodes are ``factors`` bit for bit
    x, m1 = 0.7, 0.4
    for params in (pow_case1, pow_case2):
        grid = powmod.growth_factors(params, dt=0.5)
        w = x + params.delay.beta * m1
        for t in grid.t.tolist():
            cf = powmod.certainty_factor(None, params, t)
            assert cf == powmod.certainty_factor(grid, params, t)
            assert powmod.value(None, params, t, x, m1) == w * cf
            assert powmod.value(None, params, t, x, m1) == powmod.value(grid, params, t, x, m1)
            for i in range(params.dist.n):
                assert (powmod.ansatz(None, params, i, t, x, m1)
                        == powmod.ansatz(grid, params, i, t, x, m1))
            assert powmod.varpi_rate(None, params, t) == powmod.varpi_rate(grid, params, t)


def test_varpi_rate_residual_small(pow_case1):
    sol = powmod.solve_growth_factors(pow_case1, dt=1e-3)
    assert powmod.varpi_rate_residual(sol, pow_case1, 1.0) < 1e-8


def test_interpolation_hits_nodes(sol1):
    k = 777
    np.testing.assert_array_equal(powmod.g_at(sol1, float(sol1.t[k])), sol1.g[k])
    assert powmod.varpi_at(sol1, float(sol1.t[k])) == sol1.varpi[k]


def test_aggregate_gamma_one_point():
    w = powmod.aggregate_gamma(np.array([1.7]), np.array([0.5]), np.array([1.0]))
    assert w == pytest.approx(0.5, rel=1e-15)


def test_explosion_flagged(pow_case1):
    tiny = ModelParams.build(
        insurance=pow_case1.insurance,
        financial=pow_case1.financial,
        delay=pow_case1.delay,
        dist=RiskAversionDist(family=POWER, points=((1e-4, 1.0),)),
        horizon=2.0,
        x0=0.6,
    )
    sol = powmod.solve_growth_factors(tiny, dt=1e-4)
    assert sol.exploded
    assert sol.explosion_time is not None and 0.0 < sol.explosion_time < 2.0
    assert sol.t[0] == pytest.approx(sol.explosion_time)
    # queries inside the truncated region must fail loudly
    with pytest.raises(DomainError, match="explod"):
        powmod.g_at(sol, 0.5 * sol.explosion_time)
    # while the surviving tail still answers
    g_tail = powmod.g_at(sol, float(sol.t[len(sol.t) // 2]))
    assert np.all(np.isfinite(g_tail))


def test_explosion_is_quiet(pow_case1):
    # one nearly risk-neutral atom overflows a step; the march ends there
    # without a floating-point warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = powmod.solve_growth_factors(levered(pow_case1), dt=1e-4)
    assert sol.exploded
    assert sol.explosion_time == pytest.approx(1.5968)


def test_varpi_rows_match_aggregate_gamma(pow_case1, pow_case2):
    # a marched grid's varpi column and one row's aggregate sum the atoms in
    # one order; a closed-form grid's column is the varpi ``factors`` reads
    # at its times, also past three atoms
    rk4 = powmod.solve_growth_factors(pow_case2, dt=1e-3)
    for g_row, varpi in zip(rk4.g, rk4.varpi):
        assert varpi == powmod.aggregate_gamma(g_row, rk4.gammas, rk4.probs)
    for m in random_power_models(40, seed=4242, base=pow_case1):
        sol = powmod.growth_factors(m, dt=1e-2)
        np.testing.assert_array_equal(sol.varpi, powmod.factors(m, sol.t)[1])


def _reference_rate(g, gam, p, kappa, g2c):
    """The factor rate of one model on 1-D arrays with a NumPy-scalar varpi,
    written apart from the package: the rounding the march must reproduce."""
    w = np.exp(gam / (1.0 - gam) * np.log(g)) * p
    varpi = (w @ gam) / w.sum()
    return (1.0 - gam) / gam * (-kappa - g2c / varpi + 0.5 * gam * g2c / (varpi * varpi)) * g


def _reference_march(params, dt):
    """A plain one-model RK4 on ``_reference_rate``. Returns the last valid
    factors and their node index."""
    gam, p = np.array(params.dist.gammas), np.array(params.dist.probs)
    kappa, g2c = params.constants.kappa, params.g2

    def rate(g):
        return _reference_rate(g, gam, p, kappa, g2c)

    g, k = np.ones(len(gam)), round(params.horizon / dt)
    with np.errstate(all="ignore"):
        while k > 0:
            k1 = rate(g)
            k2 = rate(g - 0.5 * dt * k1)
            k3 = rate(g - 0.5 * dt * k2)
            k4 = rate(g - dt * k3)
            g_new = g - dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all((g_new > 0.0) & (g_new < np.inf)):
                break
            g, k = g_new, k - 1
    return g, k


def test_solve_matches_reference_march(pow_case1):
    # a solve ends bit for bit where the plain 1-D reference march ends, and
    # its varpi rows agree with aggregate_gamma
    dt = 4e-3
    for params in random_power_models(20, seed=4242, base=pow_case1):
        sol = powmod.solve_growth_factors(params, dt=dt)
        ref_g, ref_k = _reference_march(params, dt)
        assert ref_k == round(2.0 / dt) - (len(sol.t) - 1)
        np.testing.assert_array_equal(sol.g[0], ref_g)
        for g_row, varpi in zip(sol.g, sol.varpi):
            assert varpi == powmod.aggregate_gamma(g_row, sol.gammas, sol.probs)


def test_initial_strategy_matches_strategy_at_time_zero(pow_case1, pow_case2):
    # the one-node controls are the t = 0 controls of the closed form on its
    # default grid and of RK4 at dt 1e-4. RK4's own error there reaches
    # 1.5e-13 (random model 13; 8.9e-15 at dt 5e-5), hence its wider band
    models = [pow_case1, pow_case2, *random_power_models(20, seed=4242, base=pow_case1)]
    for params in models:
        got = powmod.initial_strategy(params)
        for sol, rtol in ((powmod.growth_factors(params), 5e-14),
                          (powmod.solve_growth_factors(params, dt=1e-4), 2e-13)):
            want = powmod.strategy(sol, params, 0.0, params.x0, params.m1_0)
            np.testing.assert_allclose(got, want, rtol=rtol, atol=0.0)


@pytest.mark.parametrize("dt", [None, 2.0 / 49])
def test_time_zero_row_is_the_closed_form_at_zero(pow_case1, pow_case2, dt):
    # the t = 0 row is evaluated at tau = T - 0, as factors(m, 0.0) is; at
    # dt = 2/49 the node's dt*49 is 1.9999999999999998, not T, which moved
    # the last bits of g(0) for 7 of these 10 random models. The time-zero
    # controls read the closed-form varpi of factors(m, 0.0)
    for params in (pow_case1, pow_case2, *random_power_models(10, seed=4242, base=pow_case1)):
        sol = powmod.growth_factors(params, dt)
        g, varpi = powmod.factors(params, 0.0)
        assert sol.t[0] == 0.0
        np.testing.assert_array_equal(sol.g[0], g)
        assert powmod.initial_strategy(params) == powmod._controls(params, params.w0, float(varpi))


def test_unresolvable_integral_fails_its_own_points(pow_case1):
    # psi^2 is subnormal next to gamma_min = 1e-320 and its panels never
    # settle: they stop at the panel cap with an EvaluationError instead of
    # exhausting memory, and only the points of that distribution carry it
    bad = ModelParams.build(
        insurance=pow_case1.insurance, financial=pow_case1.financial, delay=pow_case1.delay,
        dist=RiskAversionDist(family=POWER, points=((1e-320, 0.5), (0.9, 0.5))),
        horizon=pow_case1.horizon, x0=pow_case1.x0)
    err, good = powmod.initial_strategies([bad, pow_case1])
    assert isinstance(err, EvaluationError) and "not resolved" in str(err)
    assert good == powmod.initial_strategy(pow_case1)
    with pytest.raises(EvaluationError, match="not resolved"):
        powmod.initial_strategy(bad)


def test_closed_form_nodes_do_not_depend_on_their_batch(pow_case1):
    # a node's (g, varpi) is a function of its model and time alone: single
    # times and random subsets read the rows of growth_factors, whose blocks
    # partition the grid otherwise, bit for bit
    rng = np.random.default_rng(23)
    for params in random_power_models(40, seed=4242, base=pow_case1):
        sol = powmod.growth_factors(params, dt=1e-3)
        _, varpi_all = powmod.factors(params, sol.t)
        for k in rng.choice(len(sol.t), 3, replace=False):
            g, varpi = powmod.factors(params, sol.t[k])
            np.testing.assert_array_equal(g, sol.g[k])
            assert varpi == varpi_all[k]
        subset = rng.choice(len(sol.t), int(rng.integers(2, len(sol.t))), replace=False)
        g, varpi = powmod.factors(params, sol.t[subset])
        np.testing.assert_array_equal(g, sol.g[subset])
        np.testing.assert_array_equal(varpi, varpi_all[subset])


@pytest.mark.parametrize("shape", [(), (0,), (7,), (5, 3)])
def test_factors_from_both_sources_share_one_shape_contract(pow_case2, shape):
    # the closed form and a grid solution answer the same (g, varpi) call:
    # g has shape t.shape + (n,) and varpi t.shape
    sol = powmod.solve_growth_factors(pow_case2, dt=1e-3)
    t = np.linspace(0.0, 2.0, math.prod(shape)).reshape(shape)
    for source in (None, sol):
        g, varpi = powmod.factors(pow_case2, t, source)
        assert g.shape == shape + (2,) and varpi.shape == shape
    # the grid route, read last, is g_at and varpi_at time by time, bit for bit
    for t_k, g_k, varpi_k in zip(t.ravel(), g.reshape(-1, 2), varpi.ravel()):
        np.testing.assert_array_equal(g_k, powmod.g_at(sol, t_k))
        assert varpi_k == powmod.varpi_at(sol, t_k)


def test_factors_of_a_solution_match_g_at_and_varpi_at(pow_case2):
    sol = powmod.solve_growth_factors(pow_case2, dt=1e-3)
    times = np.minimum(np.arange(3001) * (2.0 / 3000), 2.0)  # between and on nodes
    g, varpi = powmod.factors(pow_case2, times, sol)
    np.testing.assert_array_equal(g, [powmod.g_at(sol, float(t)) for t in times])
    np.testing.assert_array_equal(varpi, [powmod.varpi_at(sol, float(t)) for t in times])
    exploded = powmod.solve_growth_factors(levered(pow_case2), dt=1e-3)
    with pytest.raises(DomainError, match="exploded") as on:
        powmod.factors(levered(pow_case2), times, exploded)
    with pytest.raises(DomainError) as at:
        powmod.varpi_at(exploded, 0.0)
    assert str(on.value) == str(at.value)


def test_family_guard(exp_case1):
    with pytest.raises(ParameterError):
        powmod.solve_growth_factors(exp_case1, dt=1e-3)


def test_dt_must_divide_horizon(pow_case1):
    with pytest.raises(ParameterError):
        powmod.solve_growth_factors(pow_case1, dt=0.0003)


def test_csv_round_trip(tmp_path, pow_case1):
    # a gamma with more than 6 significant digits must read back exactly
    fine = ModelParams.build(
        insurance=pow_case1.insurance,
        financial=pow_case1.financial,
        delay=pow_case1.delay,
        dist=RiskAversionDist(family=POWER, points=((0.123456789, 0.5), (0.9, 0.5))),
        horizon=pow_case1.horizon,
        x0=pow_case1.x0,
    )
    for params, header in ((pow_case1, "t,varpi,g_0.5,g_0.9"),
                           (fine, "t,varpi,g_0.123456789,g_0.9")):
        sol = powmod.solve_growth_factors(params, dt=1e-2)
        path = tmp_path / "growth.csv"
        powmod.write_csv(sol, path)
        text = path.read_text().splitlines()
        assert text[0].startswith("# power growth factors:")
        assert text[1] == header
        back = powmod.read_csv(path)
        np.testing.assert_array_equal(back.t, sol.t)
        np.testing.assert_array_equal(back.g, sol.g)
        np.testing.assert_array_equal(back.varpi, sol.varpi)
        assert back.gammas == sol.gammas == params.dist.gammas
        assert back.probs == sol.probs
        assert back.dt == sol.dt and back.horizon == sol.horizon
        assert back.exploded == sol.exploded and back.explosion_time == sol.explosion_time
        assert powmod.varpi_at(back, 0.0) == powmod.varpi_at(sol, 0.0)


def test_factor_columns_are_contiguous(pow_case2, tmp_path):
    # g_at interpolates one column per atom; a strided column would be
    # copied on every lookup
    sol = powmod.solve_growth_factors(pow_case2, dt=1e-2)
    path = tmp_path / "growth.csv"
    powmod.write_csv(sol, path)
    for s in (sol, powmod.read_csv(path)):
        assert all(col.flags.c_contiguous for col in s.g.T)


def _tiny_gamma_model(base):
    """The power model ``base`` with the single atom gamma = 1e-4, whose
    factor overflows float64 even when computed exactly."""
    return ModelParams.build(
        insurance=base.insurance, financial=base.financial, delay=base.delay,
        dist=RiskAversionDist(family=POWER, points=((1e-4, 1.0),)),
        horizon=base.horizon, x0=base.x0)


def test_closed_form_matches_rk4_on_baselines(sol1, pow_case1, pow_case2):
    # the exact factors at the nodes of the dt = 1e-4 grid; RK4 there is
    # within about 1.3e-14 of them
    for params, g0, varpi0 in ((pow_case1, G0_CASE1, VARPI0_CASE1),
                               (pow_case2, G0_CASE2, VARPI0_CASE2)):
        exact = powmod.growth_factors(params, dt=1e-4)
        rk4 = sol1 if params is pow_case1 else powmod.solve_growth_factors(params, dt=1e-4)
        np.testing.assert_array_equal(exact.t, rk4.t)
        assert exact.t[0] == 0.0 and not exact.exploded and exact.explosion_time is None
        np.testing.assert_array_equal(exact.g[-1], 1.0)
        np.testing.assert_allclose(exact.g, rk4.g, rtol=5e-14, atol=0.0)
        np.testing.assert_allclose(exact.varpi, rk4.varpi, rtol=5e-14, atol=0.0)
        np.testing.assert_allclose(exact.g[0], g0, rtol=1e-9)
        assert exact.varpi[0] == pytest.approx(varpi0, rel=1e-9)
        assert (exact.dt, exact.gammas, exact.probs) == (rk4.dt, rk4.gammas, rk4.probs)
        assert all(col.flags.c_contiguous for col in exact.g.T)
        np.testing.assert_array_equal(exact.varpi[::97], powmod.factors(params, exact.t[::97])[1])
    default = powmod.growth_factors(pow_case1)
    assert default.dt == pow_case1.horizon / 20000 and len(default.t) == 20001


def test_closed_form_single_gamma(pow_single):
    sol = powmod.growth_factors(pow_single, dt=1e-3)
    closed = [powmod.single_gamma_growth(pow_single, 0.5, t) for t in sol.t]
    np.testing.assert_allclose(sol.g[:, 0], closed, rtol=1e-14)
    np.testing.assert_array_equal(sol.varpi, 0.5)


def test_rk4_contracts_toward_closed_form_at_fourth_order(pow_case1):
    # halving the RK4 step must cut its error in log g(0) about 16-fold
    # wherever that error is above the rounding floor
    models = list(random_power_models(40, seed=777, base=pow_case1))
    exact = [np.log(powmod.growth_factors(m, dt=1e-3).g[0]) for m in models]
    err = {}
    for dt in (1e-3, 2e-3):
        sols = [powmod.solve_growth_factors(m, dt=dt) for m in models]
        assert not any(sol.exploded for sol in sols)
        err[dt] = np.array([np.max(np.abs(np.log(sol.g[0]) - e)) for sol, e in zip(sols, exact)])
    resolved = err[1e-3] > 1e-11
    assert resolved.sum() >= 10
    assert np.all(err[2e-3][resolved] / err[1e-3][resolved] >= 12.0)


@pytest.mark.parametrize("model, dt", [(_tiny_gamma_model, 1e-4), (_tiny_gamma_model, None),
                                       (levered, 1e-3)])
def test_closed_form_explosion_flagged(pow_case1, model, dt):
    # exp(log g) overflows for a nearly risk-neutral atom: the solution keeps
    # the nodes after the last overflowing one, quietly, as an exploding
    # march does
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = powmod.growth_factors(model(pow_case1), dt=dt)
    assert sol.exploded
    assert sol.explosion_time is not None and 0.0 < sol.explosion_time < 2.0
    assert sol.t[0] == sol.explosion_time
    with pytest.raises(DomainError, match="explod"):
        powmod.g_at(sol, 0.5 * sol.explosion_time)
    assert np.all(np.isfinite(powmod.g_at(sol, float(sol.t[len(sol.t) // 2]))))
    assert np.all(np.isfinite(sol.g)) and np.all(sol.g > 0.0)


@pytest.mark.parametrize("model", [_tiny_gamma_model, levered])
def test_factors_raise_exploded_before_the_explosion(pow_case1, model):
    # the grid solution is valid from its explosion time on; the factors at
    # exactly the times asked for agree with its nodes there and raise before
    params = model(pow_case1)
    sol = powmod.growth_factors(params, dt=1e-3)
    for t in (0.0, 0.5 * sol.explosion_time, sol.explosion_time - 1e-3):
        with pytest.raises(DomainError, match="exploded"):
            powmod.factors(params, t)
    with pytest.raises(DomainError, match="exploded"):
        powmod.factors(params, np.linspace(0.0, params.horizon, 11))
    g, varpi = powmod.factors(params, sol.t)
    # log g reaches 709 here, so compare it rather than g; tau = T - t is
    # rounded to ulp(T) and d(log g)/d(tau) is about 1.7e3
    np.testing.assert_allclose(np.log(g), np.log(sol.g), rtol=0.0, atol=1e-11)
    np.testing.assert_allclose(varpi, sol.varpi, rtol=1e-14, atol=0.0)


def test_factors_at_any_times(pow_case1, pow_case2):
    # the closed form with no grid: the grid's nodes, the times between
    # them, g = 1 at the horizon, and a time outside [0, T] rejected
    for params in (pow_case1, pow_case2):
        grid = powmod.growth_factors(params, dt=1e-3)
        g, varpi = powmod.factors(params, grid.t)
        np.testing.assert_allclose(g, grid.g, rtol=2e-15, atol=0.0)
        np.testing.assert_allclose(varpi, grid.varpi, rtol=2e-15, atol=0.0)
        mid = 0.5 * (grid.t[:-1] + grid.t[1:])
        fine = powmod.growth_factors(params, dt=5e-4)
        np.testing.assert_allclose(powmod.factors(params, mid)[0], fine.g[1::2],
                                   rtol=2e-15, atol=0.0)
        g_t, varpi_t = powmod.factors(params, params.horizon)
        assert g_t.shape == (2,) and varpi_t.shape == ()
        np.testing.assert_array_equal(g_t, 1.0)
        assert varpi_t == pytest.approx(params.mean_gamma, rel=1e-15)
        for t in (-1e-9, params.horizon + 1e-9, np.nan):
            with pytest.raises(DomainError, match="outside"):
                powmod.factors(params, [0.5, t])


@pytest.mark.parametrize("routine", ["strategy", "value", "ansatz"])
@pytest.mark.parametrize("x, m1", [(np.nan, 0.5), (0.6, np.nan)])
def test_nan_state_rejected(sol1, pow_case1, routine, x, m1):
    # NaN <= 0 is false, so only "not w > 0" rejects a NaN effective wealth
    args = (0,) if routine == "ansatz" else ()
    with pytest.raises(DomainError, match="x \\+ beta\\*m1 > 0"):
        getattr(powmod, routine)(sol1, pow_case1, *args, 0.0, x, m1)


def test_area_matches_mpmath_on_extreme_spread():
    # a nearly risk-neutral atom of tiny weight: the softmax turns over on
    # scales from 2/(G2*0.918) to beyond a = 20, and A reaches about 1.5e8.
    # Without the panel splits the root at tau = 2 is off by 3e-10; the
    # 20-digit integral at each root must hit tau to rounding
    mpmath = pytest.importorskip("mpmath")
    gam = np.array([1e-4, 0.109, 0.189, 0.331, 0.371, 0.918])
    p = np.array([5.3e-7, 0.0118, 0.178, 0.295, 0.0457, 0.46949947])
    g2c, tau = 10.17, np.linspace(0.0, 2.0, 2001)
    # the package solves on s = G2*a: S(G2*tau) = G2*A(tau)
    area = powmod._area(g2c * tau, *powmod._panels(g2c * tau[-1], gam, p), gam, p) / g2c
    assert area[0] == 0.0 and np.all(np.diff(area) > 0.0) and area[-1] > 1e8
    with mpmath.workdps(20):
        g, pm = [mpmath.mpf(v) for v in gam], [mpmath.mpf(v) for v in p]

        def phi2(a):
            e = [pi * mpmath.exp(-(gi - g[0]) * g2c * a / 2) for gi, pi in zip(g, pm)]
            return (mpmath.fsum(gi * ei for gi, ei in zip(g, e)) / mpmath.fsum(e)) ** 2

        for k in (3, 500, 2000):
            a = area[k]
            pts = sorted({0.0, *np.linspace(0.0, min(a, 60.0), 121), *(a * 2.0 ** -np.arange(40))})
            f = mpmath.quad(phi2, [mpmath.mpf(v) for v in pts if v <= a], method="gauss-legendre")
            # the relative error of A that the miss in F implies
            assert float(abs(f - tau[k]) / phi2(mpmath.mpf(a)) / a) < 1e-14


def _softmax_atoms_last(s, gam, p):
    """Reference: _softmax_gamma with the atoms on the last axis."""
    e = p * np.exp(-0.5 * (gam - gam.min()) * s[..., None])
    total = e.sum(axis=-1)
    return (e @ gam) / total, np.log(total) - 0.5 * gam.min() * s


def test_softmax_gamma_matches_atoms_last_formula():
    # the atoms-first layout sums the denominator in the same order below 8
    # atoms (numpy's trailing-axis sum pairs terms from 8 on); Phi and
    # log M stay within a few ulp whatever the shape and atom count
    rng = np.random.default_rng(19)
    eps = np.finfo(float).eps
    for n in range(1, 11):
        for _ in range(10):
            gam = rng.choice(np.linspace(0.02, 0.98, 49), n, replace=False)
            p, g2c = rng.dirichlet(np.ones(n)), rng.uniform(0.1, 20.0)
            for shape in ((), (1,), (7,), (341,), (5, 12)):
                s = g2c * np.asarray(rng.exponential(5.0, shape))
                phi, log_m = powmod._softmax_gamma(s, gam, p)
                phi_ref, log_m_ref = _softmax_atoms_last(s, gam, p)
                assert phi.shape == log_m.shape == shape
                assert np.all(np.abs(phi - phi_ref) <= 8 * np.spacing(phi_ref)), (n, shape)
                if n < 8:
                    np.testing.assert_array_equal(log_m, log_m_ref)
                assert np.all(np.abs(log_m - log_m_ref) <= 4 * eps * (1.0 + np.abs(log_m_ref)))


def test_empty_times_give_empty_results(pow_case2):
    g, varpi = powmod.factors(pow_case2, [])
    assert g.shape == (0, 2) and varpi.shape == (0,)
    sol = powmod.growth_factors(pow_case2, dt=1e-2)
    g, varpi = powmod.factors(pow_case2, [], sol)
    assert g.shape == (0, 2) and varpi.shape == (0,)
