import dataclasses
import json
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from delaris import exponential as expmod
from delaris import power as powmod
from delaris import seeding
from delaris import simulation as sim
from delaris import sweeps
from delaris import verification as ver
from delaris.exceptions import DomainError, ParameterError
from delaris.model import (
    DelayParams,
    FinancialParams,
    InsuranceParams,
    ModelParams,
    RiskAversionDist,
)
from helpers import m1_quadrature, random_power_models, three_state_euler


def _zero_strategy(t, w):
    return 0.0, 0.0


def _quiet_params(r=0.1, beta=0.0, family="exponential", points=((0.5, 0.5), (0.9, 0.5))):
    """Equal loadings kill the net-premium drift; beta=0 removes feedback."""
    return ModelParams.build(
        insurance=InsuranceParams(lambda1=1.0, mu1=0.1, mu2=0.2, eta1=0.3, eta2=0.3),
        financial=FinancialParams(r=r, mu=2 * r, sigma=0.6),
        delay=DelayParams(alpha=0.5, beta=beta, h=2.0),
        dist=RiskAversionDist(family=family, points=points),
        horizon=2.0,
        x0=0.6,
    )


def test_config_validation(exp_case1):
    with pytest.raises(ParameterError):
        sim.SimConfig(dt=0.0, n_paths=10, seed=0)
    with pytest.raises(ParameterError):
        sim.SimConfig(dt=1e-3, n_paths=0, seed=0)
    cfg = sim.SimConfig(dt=3e-4, n_paths=2, seed=0)
    with pytest.raises(ParameterError, match="divide"):
        sim.simulate_path(exp_case1, cfg)


@pytest.mark.parametrize("field, value", [("n_paths", math.nan), ("n_paths", math.inf),
                                          ("n_paths", 2.5), ("seed", math.nan),
                                          ("seed", -math.inf)])
def test_config_rejects_non_whole_counts(field, value):
    # NaN and inf are not whole numbers: a ParameterError naming the field,
    # never numpy's or int()'s own ValueError or OverflowError
    kwargs = dict(dt=1e-2, n_paths=10, seed=0)
    kwargs[field] = value
    with pytest.raises(ParameterError, match=f"sim.{field} must be"):
        sim.SimConfig(**kwargs)


def test_dt_must_divide_delay_window():
    params = _quiet_params()
    bad = ModelParams.build(
        insurance=params.insurance,
        financial=params.financial,
        delay=DelayParams(alpha=0.5, beta=0.0, h=1.0 / 3.0),
        dist=params.dist,
        horizon=2.0,
        x0=0.6,
    )
    cfg = sim.SimConfig(dt=2e-3, n_paths=1, seed=0, strategy=_zero_strategy)
    with pytest.raises(ParameterError, match="divide"):
        sim.simulate_path(bad, cfg)


def test_unknown_strategy_source():
    # a family name restates params.dist.family, which None already means;
    # any source but None, an OdeSolution or a callable fails when the
    # config is built, before a run starts
    for source in ("exponential", "power", "martingale"):
        with pytest.raises(ParameterError, match="sim.strategy"):
            sim.SimConfig(dt=1e-2, n_paths=1, seed=0, strategy=source)


def test_power_solution_requires_power_family(exp_case1, pow_case1):
    sol = powmod.solve_growth_factors(pow_case1, dt=1e-2)
    cfg = sim.SimConfig(dt=1e-2, n_paths=1, seed=0, strategy=sol)
    with pytest.raises(ParameterError):
        sim.simulate_path(exp_case1, cfg)
    with pytest.raises(ParameterError):
        sim.mc_reward(exp_case1, cfg)


def test_solution_of_another_model_rejected(pow_case1, pow_case2):
    # a solution records the gammas, probs and horizon it was solved for;
    # every reader that takes a solution and a model compares them and
    # names what differs, where case II's controls used to steer case I
    x0, m1 = pow_case1.x0, pow_case1.m1_0
    other = ModelParams.build(
        insurance=pow_case1.insurance, financial=pow_case1.financial, delay=pow_case1.delay,
        dist=RiskAversionDist(family="power", points=((0.4, 0.5), (0.9, 0.5))),
        horizon=1.0, x0=x0)
    for sol, named in ((powmod.solve_growth_factors(pow_case2, dt=1e-3), "probs"),
                       (powmod.growth_factors(other, dt=1e-2), "gammas, horizon")):
        cfg = sim.SimConfig(dt=0.002, n_paths=2000, seed=0, strategy=sol)
        calls = (
            lambda: sim.mc_reward(pow_case1, cfg),
            lambda: sim.simulate_path(pow_case1, cfg),
            lambda: ver.feynman_kac_check(pow_case1, dt=0.002, n_paths=2000, seed=0, solution=sol),
            lambda: ver.expectation_pde_residual(pow_case1, [0.0], [x0], [m1], solution=sol),
            lambda: powmod.factors(pow_case1, [0.0, 1.0], sol),
            lambda: powmod.strategy(sol, pow_case1, 0.0, x0, m1),
            lambda: powmod.value(sol, pow_case1, 0.0, x0, m1),
            lambda: powmod.ansatz(sol, pow_case1, 0, 0.0, x0, m1),
            lambda: powmod.varpi_rate(sol, pow_case1, 0.0),
        )
        for call in calls:
            with pytest.raises(ParameterError, match=f"its {named} differ"):
                call()


def test_deterministic_compound_growth():
    # zero controls + equal loadings + no memory feedback: X compounds at r
    params = _quiet_params(r=0.1)
    cfg = sim.SimConfig(dt=1e-2, n_paths=4, seed=11, strategy=_zero_strategy)
    est = sim.mc_reward(params, cfg)
    exact = 0.6 * (1 + 0.1 * 1e-2) ** 200
    assert est.mean == pytest.approx(exact, rel=1e-12)
    assert est.se == 0.0
    path = sim.simulate_path(params, cfg, path_index=0)
    assert path.terminal_effective_wealth == pytest.approx(exact, rel=1e-12)
    assert path.domain_exit is False and path.exit_time is None


def test_callable_and_recorded_path_read_the_step_times(pow_case1):
    # 3*0.1 is 0.30000000000000004: a callable was called there, past the
    # horizon 0.3, and a recorded path wrote it, while the model's own
    # sources read min(k*dt, T). The callable's Euler chain is the
    # three-state Euler chain of the same controls at t_k = min(k*dt, T)
    params = dataclasses.replace(pow_case1, horizon=0.3)
    seen = []

    def own(t, w):
        seen.append(t)
        return powmod.strategy(None, params, t, w, 0.0)

    cfg = sim.SimConfig(dt=0.1, n_paths=3, seed=5, strategy=own)
    X, M1, _, _ = three_state_euler(
        params, 0.1, 5, range(3),
        lambda k, w: powmod.strategy(None, params, min(k * 0.1, 0.3), w, 0.0), True)
    np.testing.assert_allclose(sim._run_paths(params, cfg, range(3)),
                               X[-1] + params.delay.beta * M1[-1], rtol=1e-12, atol=0.0)
    assert max(seen) == 0.3
    np.testing.assert_array_equal(sim.simulate_path(params, cfg).t, [0.0, 0.1, 0.2, 0.3])


def test_wealth_average_fixed_point():
    # starting average is the stationary point of its own update
    params = _quiet_params(r=1e-12)
    cfg = sim.SimConfig(dt=1e-3, n_paths=1, seed=5, strategy=_zero_strategy)
    path = sim.simulate_path(params, cfg, path_index=0)
    assert np.max(np.abs(path.M1 - params.m1_0)) < 1e-9
    assert np.max(np.abs(path.X - 0.6)) < 1e-9


@pytest.mark.parametrize("h", [2.0, 0.3])
def test_lagged_state_mirrors_path(exp_case1, h):
    # the lag ring has n_lag rows: at h = 2 it wraps only at the last step,
    # at h = 0.3 (30 steps) it wraps more than six times
    params = sweeps.apply_param(exp_case1, "h", h)
    cfg = sim.SimConfig(dt=1e-2, n_paths=1, seed=23)
    path = sim.simulate_path(params, cfg, path_index=0)
    n_lag = round(h / cfg.dt)
    np.testing.assert_array_equal(path.M2[:n_lag], 0.6)
    np.testing.assert_array_equal(path.M2[n_lag:], path.X[: len(path.X) - n_lag])


def test_moving_average_matches_quadrature(exp_case1):
    # Euler update vs trapezoid quadrature of the defining integral: both are
    # first-order, their gap on a Brownian-rough path shrinks like dt^1.5
    cfg = sim.SimConfig(dt=1e-3, n_paths=1, seed=29)
    path = sim.simulate_path(exp_case1, cfg, path_index=0)
    for k in (500, 1500, 2000):
        assert path.M1[k] == pytest.approx(
            m1_quadrature(exp_case1, path, k), abs=2e-4
        )
    # and on a noiseless path the two agree far more tightly
    quiet = _quiet_params(r=1e-12)
    qpath = sim.simulate_path(
        quiet, sim.SimConfig(dt=1e-3, n_paths=1, seed=29, strategy=_zero_strategy))
    assert qpath.M1[2000] == pytest.approx(m1_quadrature(quiet, qpath, 2000), abs=1e-6)


def test_reproducible_across_batch_sizes(exp_case1):
    cfg_a = sim.SimConfig(dt=4e-3, n_paths=9, seed=42)
    cfg_b = sim.SimConfig(dt=4e-3, n_paths=3, seed=42)
    pa = sim.simulate_path(exp_case1, cfg_a, path_index=2)
    pb = sim.simulate_path(exp_case1, cfg_b, path_index=2)
    np.testing.assert_array_equal(pa.X, pb.X)
    np.testing.assert_array_equal(pa.M1, pb.M1)
    other = sim.simulate_path(exp_case1, cfg_a, path_index=3)
    assert not np.array_equal(pa.X, other.X)


def test_mc_matches_closed_form_exponential(exp_case1):
    cfg = sim.SimConfig(dt=2e-3, n_paths=20000, seed=7)
    est = sim.mc_reward(exp_case1, cfg)
    ref = expmod.value(exp_case1, 0.0, exp_case1.x0, exp_case1.m1_0)
    assert abs(est.mean - ref) < 4 * est.se
    assert est.excluded_paths == 0
    for pg in est.per_gamma:
        y_ref = expmod.ansatz(exp_case1, pg.gamma, 0.0, exp_case1.x0, exp_case1.m1_0)
        assert abs(pg.y_mean - y_ref) < 4 * pg.y_se


def test_mc_matches_closed_form_power(pow_case1):
    from delaris.utility import POWER, inverse_utility

    sol = powmod.solve_growth_factors(pow_case1, dt=1e-3)
    cfg = sim.SimConfig(dt=2e-3, n_paths=20000, seed=19, strategy=sol)
    est = sim.mc_reward(pow_case1, cfg)
    # expected certainty equivalent: mix of inverted per-gamma expectations
    ref = 0.0
    for i, (gamma, p) in enumerate(pow_case1.dist.points):
        y = powmod.ansatz(sol, pow_case1, i, 0.0, pow_case1.x0, pow_case1.m1_0)
        ref += p * inverse_utility(POWER, gamma, y)
    assert abs(est.mean - ref) < 4 * est.se
    assert est.excluded_paths == 0


def test_exclusion_counts_bad_paths(pow_case1):
    # a reckless constant bet drives some effective wealth non-positive
    cfg = sim.SimConfig(dt=1e-2, n_paths=400, seed=3,
                        strategy=lambda t, w: (0.0, 25.0))
    est = sim.mc_reward(pow_case1, cfg)
    assert est.excluded_paths > 0
    assert est.n_paths == 400
    assert math.isfinite(est.mean)


def _levered_power():
    """Low risk aversion and strong memory feedback: most paths leave w > 0."""
    base = sweeps.baseline_params("power", "I")
    return ModelParams.build(
        insurance=base.insurance,
        financial=base.financial,
        delay=DelayParams(alpha=0.5, beta=0.3, h=0.4),
        dist=RiskAversionDist(family="power", points=((0.05, 0.5), (0.1, 0.5))),
        horizon=2.0,
        x0=0.6,
    )


def test_domain_exit_propagates_nan():
    # only a callable's Euler chain leaves the domain: here the solution's
    # own controls, stepped by Euler
    params = _levered_power()
    sol = powmod.solve_growth_factors(params, dt=0.01)
    cfg = sim.SimConfig(dt=0.2, n_paths=40, seed=4,
                        strategy=lambda t, w: powmod.strategy(sol, params, t, w, 0.0))
    paths = [sim.simulate_path(params, cfg, i) for i in range(cfg.n_paths)]
    exited = [p for p in paths if p.domain_exit]
    assert 0 < len(exited) < cfg.n_paths - 1
    for p in paths:
        k = int(np.flatnonzero(p.t == p.exit_time)[0]) if p.domain_exit else len(p.t)
        for arr in (p.X, p.M1, p.M2, p.q, p.pi_x):
            assert np.all(np.isfinite(arr[:k])) and np.all(np.isnan(arr[k:]))
        assert np.all(p.X[:k] + params.delay.beta * p.M1[:k] > 0.0)
        assert math.isnan(p.terminal_effective_wealth) == p.domain_exit
    assert sim.mc_reward(params, cfg).excluded_paths == len(exited)


def _working_peak(params, strategy, n_paths, dt=1e-2):
    """Peak traced memory of one unrecorded run beyond the arrays it returns."""
    cfg = sim.SimConfig(dt=dt, n_paths=n_paths, seed=4, strategy=strategy)
    tracemalloc.start()
    try:
        result = sim._run_paths(params, cfg, range(n_paths))  # held: ``current`` counts it
        current, peak = tracemalloc.get_traced_memory()
        return peak - current
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("source", [pytest.param(None, id="power"), "solution"])
def test_power_mc_memory_flat_in_paths(monkeypatch, source):
    # one worker holds one path's draw row and one seeding pass whatever
    # n_paths is: beyond the arrays it returns, its peak grows by less than
    # three paths' factors (8 B per path-step) from 40 to 400 paths, where a
    # run holding every path's factors at once grows by 360 paths' worth.
    # Under threads the peak depends on how the workers overlap in time, so
    # this pins one worker; two workers hold at most twice its working set
    params = _levered_power()
    strategy = None if source is None else powmod.solve_growth_factors(params, dt=0.01)
    monkeypatch.setattr(sim, "_max_workers", lambda: 1)
    _working_peak(params, strategy, 40)  # the first call also allocates one-time caches
    one = _working_peak(params, strategy, 400)
    assert one - _working_peak(params, strategy, 40) < 8 * 3 * 200
    monkeypatch.setattr(sim, "_max_workers", lambda: 2)
    assert _working_peak(params, strategy, 400) <= 2 * one + 16_000


def test_exponential_mc_memory_flat_in_paths(monkeypatch, exp_case1):
    # an unrecorded exponential worker draws all its paths into one reused
    # (n_steps, 2) row: beyond the arrays it returns (8 B per path each),
    # its peak does not grow with the path count (one worker pinned, as in
    # the power test; two hold at most twice its working set)
    monkeypatch.setattr(sim, "_max_workers", lambda: 1)
    _working_peak(exp_case1, None, 40)  # the first call also allocates one-time caches
    one = _working_peak(exp_case1, None, 4000)
    assert one <= 1.1 * _working_peak(exp_case1, None, 40)
    monkeypatch.setattr(sim, "_max_workers", lambda: 2)
    assert _working_peak(exp_case1, None, 4000) <= 2 * one + 16_000


# a worker's peak at N = 2000 steps beyond the arrays it returns: it read
# 146 to 178 KB from 40 to 4000 paths (the affine map's setup alone takes
# 72 B per step), where one (32, N, 2) block of draws takes 512 B per step
_PEAK_AT_2000_STEPS = 128 * 2000


def test_mc_worker_holds_one_draw_row(monkeypatch, exp_case1):
    # the exponential mc-exp shape on one worker: drawing a 32-path block
    # at a time peaked at 1132 KB, streaming each path through one row at
    # 172 KB
    monkeypatch.setattr(sim, "_max_workers", lambda: 1)
    dt = exp_case1.horizon / 2000
    _working_peak(exp_case1, None, 40, dt)  # the first call also allocates one-time caches
    assert _working_peak(exp_case1, None, 400, dt) < _PEAK_AT_2000_STEPS


def _recording_rngs(states):
    """``sim.path_rngs`` appending (path index, state) for the state each
    path starts its draw in; workers append in any order, so compare them
    sorted by index."""
    path_rngs = sim.path_rngs

    def recording(seed, indices):
        for i, rng in zip(indices, path_rngs(seed, indices)):
            states.append((i, rng.bit_generator.state))
            yield rng

    return recording


@pytest.mark.parametrize("seed", [4, 2**33 + 1, 2**159 - 2**70 + 12345],
                         ids=["1-word", "2-words", "5-words"])
def test_path_seeding_is_path_rng(seed):
    # seeds of one, two and five 32-bit words; an index of 2**32 or more
    # adds an entropy word, and 46 indices cross a seeding block. The range
    # crosses both 2**32 and the 1024-index edge of a mixing pass. The fast
    # route restates numpy's SeedSequence mixing and PCG64 seeding, so a
    # change to either in numpy fails here
    for indices in ([0, 2**31 - 1, 2**31 + 5, 2**32 - 1, 2**32, 2**40 + 3, 2**64 - 1,
                     *range(1, 40)],
                    range(2**32 - 1040, 2**32 + 20)):
        words = seeding.seed_words(seed, indices)
        for j, i in enumerate(indices):
            want = np.random.SeedSequence((seed, i)).generate_state(4, np.uint64)
            np.testing.assert_array_equal(words[:, j], want)
        for rng, i in zip(sim.path_rngs(seed, indices), indices, strict=True):
            ref = sim.path_rng(seed, i)
            assert rng.bit_generator.state == ref.bit_generator.state
            np.testing.assert_array_equal(rng.standard_normal(3), ref.standard_normal(3))


def _noise_case(source, exp_case1, pow_case1):
    """(params, config, subsets, random models) of a noise-contract case:
    exponential case I at dt 0.01 (12 paths), or the levered power model at
    dt 0.2 (40 paths, where most Euler paths exit) under its closed form or
    its solution, followed by random power models under the same source"""
    if source == "exponential":
        cfg = sim.SimConfig(dt=1e-2, n_paths=12, seed=4)
        return exp_case1, cfg, ([7, 2, 11, 0, 5], [11, 10, 3], list(range(12))[::-1]), ()
    params = _levered_power()
    strategy = lambda p: powmod.solve_growth_factors(p, dt=0.01) if source == "solution" else None
    cfg = sim.SimConfig(dt=0.2, n_paths=40, seed=4, strategy=strategy(params))
    randoms = ((p, dataclasses.replace(cfg, strategy=strategy(p)))
               for p in random_power_models(10, seed=4242, base=pow_case1))
    return params, cfg, ([7, 2, 31, 0, 5], [39, 10, 3], list(range(40))[::-1]), randoms


def _law_terminal(law, seed, index):
    """Terminal w of one path: its own draw through the source's law."""
    z = sim.path_rng(seed, index).standard_normal((len(law.weights) // 2, 2))
    terminal = law.mean + z.ravel() @ law.weights
    return np.exp(terminal) if law.log else terminal


@pytest.mark.parametrize("source", ["exponential", "power", "solution"])
def test_noise_contract(monkeypatch, exp_case1, pow_case1, source):
    # Monte Carlo terminal wealth is path i's own draw through the model
    # source's law, bit for bit whatever the order and subset, and path i
    # draws from the state path_rng(seed, i) starts in; no model-source path
    # leaves the domain, under power here (where most Euler paths did) or on
    # random power models
    params, cfg, subsets, randoms = _noise_case(source, exp_case1, pow_case1)
    run_paths, path_rngs = sim._run_paths, sim.path_rngs
    seen, states = [], []

    def spy(*args, **kwargs):
        seen.append(run_paths(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(sim, "_run_paths", spy)
    monkeypatch.setattr(sim, "path_rngs", _recording_rngs(states))
    est = sim.mc_reward(params, cfg)
    assert sorted(states, key=lambda s: s[0]) == [
        (i, sim.path_rng(4, i).bit_generator.state) for i in range(cfg.n_paths)]
    monkeypatch.setattr(sim, "path_rngs", path_rngs)
    (w_term,) = seen
    assert est.excluded_paths == 0
    law = sim.terminal_law(params, cfg)
    for i in range(cfg.n_paths):
        np.testing.assert_array_equal(run_paths(params, cfg, [i]), w_term[i])
        np.testing.assert_array_equal(_law_terminal(law, cfg.seed, i), w_term[i])
    for subset in subsets:
        np.testing.assert_array_equal(run_paths(params, cfg, subset), w_term[subset])
    for params, cfg in randoms:
        law, w_term = sim.terminal_law(params, cfg), run_paths(params, cfg, range(40))
        for i in range(40):
            np.testing.assert_array_equal(_law_terminal(law, cfg.seed, i), w_term[i])
        assert (w_term > 0.0).all()


@pytest.mark.parametrize("dt", [0.2, 0.01])
@pytest.mark.parametrize("source", [pytest.param(None, id="power"), "solution"])
def test_levered_power_paths_stay_in_the_domain(source, dt):
    # the Euler factor of a step is Gaussian and can be negative: the Euler
    # chain lost 1656 of these 2000 paths at dt 0.2 and 9 at dt 0.01
    params = _levered_power()
    strategy = None if source is None else powmod.solve_growth_factors(params, dt=0.01)
    est = sim.mc_reward(params, sim.SimConfig(dt=dt, n_paths=2000, seed=4, strategy=strategy))
    assert est.excluded_paths == 0


# relative gap of the model sources' exact discrete law to the ansatz at dt
# T/1000. Power log step: measured at most 4.5e-14 on the baselines and
# 7.7e-8 over random_power_models(40, seed=4242); the midpoint varpi makes it
# second order in dt (it falls by 4 as dt halves), where a left-end varpi
# leaves a first-order gap of about 2e-8 on the baselines. Exponential Euler:
# measured 9.08e-6 (case I, gamma 0.5), 3.71e-6 (I, 0.9), 7.61e-6 (II, 0.5)
# and 4.69e-6 (II, 0.9), each halving at T/2000 (4.54e-6 on I, gamma 0.5),
# the chain's first-order bias
_LAW_RTOL = {"baseline": 1e-13, "random": 2e-7, "euler": 1e-5}


def _discrete_utility(law, gamma):
    """E[u_gamma(w_N)] under a model source's law: w_N, or log w_N under
    ``law.log``, is normal with mean ``law.mean`` and variance
    weights @ weights."""
    var = law.weights @ law.weights
    if law.log:
        a = 1 - gamma
        return math.exp(a * law.mean + 0.5 * a**2 * var) / a
    return -math.exp(-gamma * law.mean + 0.5 * gamma**2 * var) / gamma


def _law(params, dt):
    return sim.terminal_law(params, sim.SimConfig(dt=dt, n_paths=1, seed=0))


def _discrete_gap(params, n_steps):
    """Largest relative gap over the atoms between E[u_i(w_N)] of the
    model source's law and the ansatz at (0, x0, m1_0)."""
    law = _law(params, params.horizon / n_steps)
    refs = ver._ansatz_values(params, None, 0.0, params.x0, params.m1_0)
    return max(abs(_discrete_utility(law, gamma) - ref) / abs(ref)
               for gamma, ref in zip(params.dist.gammas, refs))


def test_discrete_law_matches_ansatz(exp_case1, exp_case2, pow_case1, pow_case2):
    for params, bound in ((exp_case1, "euler"), (exp_case2, "euler"),
                          (pow_case1, "baseline"), (pow_case2, "baseline")):
        assert _discrete_gap(params, 1000) < _LAW_RTOL[bound]
    for params in random_power_models(40, seed=4242, base=pow_case1):
        assert _discrete_gap(params, 1000) < _LAW_RTOL["random"]


def _thread_spy(monkeypatch):
    """Patch ``sim.path_rngs`` to record the thread and the floating-point
    error state of each call; returns the list of (thread, np.geterr()).
    It holds the thread objects: a finished thread's id can be reused."""
    calls, path_rngs = [], sim.path_rngs

    def spy(seed, indices):
        calls.append((threading.current_thread(), np.geterr()))
        return path_rngs(seed, indices)

    monkeypatch.setattr(sim, "path_rngs", spy)
    return calls


def test_run_paths_do_not_depend_on_worker_count(monkeypatch, exp_case1, exp_case2, pow_case1):
    # 100 paths are four seeding blocks, so up to four workers share them;
    # every result is bit for bit the one-worker result, and a callable
    # runs in the calling thread alone; no model-source path exits
    levered = _levered_power()
    cases = [(exp_case1, 0.01, None), (exp_case2, 0.01, None),
             (levered, 0.2, None), (levered, 0.2, powmod.solve_growth_factors(levered, dt=0.01)),
             *((p, 0.2, None) for p in random_power_models(10, seed=4242, base=pow_case1)),
             (pow_case1, 0.1, lambda t, w: (0.1, 0.3 * w))]
    calls = _thread_spy(monkeypatch)
    for params, dt, strategy in cases:
        cfg = sim.SimConfig(dt=dt, n_paths=100, seed=4, strategy=strategy)
        results = {}
        for workers in (1, 2, 3):
            monkeypatch.setattr(sim, "_max_workers", lambda: workers)
            calls.clear()
            with np.errstate(over="raise"):
                results[workers] = sim._run_paths(params, cfg, range(100))
            threads = {thread for thread, _ in calls}
            assert threading.current_thread() in threads
            assert len(threads) == (1 if callable(strategy) else workers)
            assert all(err["over"] == "raise" for _, err in calls)
        for workers in (2, 3):
            np.testing.assert_array_equal(results[workers].view(np.uint64),
                                          results[1].view(np.uint64))
        assert callable(strategy) or not np.isnan(results[1]).any()


def test_more_workers_than_cores_under_fast_switching(monkeypatch):
    # eight workers on 13 blocks with the interpreter switching threads
    # every microsecond: a lost or misplaced write would move a path
    params = _levered_power()
    cfg = sim.SimConfig(dt=0.05, n_paths=400, seed=4)
    monkeypatch.setattr(sim, "_max_workers", lambda: 1)
    want = sim._run_paths(params, cfg, range(400))
    monkeypatch.setattr(sim, "_max_workers", lambda: 8)
    got, interval = [], sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=lambda: got.append(sim._run_paths(params, cfg, range(400))))
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive() and len(got) == 1
    np.testing.assert_array_equal(got[0].view(np.uint64), want.view(np.uint64))


def test_single_block_or_cpu_starts_no_thread(monkeypatch, exp_case1):
    calls = _thread_spy(monkeypatch)
    for workers, n_paths in ((1, 100), (4, 32)):
        monkeypatch.setattr(sim, "_max_workers", lambda: workers)
        cfg = sim.SimConfig(dt=0.01, n_paths=n_paths, seed=4)
        calls.clear()
        sim._run_paths(exp_case1, cfg, range(n_paths))
        assert {thread for thread, _ in calls} == {threading.current_thread()}


def test_worker_exception_reaches_caller(monkeypatch, pow_case1):
    # two workers share blocks 0-1 and 2-3; the second fails inside its block
    path_rngs, started = sim.path_rngs, threading.active_count()

    def failing(seed, indices):
        for i, rng in zip(indices, path_rngs(seed, indices)):
            if i == 70:
                raise DomainError("path 70 failed")
            yield rng

    monkeypatch.setattr(sim, "_max_workers", lambda: 2)
    monkeypatch.setattr(sim, "path_rngs", failing)
    for params in (pow_case1, sweeps.baseline_params("exponential", "I")):
        cfg = sim.SimConfig(dt=0.1, n_paths=100, seed=4)
        with pytest.raises(DomainError, match="path 70 failed"):
            sim._run_paths(params, cfg, range(100))
        assert threading.active_count() == started


@pytest.mark.parametrize("case", ["I", "II"])
def test_exponential_mc_matches_exact_discrete_value(case):
    # no discretization allowance: the band is three standard errors
    params = sweeps.baseline_params("exponential", case)
    cfg = sim.SimConfig(dt=2e-3, n_paths=4000, seed=7)
    for pg in sim.mc_reward(params, cfg).per_gamma:
        assert abs(pg.y_mean - _discrete_utility(_law(params, cfg.dt), pg.gamma)) < 3 * pg.y_se


@pytest.mark.parametrize("case", ["I", "II"])
def test_exponential_discrete_value_is_weak_order_one(case):
    # (discrete - ansatz)/(|ansatz|*dt) settles to one coefficient as dt
    # halves (about -0.0045 and -0.0019 on case I), which pins the weights
    # against the continuous closed form without any Monte Carlo
    params = sweeps.baseline_params("exponential", case)
    for gamma in params.dist.gammas:
        ref = expmod.ansatz(params, gamma, 0.0, params.x0, params.m1_0)
        coeff = [(_discrete_utility(_law(params, dt), gamma) - ref) / (abs(ref) * dt)
                 for dt in (1e-2, 5e-3)]
        assert coeff[1] == pytest.approx(coeff[0], rel=0.01)


def test_mc_memory_flat_in_h(monkeypatch, exp_case1):
    # an unrecorded path holds only w and its noise, so a 200-row memory
    # window costs no more than a 30-row one (one worker pinned: under
    # threads the peak depends on how the workers overlap in time)
    monkeypatch.setattr(sim, "_max_workers", lambda: 1)
    cfg = sim.SimConfig(dt=1e-2, n_paths=40, seed=4)

    def traced_peak(h):
        params = sweeps.apply_param(exp_case1, "h", h)
        tracemalloc.start()
        try:
            sim.mc_reward(params, cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    traced_peak(0.3)  # the first call also allocates one-time caches
    assert traced_peak(2.0) <= 1.1 * traced_peak(0.3)


def _oracle_case(name, exp_case1, pow_case1):
    """(params, strategy source, dt, n_paths) of a named oracle case; a
    source of None is the model's own equilibrium."""
    if name == "exponential":
        return exp_case1, None, 1e-2, 40
    if name == "exponential-h0.3":
        return sweeps.apply_param(exp_case1, "h", 0.3), None, 1e-2, 40
    if name == "exponential-kappa-fault":
        # a faulted kappa moves only the analytic reference, never the paths
        return ver.perturb_constants(exp_case1, "kappa", 0.5), None, 1e-2, 40
    if name == "power":
        return pow_case1, powmod.solve_growth_factors(pow_case1, dt=1e-2), 1e-2, 40
    if name == "power-closed-form":
        return pow_case1, None, 1e-2, 40
    params = _levered_power()
    sol = powmod.solve_growth_factors(params, dt=0.01)
    if name == "levered-dt0.2":
        return params, sol, 0.2, 40
    return params, sol, 1e-2, 2000  # exits are rare at dt 0.01: 9 of these 2000 paths


def _oracle_controls(params, source, dt):
    n_steps = round(params.horizon / dt)
    t = np.minimum(np.arange(n_steps + 1) * dt, params.horizon)
    if params.dist.family == "exponential":
        sched = [expmod.strategy(params, float(tk)) for tk in t]
        return lambda k, w: sched[k]
    varpi = powmod.factors(params, t, source)[1]
    return lambda k, w: powmod._controls(params, w, varpi[k])


def _euler_callable(params, source, dt):
    """The power controls of ``_oracle_controls`` as a callable strategy
    (t, w) -> (q, pi), which the simulation steps by Euler."""
    n_steps = round(params.horizon / dt)
    t = np.minimum(np.arange(n_steps + 1) * dt, params.horizon)
    varpi = dict(zip(t.tolist(), powmod.factors(params, t, source)[1].tolist()))
    return lambda t, w: powmod._controls(params, w, varpi[t])


@pytest.mark.parametrize(
    "case", ["exponential", "exponential-h0.3", "exponential-kappa-fault", "power",
             "power-closed-form", "levered-dt0.2", "levered-dt0.01"])
def test_effective_wealth_kernel_matches_three_state_euler(exp_case1, pow_case1, case):
    # the delay cancels from the step of w only through the identities
    # C = beta*e^{-alpha*h} and B = beta*(alpha + A + beta), so w matches the
    # three-state step at roundoff, and recorded X, M1, M2 match it too. The
    # power model sources step log w exactly, so the power cases run their
    # controls as a callable, which the simulation steps by Euler
    params, source, dt, n_paths = _oracle_case(case, exp_case1, pow_case1)
    power_domain = params.dist.family == "power"
    strategy = _euler_callable(params, source, dt) if power_domain else source
    cfg = sim.SimConfig(dt=dt, n_paths=n_paths, seed=4, strategy=strategy)
    X, M1, M2, exit_ref = three_state_euler(
        params, dt, cfg.seed, range(n_paths), _oracle_controls(params, source, dt), power_domain)
    w_term = sim._run_paths(params, cfg, range(n_paths))
    np.testing.assert_array_equal(np.isnan(w_term), ~np.isnan(exit_ref))
    if case.startswith("levered"):
        assert 0 < np.isfinite(exit_ref).sum() < n_paths
    np.testing.assert_allclose(w_term, X[-1] + params.delay.beta * M1[-1], rtol=1e-11, atol=0.0)
    for i in (0, 1, 2):
        path = sim.simulate_path(params, cfg, path_index=i)
        assert path.exit_time == (None if np.isnan(exit_ref[i]) else exit_ref[i])
        for got, want in ((path.X, X), (path.M1, M1), (path.M2, M2)):
            np.testing.assert_allclose(got, want[:, i], rtol=1e-11, atol=0.0)


@pytest.mark.parametrize("case", ["power", "power-closed-form", "levered-dt0.2", "levered-dt0.01"])
def test_power_model_sources_take_the_exact_log_step(exp_case1, pow_case1, case):
    # the oracle steps w_{k+1} = w_k*exp((A + beta + G2/v - G2/(2 v^2))*dt
    # + sqrt(dt)*(b*cq*Z1 + sigma*cpi*Z2)/v) one path at a time, with v the
    # source's varpi at the step midpoint; Monte Carlo terminal wealth and
    # recorded paths match it at roundoff, no path exits, recorded q and pi
    # are the controls at (t_k, w_k) and recorded M1 takes its Euler step
    params, source, dt, n_paths = _oracle_case(case, exp_case1, pow_case1)
    cfg = sim.SimConfig(dt=dt, n_paths=n_paths, seed=4, strategy=source)
    n_steps = round(params.horizon / dt)
    t = np.minimum(np.arange(n_steps + 1) * dt, params.horizon)
    v_mid = powmod.factors(params, (t[:-1] + t[1:]) / 2, source)[1]
    co, fin, delay, g2 = params.coeffs, params.financial, params.delay, params.g2
    cq, cpi = co.a * co.eta2 / co.b**2, (fin.mu - fin.r) / fin.sigma**2
    rate = params.constants.A + delay.beta + g2 / v_mid - g2 / (2 * v_mid**2)
    w = np.empty((n_steps + 1, n_paths))
    w[0] = params.w0
    for i in range(n_paths):
        z = sim.path_rng(cfg.seed, i).standard_normal((n_steps, 2))
        shock = math.sqrt(dt) * (co.b * cq * z[:, 0] + fin.sigma * cpi * z[:, 1]) / v_mid
        w[1:, i] = params.w0 * np.cumprod(np.exp(rate * dt + shock))
    w_term = sim._run_paths(params, cfg, range(n_paths))
    np.testing.assert_allclose(w_term, w[-1], rtol=1e-11, atol=0.0)
    varpi = powmod.factors(params, t, source)[1]
    for i in (0, 1, 2):
        path = sim.simulate_path(params, cfg, path_index=i)
        assert not path.domain_exit
        assert path.terminal_effective_wealth == pytest.approx(w[-1, i], rel=1e-11, abs=0.0)
        np.testing.assert_allclose(path.X + delay.beta * path.M1, w[:, i], rtol=1e-11, atol=0.0)
        q, pi = powmod._controls(params, path.X + delay.beta * path.M1, varpi)
        np.testing.assert_allclose(path.q, q, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(path.pi_x, pi, rtol=1e-12, atol=0.0)
        m1_step = path.M1[:-1] + (path.X[:-1] - delay.alpha * path.M1[:-1]
                                  - math.exp(-delay.alpha * delay.h) * path.M2[:-1]) * dt
        np.testing.assert_allclose(path.M1[1:], m1_step, rtol=1e-12, atol=0.0)


def test_negative_retention_rejected(exp_case1):
    cfg = sim.SimConfig(dt=1e-2, n_paths=1, seed=0,
                        strategy=lambda t, w: (-0.2, 0.0))
    with pytest.raises(DomainError, match="retention"):
        sim.simulate_path(exp_case1, cfg, path_index=0)
    with pytest.raises(DomainError, match="retention"):  # through the block fold
        sim.mc_reward(exp_case1, cfg)


def test_path_csv_and_estimate_json(tmp_path, exp_case1):
    cfg = sim.SimConfig(dt=1e-2, n_paths=50, seed=13)
    path = sim.simulate_path(exp_case1, cfg, path_index=0)
    p_csv = tmp_path / "path.csv"
    sim.write_path_csv(path, p_csv)
    lines = p_csv.read_text().splitlines()
    assert lines[0] == "t,X,M1,M2,q,pi_amount"
    assert len(lines) == 202  # header + 201 grid nodes
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == 0.0 and first[1] == 0.6

    est = sim.mc_reward(exp_case1, cfg)
    p_json = tmp_path / "estimate.json"
    sim.write_estimate_json(est, p_json)
    data = json.loads(p_json.read_text())
    assert set(data) == {"mean", "se", "n_paths", "excluded_paths", "per_gamma"}
    assert data["n_paths"] == 50
    assert len(data["per_gamma"]) == 2
    assert set(data["per_gamma"][0]) == {"gamma", "p", "y_mean", "y_se", "ce", "ce_se"}
    # floats round-trip exactly through the file
    assert data["mean"] == est.mean
