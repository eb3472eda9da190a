import math

import numpy as np
import pytest

from delaris import exponential as expmod
from delaris.exceptions import DomainError, EvaluationError, ParameterError
from delaris.model import ModelParams, RiskAversionDist
from delaris.utility import EXPONENTIAL, inverse_utility, utility
from delaris.verification import perturb_constants

# frozen from a 50-digit evaluation of the closed forms at the benchmark
Q0 = 0.2915107143288456
PI0 = 0.3239007936987173
FRAC0 = 0.5398346561645288
U0 = 0.7947423524704365
Y0_HALF = -1.3331653135532753
Y0_NINE = -0.5515009690361850
ALPHA_STAR = 0.34657359027997264
H_STAR = 1.8325814637483101


def test_strategy_time_zero(exp_case1):
    q, pi = expmod.strategy(exp_case1, 0.0)
    assert q == pytest.approx(Q0, rel=1e-14)
    assert pi == pytest.approx(PI0, rel=1e-14)
    assert expmod.pi_fraction(exp_case1, 0.0, exp_case1.x0) == pytest.approx(FRAC0, rel=1e-14)


def test_strategy_terminal_and_decay(exp_case1):
    qT, piT = expmod.strategy(exp_case1, 2.0)
    co, E = exp_case1.coeffs, exp_case1.mean_gamma
    assert qT == pytest.approx(co.a * co.eta2 / (co.b2 * E), rel=1e-14)
    assert piT == pytest.approx(0.1 / (0.36 * E), rel=1e-14)
    # exponential decay toward maturity: controls grow with t at rate kappa
    kappa = exp_case1.constants.kappa
    for t in (0.0, 0.7, 1.3):
        q, _ = expmod.strategy(exp_case1, t)
        assert q == pytest.approx(qT * math.exp(-kappa * (2.0 - t)), rel=1e-13)


def test_strategy_is_state_free_and_case_ordering(exp_case1, exp_case2):
    q1, _ = expmod.strategy(exp_case1, 0.4)
    q2, _ = expmod.strategy(exp_case2, 0.4)
    # lower mean risk aversion takes more risk
    assert q2 > q1
    assert q2 / q1 == pytest.approx(0.7 / 0.58, rel=1e-13)


def test_schedule_is_the_closed_form_at_each_time(exp_case1, exp_case2):
    # the factors free of t are formed once, and each entry is still the
    # one-point closed form bit for bit
    for params in (exp_case1, exp_case2):
        co, fin, e_gamma = params.coeffs, params.financial, params.mean_gamma
        times = [k * params.horizon / 7 for k in range(8)]
        q, pi_x = expmod.schedule(params, times)
        for t, q_t, pi_t in zip(times, q, pi_x, strict=True):
            decay = math.exp(-params.constants.kappa * (params.horizon - t))
            assert q_t == co.a * co.eta2 / (co.b2 * e_gamma) * decay
            assert pi_t == (fin.mu - fin.r) / (fin.sigma**2 * e_gamma) * decay
            assert expmod.strategy(params, t) == (q_t, pi_t)
    with pytest.raises(DomainError):
        expmod.schedule(exp_case1, [0.0, 2.0 + 1e-9])


def test_time_domain(exp_case1):
    with pytest.raises(DomainError):
        expmod.strategy(exp_case1, -0.1)
    with pytest.raises(DomainError):
        expmod.strategy(exp_case1, 2.0 + 1e-9)


def test_pi_fraction_near_zero_wealth(exp_case1):
    with pytest.raises(EvaluationError):
        expmod.pi_fraction(exp_case1, 0.0, 0.0)


def test_family_guard(pow_case1):
    with pytest.raises(ParameterError):
        expmod.strategy(pow_case1, 0.0)


def test_ansatz_benchmark_values(exp_case1):
    x0, m10 = exp_case1.x0, exp_case1.m1_0
    assert expmod.ansatz(exp_case1, 0.5, 0.0, x0, m10) == pytest.approx(Y0_HALF, rel=1e-13)
    assert expmod.ansatz(exp_case1, 0.9, 0.0, x0, m10) == pytest.approx(Y0_NINE, rel=1e-13)
    assert expmod.value(exp_case1, 0.0, x0, m10) == pytest.approx(U0, rel=1e-13)


def test_ansatz_terminal_condition(exp_case1):
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.uniform(-0.5, 2.0)
        m1 = rng.uniform(0.0, 2.0)
        w = x + exp_case1.delay.beta * m1
        for gamma in exp_case1.dist.gammas:
            got = expmod.ansatz(exp_case1, gamma, 2.0, x, m1)
            assert got == pytest.approx(utility(EXPONENTIAL, gamma, w), rel=1e-14)
        assert expmod.value(exp_case1, 2.0, x, m1) == pytest.approx(w, rel=1e-13, abs=1e-15)


def test_value_aggregates_certainty_equivalents(exp_case1):
    # U(t,x,m1) equals the probability mix of per-gamma certainty equivalents
    rng = np.random.default_rng(5)
    for _ in range(20):
        t = rng.uniform(0.0, 2.0)
        x = rng.uniform(-0.5, 1.5)
        m1 = rng.uniform(0.0, 1.5)
        mix = 0.0
        for (gamma, p) in exp_case1.dist.points:
            y = expmod.ansatz(exp_case1, gamma, t, x, m1)
            mix += p * inverse_utility(EXPONENTIAL, gamma, y)
        assert expmod.value(exp_case1, t, x, m1) == pytest.approx(mix, rel=1e-12)


def test_ansatz_overflow_guard(exp_case1):
    with pytest.raises(EvaluationError):
        expmod.ansatz(exp_case1, 0.5, 0.0, -5000.0, 0.0)


def test_zero_kappa_branch(exp_case1):
    flat = perturb_constants(exp_case1, "kappa", -1.0)  # kappa becomes exactly 0
    assert flat.constants.kappa == 0.0
    q0, _ = expmod.strategy(flat, 0.0)
    qT, _ = expmod.strategy(flat, 2.0)
    assert q0 == qT  # no decay left
    co = flat.coeffs
    # value drift term degenerates to a*eta*tau
    w = flat.x0 + flat.delay.beta * flat.m1_0
    got = expmod.value(flat, 1.0, flat.x0, flat.m1_0)
    f = 0.1**2 / 0.36 + (co.a * co.eta2) ** 2 / co.b2
    g_const = f / flat.mean_gamma
    assert got == pytest.approx(w + co.a * co.eta * 1.0 + 0.5 * g_const * 1.0, rel=1e-13)


def test_sensitivity_report_benchmark(exp_case1):
    rep = expmod.sensitivity(exp_case1)
    assert rep.alpha_star == pytest.approx(ALPHA_STAR, rel=1e-14)
    assert rep.h_star == pytest.approx(H_STAR, rel=1e-14)
    assert rep.q_hat == pytest.approx(Q0, rel=1e-14)
    # benchmark sits right of alpha_star and of h_star
    assert rep.sign_alpha == 1
    assert rep.sign_beta == -1
    assert rep.sign_h == -1


def _rebuild(params, **delay_updates):
    import dataclasses
    delay = dataclasses.replace(params.delay, **delay_updates)
    return ModelParams.build(
        insurance=params.insurance,
        financial=params.financial,
        delay=delay,
        dist=params.dist,
        horizon=params.horizon,
        x0=params.x0,
    )


def test_sensitivity_matches_finite_differences(exp_case1):
    step = 1e-6
    rep = expmod.sensitivity(exp_case1)

    def q0_of(**kw):
        return expmod.strategy(_rebuild(exp_case1, **kw), 0.0)[0]

    d_alpha = (q0_of(alpha=0.5 + step) - q0_of(alpha=0.5 - step)) / (2 * step)
    d_beta = (q0_of(beta=0.05 + step) - q0_of(beta=0.05 - step)) / (2 * step)
    d_h = (q0_of(h=2.0 + step) - q0_of(h=2.0 - step)) / (2 * step)
    assert rep.d_alpha == pytest.approx(d_alpha, rel=1e-6)
    assert rep.d_beta == pytest.approx(d_beta, rel=1e-6)
    assert rep.d_h == pytest.approx(d_h, rel=1e-6)


def test_sensitivity_sign_flips():
    # left of the log(h)/h threshold the alpha-derivative is negative
    base = _make_exp(alpha=0.1, beta=0.05, h=2.0)
    assert expmod.sensitivity(base).sign_alpha == -1
    # short windows flip the beta effect to positive
    short = _make_exp(alpha=0.5, beta=0.05, h=1.0)
    rep = expmod.sensitivity(short)
    assert rep.sign_beta == 1
    assert rep.h_star is not None and 1.0 < rep.h_star
    # h_star undefined once r + alpha >= 1
    steep = _make_exp(alpha=0.95, beta=0.05, h=2.0)
    assert expmod.sensitivity(steep).h_star is None


def test_sensitivity_zero_cases():
    nobeta = _make_exp(alpha=0.5, beta=0.0, h=2.0)
    rep = expmod.sensitivity(nobeta)
    # without memory weight the alpha and h channels are dead, beta's is not
    assert rep.d_alpha == 0.0 and rep.d_h == 0.0
    assert rep.sign_alpha == 0 and rep.sign_h == 0
    assert rep.d_beta != 0.0
    base = _make_exp(alpha=0.5, beta=0.05, h=2.0)
    at_t = expmod.sensitivity(base, t=2.0)
    assert at_t.d_alpha == at_t.d_beta == at_t.d_h == 0.0
    assert at_t.sign_alpha == at_t.sign_beta == at_t.sign_h == 0


def _make_exp(alpha, beta, h):
    from delaris.model import DelayParams, FinancialParams, InsuranceParams
    return ModelParams.build(
        insurance=InsuranceParams(lambda1=1.0, mu1=0.1, mu2=0.2, eta1=0.3, eta2=0.5),
        financial=FinancialParams(r=0.1, mu=0.2, sigma=0.6),
        delay=DelayParams(alpha=alpha, beta=beta, h=h),
        dist=RiskAversionDist(family=EXPONENTIAL, points=((0.5, 0.5), (0.9, 0.5))),
        horizon=2.0,
        x0=0.6,
    )
