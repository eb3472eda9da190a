import dataclasses
import math

import numpy as np
import pytest

from delaris.exceptions import ParameterError
from delaris.model import (
    DelayParams,
    FinancialParams,
    InsuranceParams,
    ModelParams,
    RiskAversionDist,
    derive_coeffs,
    kappa_closed_form,
    solve_delay_constants,
)

BASE_FIN = FinancialParams(r=0.1, mu=0.2, sigma=0.6)
BASE_DELAY = DelayParams(alpha=0.5, beta=0.05, h=2.0)


def test_diffusion_coefficients():
    co = derive_coeffs(InsuranceParams(lambda1=1.0, mu1=0.1, mu2=0.2, eta1=0.3, eta2=0.5))
    assert co.a == pytest.approx(0.1, rel=1e-15)
    assert co.b == pytest.approx(math.sqrt(0.2), rel=1e-15)
    assert co.b2 == pytest.approx(0.2, rel=1e-15)
    assert co.eta == pytest.approx(-0.2, rel=1e-15)
    assert co.eta2 == 0.5


def test_delay_constants_benchmark_values():
    # independently evaluated at 50-digit precision from the closed forms
    cons = solve_delay_constants(BASE_FIN, BASE_DELAY)
    assert cons.C == pytest.approx(0.018393972058572116, rel=1e-14)
    assert cons.B == pytest.approx(0.030076477521020375, rel=1e-14)
    assert cons.A == pytest.approx(0.051529550420407508, rel=1e-14)
    assert cons.kappa == pytest.approx(0.10152955042040751, rel=1e-14)


def test_closure_identities_random_draws():
    rng = np.random.default_rng(20240814)
    for _ in range(200):
        r = rng.uniform(0.01, 0.3)
        alpha = rng.uniform(0.0, 2.0)
        beta = rng.uniform(0.0, 1.0)
        h = rng.uniform(0.1, 5.0)
        fin = FinancialParams(r=r, mu=r + 0.1, sigma=0.5)
        delay = DelayParams(alpha=alpha, beta=beta, h=h)
        cons = solve_delay_constants(fin, delay)
        decay = math.exp(-alpha * h)
        assert cons.C == pytest.approx(beta * decay, rel=1e-12, abs=1e-15)
        assert cons.B * decay == pytest.approx(
            (alpha + cons.A + beta) * cons.C, rel=1e-12, abs=1e-15)
        assert cons.A == pytest.approx(r - cons.B - cons.C, rel=1e-12, abs=1e-15)
        assert cons.kappa == pytest.approx(cons.A + beta, rel=1e-12, abs=1e-15)
        assert cons.kappa == pytest.approx(
            kappa_closed_form(r, alpha, beta, h), rel=1e-12, abs=1e-15)


def test_delay_constants_match_mpmath_over_admitted_inputs():
    # log-uniform draws over r, alpha, beta in 1e-6..1e3, 1e-8..1e4, 1e-8..1e4
    # and h in 1e-6..1e3, with alpha = 0 and beta = 0 mixed in; alpha*h reaches
    # 1e7, where exp(-alpha*h) underflows to 0 and a division by it failed.
    # alpha = 5e-324 puts alpha*h below the normal floats.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    rng = np.random.default_rng(2025)

    def logu(lo, hi):
        return float(np.exp(rng.uniform(math.log(lo), math.log(hi))))

    draws = [(0.1, 400.0, 0.05, 2.0), (0.1, 1e3, 0.05, 1e3), (0.1, 0.5, 0.05, 2e6),
             (0.1, 5e-324, 0.05, 0.3), (0.1, 0.0, 0.05, 2.0), (0.1, 0.5, 0.0, 2.0)]
    for i in range(2000):
        draws.append((logu(1e-6, 1e3), 0.0 if i % 10 == 0 else logu(1e-8, 1e4),
                      0.0 if i % 10 == 5 else logu(1e-8, 1e4), logu(1e-6, 1e3)))
    worst = 0.0
    for r, alpha, beta, h in draws:
        params = ModelParams.build(
            insurance=InsuranceParams(lambda1=1.0, mu1=0.1, mu2=0.2, eta1=0.3, eta2=0.5),
            financial=FinancialParams(r=r, mu=r + 0.1, sigma=0.5),
            delay=DelayParams(alpha=alpha, beta=beta, h=h),
            dist=RiskAversionDist(family="exponential", points=((0.5, 1.0),)),
            horizon=2.0, x0=0.6)
        R, al, be, H = (mpmath.mpf(v) for v in (r, alpha, beta, h))
        kappa = (R - be * (al + mpmath.expm1(-al * H))) / (1 + be)
        want = {"A": kappa - be, "B": be * (al + kappa), "C": be * mpmath.exp(-al * H),
                "kappa": kappa,
                "m1_0": mpmath.mpf(0.6) * (H if alpha == 0.0 else -mpmath.expm1(-al * H) / al)}
        cons = params.constants
        got = {"A": cons.A, "B": cons.B, "C": cons.C, "kappa": cons.kappa, "m1_0": params.m1_0}
        for name, value in want.items():
            assert math.isfinite(got[name]), (name, r, alpha, beta, h)
            worst = max(worst, float(abs(got[name] - value) / max(abs(value), 1)))
    assert worst < 1e-12


def test_zero_beta_collapses_constants():
    cons = solve_delay_constants(BASE_FIN, DelayParams(alpha=0.5, beta=0.0, h=2.0))
    assert cons.B == 0.0 and cons.C == 0.0
    assert cons.A == pytest.approx(0.1, rel=1e-14)
    assert cons.kappa == pytest.approx(0.1, rel=1e-14)


def test_zero_alpha_limit():
    cons = solve_delay_constants(BASE_FIN, DelayParams(alpha=0.0, beta=0.05, h=2.0))
    assert cons.C == pytest.approx(0.05, rel=1e-14)  # decay factor is 1
    params = ModelParams.build(
        insurance=InsuranceParams(lambda1=1.0, mu1=0.1, mu2=0.2, eta1=0.3, eta2=0.5),
        financial=BASE_FIN,
        delay=DelayParams(alpha=0.0, beta=0.05, h=2.0),
        dist=RiskAversionDist(family="exponential", points=((0.5, 1.0),)),
        horizon=2.0,
        x0=0.6,
    )
    assert params.m1_0 == pytest.approx(0.6 * 2.0, rel=1e-15)


def test_initial_average_benchmark(exp_case1):
    assert exp_case1.m1_0 == pytest.approx(0.7585446705942692, rel=1e-14)
    assert exp_case1.m2_0 == 0.6
    assert exp_case1.mean_gamma == pytest.approx(0.7, rel=1e-15)


def test_case2_mean(exp_case2):
    assert exp_case2.mean_gamma == pytest.approx(0.58, rel=1e-14)


@pytest.mark.parametrize("kwargs,snippet", [
    (dict(lambda1=-1.0, mu1=0.1, mu2=0.2, eta1=0.3, eta2=0.5), "lambda1"),
    (dict(lambda1=1.0, mu1=0.0, mu2=0.2, eta1=0.3, eta2=0.5), "mu1"),
    (dict(lambda1=1.0, mu1=0.1, mu2=0.2, eta1=0.6, eta2=0.5), "eta1"),
])
def test_insurance_validation(kwargs, snippet):
    with pytest.raises(ParameterError, match=snippet):
        InsuranceParams(**kwargs)


def test_financial_and_delay_validation():
    with pytest.raises(ParameterError, match="financial.r"):
        FinancialParams(r=0.0, mu=0.2, sigma=0.6)
    with pytest.raises(ParameterError, match="financial.mu"):
        FinancialParams(r=0.1, mu=0.05, sigma=0.6)
    with pytest.raises(ParameterError, match="delay.h"):
        DelayParams(alpha=0.5, beta=0.05, h=0.0)
    with pytest.raises(ParameterError, match="delay.alpha"):
        DelayParams(alpha=-0.1, beta=0.05, h=2.0)


def test_risk_aversion_validation():
    with pytest.raises(ParameterError, match="sum to 1"):
        RiskAversionDist(family="exponential", points=((0.5, 0.4), (0.9, 0.4)))
    with pytest.raises(ParameterError, match="family"):
        RiskAversionDist(family="quadratic", points=((0.5, 1.0),))
    with pytest.raises(ParameterError, match="gamma"):
        RiskAversionDist(family="exponential", points=((1e-5, 1.0),))
    with pytest.raises(ParameterError, match="gamma"):
        RiskAversionDist(family="power", points=((1.0, 1.0),))
    with pytest.raises(ParameterError, match="gamma"):
        RiskAversionDist(family="power", points=((1.5, 1.0),))
    with pytest.raises(ParameterError, match=r"risk_aversion\.points repeats gamma 0\.5"):
        RiskAversionDist(family="power", points=((0.5, 0.25), (0.5, 0.25), (0.9, 0.5)))
    # power gammas above 1 are rejected, exponential ones are fine
    d = RiskAversionDist(family="exponential", points=((1.5, 1.0),))
    assert d.gammas == (1.5,)


def test_probability_renormalization_is_exact():
    d = RiskAversionDist(
        family="exponential",
        points=((0.5, 0.1 + 1e-12), (0.9, 0.9)),
    )
    assert math.fsum(d.probs) == pytest.approx(1.0, abs=1e-15)


def test_renormalized_points_rebuild_to_themselves():
    # the points of a renormalized (1, 2/7) pair: they sum to 1 only up to
    # rounding, and dividing by that sum again moved one by an ulp, so a
    # model read back from its manifest was not the model that wrote it
    pts = ((0.1, 0.7777777777777777), (0.2, 0.22222222222222218))
    assert RiskAversionDist(family="exponential", points=pts).points == pts


def test_power_requires_equal_loadings():
    with pytest.raises(ParameterError, match="equal"):
        ModelParams.build(
            insurance=InsuranceParams(lambda1=1.0, mu1=0.1, mu2=0.2, eta1=0.3, eta2=0.5),
            financial=BASE_FIN,
            delay=BASE_DELAY,
            dist=RiskAversionDist(family="power", points=((0.5, 1.0),)),
            horizon=2.0,
            x0=0.6,
        )


@pytest.mark.parametrize("insurance, financial, fields", [
    ({}, {"sigma": 1e-300}, "financial.sigma"),  # sigma^2 underflows to 0
    ({}, {"mu": 1e300}, "financial.mu"),  # (mu - r)^2 overflows
    ({"mu1": 1e300}, {}, "insurance.mu1"),  # (a*eta2)^2 overflows
    ({"mu2": 1e-320}, {}, "insurance.mu2"),  # b^2 is subnormal: the term is inf
    ({"lambda1": 1e-200, "mu2": 1e-200}, {}, "insurance.mu2"),  # b^2 underflows to 0
    ({"mu1": 1.2e154, "mu2": 1.0, "eta1": 1.0, "eta2": 1.0},
     {"r": 1.0, "mu": 1.2e154 + 1.0, "sigma": 1.0}, "overflow in sum"),
], ids=["sigma", "mu", "mu1", "mu2", "b-zero", "sum"])
def test_nonfinite_g2_rejected(insurance, financial, fields):
    ins = dict(lambda1=1.0, mu1=0.1, mu2=0.2, eta1=0.3, eta2=0.3) | insurance
    fin = dict(r=0.1, mu=0.2, sigma=0.6) | financial
    for family in ("exponential", "power"):
        with pytest.raises(ParameterError, match=f"G2 is not finite.*{fields}"):
            ModelParams.build(insurance=InsuranceParams(**ins), financial=FinancialParams(**fin),
                              delay=BASE_DELAY, dist=RiskAversionDist(family, ((0.5, 1.0),)),
                              horizon=2.0, x0=0.6)


@pytest.mark.parametrize("insurance, coeff, fields", [
    ({"lambda1": 1e200, "mu1": 1e-200, "mu2": 1e200}, "b", "insurance.lambda1 and insurance.mu2"),
    ({"lambda1": 1e200, "mu1": 1e200}, "a", "insurance.lambda1 and insurance.mu1"),
], ids=["b", "a"])
def test_nonfinite_coefficients_rejected(insurance, coeff, fields):
    # b = sqrt(lambda1*mu2) = inf made G2's insurance term (a*eta2)^2/b^2
    # zero, so the first model built and gave q_hat 0
    ins = dict(lambda1=1.0, mu1=0.1, mu2=0.2, eta1=0.3, eta2=0.3) | insurance
    for family in ("exponential", "power"):
        with pytest.raises(ParameterError, match=f"coefficient {coeff} = inf.*{fields}"):
            ModelParams.build(insurance=InsuranceParams(**ins), financial=BASE_FIN,
                              delay=BASE_DELAY, dist=RiskAversionDist(family, ((0.5, 1.0),)),
                              horizon=2.0, x0=0.6)


def test_g2_is_its_closed_form(exp_case1, pow_case2):
    for params in (exp_case1, pow_case2):
        co, fin = params.coeffs, params.financial
        assert params.g2 == (fin.mu - fin.r) ** 2 / fin.sigma**2 + (co.a * co.eta2) ** 2 / co.b2


def test_frozen_dataclasses(exp_case1):
    with pytest.raises(dataclasses.FrozenInstanceError):
        exp_case1.insurance.mu1 = 0.5
    with pytest.raises(dataclasses.FrozenInstanceError):
        exp_case1.x0 = 1.0
