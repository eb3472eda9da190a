"""Closed-form equilibrium strategy and value for the exponential family.

Under exponential utility with a finite risk-aversion distribution the
equilibrium retention and investment are deterministic functions of time:

    q(t)    = a*eta2 / (b^2 * E[gamma]) * exp(-kappa*(T - t))
    pi_x(t) = (mu - r) / (sigma^2 * E[gamma]) * exp(-kappa*(T - t))

where pi_x is the invested amount (it does not depend on current wealth).
The per-gamma expected-utility ansatz is exponential-affine in the
effective wealth w = x + beta*m1,

    Y(t, x, m1) = -(1/gamma) * exp(g1(t)*w + g2(t)),

and the aggregated certainty-equivalent value is affine in w. The module
also reports the comparative statics of q(0) in the memory parameters,
including both sign-change thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, EvaluationError, ParameterError
from .model import ModelParams
from .utility import EXPONENTIAL

_EXP_MAX = 709.0  # log of the largest double, minus safety
_X_FLOOR = 1e-8  # smallest |wealth| pi_fraction divides by


def _require_exponential(params: ModelParams) -> None:
    if params.dist.family != EXPONENTIAL:
        raise ParameterError(
            f"exponential-family routine called with family {params.dist.family!r}"
        )


def _check_time(params: ModelParams, t: float) -> float:
    t = float(t)
    if not 0.0 <= t <= params.horizon:
        raise DomainError(f"t must lie in [0, {params.horizon}], got {t}")
    return t


def _expm1_over(kappa: float, tau: float) -> float:
    """(exp(kappa*tau) - 1)/kappa with the analytic kappa = 0 limit tau."""
    if kappa == 0.0:
        return tau
    return math.expm1(kappa * tau) / kappa


def schedule(params: ModelParams, times) -> tuple[np.ndarray, np.ndarray]:
    """Equilibrium retention and invested amount at each of ``times``, as
    two arrays. The factors that do not depend on time are formed once; each
    decay exp(-kappa*(T - t)) is ``math.exp`` of its own time, so every
    entry is the one-point value bit for bit."""
    _require_exponential(params)
    co, fin = params.coeffs, params.financial
    e_gamma = params.mean_gamma
    q_max = co.a * co.eta2 / (co.b2 * e_gamma)
    pi_max = (fin.mu - fin.r) / (fin.sigma**2 * e_gamma)
    kappa, horizon = params.constants.kappa, params.horizon
    decay = np.array([math.exp(-kappa * (horizon - _check_time(params, t))) for t in times])
    return q_max * decay, pi_max * decay


def strategy(params: ModelParams, t: float) -> tuple[float, float]:
    """Equilibrium (retention, invested amount) at time t: ``schedule`` at
    one time.

    Both components are deterministic: the invested amount is independent of
    current wealth and memory.
    """
    (q,), (pi_x,) = schedule(params, (t,))
    return float(q), float(pi_x)


def pi_fraction(params: ModelParams, t: float, x: float) -> float:
    """Invested fraction of wealth, pi_x(t)/x. Guards |x| < 1e-8."""
    if abs(x) < _X_FLOOR:
        raise EvaluationError(
            f"wealth {x} too close to zero for a fraction (floor {_X_FLOOR})"
        )
    _, pi_x = strategy(params, t)
    return pi_x / x


def exponent_slope(params: ModelParams, gamma: float, t: float) -> float:
    """Coefficient of effective wealth in the ansatz exponent: -gamma*exp(kappa*(T-t))."""
    _require_exponential(params)
    t = _check_time(params, t)
    return -gamma * math.exp(params.constants.kappa * (params.horizon - t))


def drift_adjustment(params: ModelParams, gamma: float) -> float:
    """Time-linear drift constant in the ansatz exponent offset."""
    _require_exponential(params)
    g2, e_gamma = params.g2, params.mean_gamma
    return gamma * g2 / e_gamma - 0.5 * gamma**2 * g2 / e_gamma**2


def exponent_offset(params: ModelParams, gamma: float, t: float) -> float:
    """Wealth-free part of the ansatz exponent."""
    _require_exponential(params)
    t = _check_time(params, t)
    co = params.coeffs
    tau = params.horizon - t
    flow = -gamma * co.a * co.eta * _expm1_over(params.constants.kappa, tau)
    return flow - drift_adjustment(params, gamma) * tau


def ansatz(params: ModelParams, gamma: float, t: float, x, m1):
    """Per-gamma expected utility of terminal effective wealth under the
    equilibrium strategy, -(1/gamma)*exp(g1*w + g2) with w = x + beta*m1;
    x and m1 may be arrays."""
    w = x + params.delay.beta * m1
    exponent = exponent_slope(params, gamma, t) * w + exponent_offset(params, gamma, t)
    if np.any(exponent > _EXP_MAX):
        raise EvaluationError(
            f"ansatz exponent {np.max(exponent)} exceeds floating-point range")
    return -np.exp(exponent) / gamma


def value(params: ModelParams, t: float, x: float, m1: float) -> float:
    """Aggregated certainty-equivalent value, affine in w = x + beta*m1:

        w*exp(kappa*tau) + a*eta*(exp(kappa*tau) - 1)/kappa + 0.5*G*tau,

    tau = T - t, G = ((mu-r)^2/sigma^2 + (a*eta2)^2/b^2)/E[gamma]. The
    middle term uses the analytic kappa = 0 limit a*eta*tau.
    """
    _require_exponential(params)
    t = _check_time(params, t)
    co = params.coeffs
    tau = params.horizon - t
    kappa = params.constants.kappa
    g = params.g2 / params.mean_gamma
    w = x + params.delay.beta * m1
    return w * math.exp(kappa * tau) + co.a * co.eta * _expm1_over(kappa, tau) + 0.5 * g * tau


@dataclass(frozen=True)
class SensitivityReport:
    """Comparative statics of the retention q(t) in the memory parameters.

    d_alpha, d_beta, d_h: partial derivatives of q(t) at the given params
    sign_*: exact sign (+1/0/-1) from the factored closed forms
    alpha_star: root of the alpha-derivative's sign factor, ln(h)/h
    h_star: root of the beta-derivative's sign factor, -ln(1-r-alpha)/alpha;
            None when alpha = 0 or r + alpha >= 1 (derivative then positive
            for every h)
    """

    t: float
    q_hat: float
    d_alpha: float
    d_beta: float
    d_h: float
    sign_alpha: int
    sign_beta: int
    sign_h: int
    alpha_star: float
    h_star: float | None


def sensitivity(params: ModelParams, t: float = 0.0) -> SensitivityReport:
    """Analytic partials of q(t) with respect to alpha, beta and h.

    With tau = T - t and e = exp(-alpha*h):

        dq/dalpha = q * beta/(1+beta) * (1 - h*e) * tau
        dq/dbeta  = q / (1+beta)^2 * (r + alpha + e - 1) * tau
        dq/dh     = -q * alpha*beta/(1+beta) * e * tau

    Signs are reported from the factored forms so that exact zeros
    (beta = 0, alpha = 0, t = T) do not depend on rounding.
    """
    _require_exponential(params)
    t = _check_time(params, t)
    d = params.delay
    r = params.financial.r
    tau = params.horizon - t
    e = math.exp(-d.alpha * d.h)
    q, _ = strategy(params, t)

    fac_alpha = 1.0 - d.h * e
    fac_beta = r + d.alpha + e - 1.0
    d_alpha = q * d.beta / (1.0 + d.beta) * fac_alpha * tau
    d_beta = q / (1.0 + d.beta) ** 2 * fac_beta * tau
    d_h = -q * d.alpha * d.beta / (1.0 + d.beta) * e * tau

    def sgn(v: float) -> int:
        return (v > 0.0) - (v < 0.0)

    zero = d.beta == 0.0 or tau == 0.0
    sign_alpha = 0 if zero else sgn(fac_alpha)
    sign_beta = 0 if tau == 0.0 else sgn(fac_beta)
    sign_h = 0 if (zero or d.alpha == 0.0) else -1

    h_star = None
    if d.alpha > 0.0 and r + d.alpha < 1.0:
        h_star = -math.log(1.0 - r - d.alpha) / d.alpha
    return SensitivityReport(
        t=t,
        q_hat=q,
        d_alpha=d_alpha,
        d_beta=d_beta,
        d_h=d_h,
        sign_alpha=sign_alpha,
        sign_beta=sign_beta,
        sign_h=sign_h,
        alpha_star=math.log(d.h) / d.h,
        h_star=h_star,
    )
