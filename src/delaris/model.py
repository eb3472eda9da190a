"""Model parameters, diffusion coefficients and the delay-constant system.

The insurer's surplus is approximated by a drifted diffusion with premium
income rate ``a`` and volatility ``b`` derived from the claim-arrival
intensity and the first two claim moments. Wealth carries a bounded memory:
a fraction of the exponentially averaged wealth over the last ``h`` time
units (weight ``B``), and of the wealth ``h`` units ago (weight ``C``), is
paid out or injected continuously. The structural condition

    C = beta * exp(-alpha*h),        B * exp(-alpha*h) = (alpha + A + beta) * C,

with ``A = r - B - C`` closes the problem in the three states
(wealth, running memory, lagged wealth) and yields the effective growth
rate ``kappa = A + beta`` used by every closed form downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .exceptions import InfeasibleError, ParameterError
from .utility import EXPONENTIAL, FAMILIES, POWER

# identity tolerance for the solved delay constants, relative
_IDENTITY_RTOL = 1e-12


@dataclass(frozen=True)
class InsuranceParams:
    """Claim process primitives and the two safety loadings.

    lambda1: claim arrival intensity (> 0)
    mu1, mu2: first and second moments of the claim size (> 0)
    eta1: insurer's safety loading
    eta2: reinsurer's safety loading, eta2 >= eta1 > 0 (cheap reinsurance
          is excluded, so the net loading eta1 - eta2 is nonpositive)
    """

    lambda1: float
    mu1: float
    mu2: float
    eta1: float
    eta2: float

    def __post_init__(self):
        for name in ("lambda1", "mu1", "mu2", "eta1", "eta2"):
            v = getattr(self, name)
            if not math.isfinite(v) or v <= 0.0:
                raise ParameterError(f"insurance.{name} must be positive and finite, got {v}")
        if self.eta1 > self.eta2:
            raise ParameterError(
                f"insurance.eta1 must not exceed eta2 (got eta1={self.eta1}, eta2={self.eta2})"
            )


@dataclass(frozen=True)
class DiffusionCoeffs:
    """Drifted-diffusion surplus coefficients: dR = a(eta + eta2*q)dt + b*q*dW."""

    a: float
    b: float
    eta: float
    eta2: float

    @property
    def b2(self) -> float:
        return self.b * self.b


def derive_coeffs(ins: InsuranceParams) -> DiffusionCoeffs:
    """Map claim primitives to the diffusion coefficients a, b and net loading eta."""
    return DiffusionCoeffs(
        a=ins.lambda1 * ins.mu1,
        b=math.sqrt(ins.lambda1 * ins.mu2),
        eta=ins.eta1 - ins.eta2,
        eta2=ins.eta2,
    )


@dataclass(frozen=True)
class FinancialParams:
    """Risk-free rate and the risky asset's drift/volatility."""

    r: float
    mu: float
    sigma: float

    def __post_init__(self):
        if not math.isfinite(self.r) or self.r <= 0.0:
            raise ParameterError(f"financial.r must be positive and finite, got {self.r}")
        if not math.isfinite(self.sigma) or self.sigma <= 0.0:
            raise ParameterError(f"financial.sigma must be positive and finite, got {self.sigma}")
        if not math.isfinite(self.mu) or self.mu < self.r:
            raise ParameterError(
                f"financial.mu must be finite and >= r (got mu={self.mu}, r={self.r})"
            )


@dataclass(frozen=True)
class DelayParams:
    """Memory parameters: averaging decay alpha >= 0, capital-flow weight
    beta >= 0, memory window h > 0."""

    alpha: float
    beta: float
    h: float

    def __post_init__(self):
        if not math.isfinite(self.alpha) or self.alpha < 0.0:
            raise ParameterError(f"delay.alpha must be >= 0 and finite, got {self.alpha}")
        if not math.isfinite(self.beta) or self.beta < 0.0:
            raise ParameterError(f"delay.beta must be >= 0 and finite, got {self.beta}")
        if not math.isfinite(self.h) or self.h <= 0.0:
            raise ParameterError(f"delay.h must be positive and finite, got {self.h}")


@dataclass(frozen=True)
class DerivedDelayConstants:
    """Solved wealth-equation weights.

    A: own-wealth drift weight, A = r - B - C
    B: weight on the running exponential average of past wealth
    C: weight on the lagged wealth
    kappa: effective growth rate A + beta

    Instances are produced by :func:`solve_delay_constants`; the type itself
    does not re-validate, so diagnostic perturbations can be constructed
    with ``dataclasses.replace``.
    """

    A: float
    B: float
    C: float
    kappa: float


def kappa_closed_form(r: float, alpha: float, beta: float, h: float) -> float:
    """Effective growth rate without solving the full system:
    kappa = r - beta/(1+beta) * (r + alpha + exp(-alpha*h) - 1)."""
    return r - beta / (1.0 + beta) * (r + alpha + math.exp(-alpha * h) - 1.0)


def solve_delay_constants(fin: FinancialParams, delay: DelayParams) -> DerivedDelayConstants:
    """Solve for (A, B, C) under the structural closure condition.

    The two conditions plus A = r - B - C give the closed form

        C = beta * e,    B = C * (alpha + r + beta - C) / (e + C),    e = exp(-alpha*h).

    Raises InfeasibleError if a weight comes out negative (cannot happen for
    validated inputs, kept as a guard) and ParameterError if the solved
    constants fail their defining identities at 1e-12 relative.
    """
    e = math.exp(-delay.alpha * delay.h)
    c = delay.beta * e
    b = c * (delay.alpha + fin.r + delay.beta - c) / (e + c)
    a = fin.r - b - c
    if b < 0.0 or c < 0.0:
        raise InfeasibleError(f"delay-constant system infeasible: B={b}, C={c}")
    kappa = a + delay.beta

    scale = max(1.0, abs(b), abs(c))
    if abs(b * e - (delay.alpha + a + delay.beta) * c) > _IDENTITY_RTOL * scale:
        raise ParameterError("solved delay constants violate the closure identity")
    k_ref = kappa_closed_form(fin.r, delay.alpha, delay.beta, delay.h)
    if abs(kappa - k_ref) > _IDENTITY_RTOL * max(1.0, abs(k_ref)):
        raise ParameterError("solved kappa disagrees with its closed form")
    return DerivedDelayConstants(A=a, B=b, C=c, kappa=kappa)


@dataclass(frozen=True)
class RiskAversionDist:
    """Finite discrete risk-aversion distribution: points (gamma_i, p_i).

    family: "exponential" or "power"
    gamma_min_exp: lower cutoff for exponential gammas (default 1e-3)
    gamma_max_pow: upper cutoff for power gammas (default 1 - 1e-6)

    Probabilities must sum to 1 within 1e-9; they are then renormalized
    exactly. Larger deviations are rejected, and so is a repeated gamma.
    """

    family: str
    points: tuple[tuple[float, float], ...]
    gamma_min_exp: float = 1e-3
    gamma_max_pow: float = 1.0 - 1e-6

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ParameterError(
                f"risk_aversion.family must be one of {FAMILIES}, got {self.family!r}"
            )
        pts = tuple((float(g), float(p)) for g, p in self.points)
        if not pts:
            raise ParameterError("risk_aversion.points must be non-empty")
        total = math.fsum(p for _, p in pts)
        if abs(total - 1.0) > 1e-9:
            raise ParameterError(
                f"risk_aversion probabilities must sum to 1 within 1e-9, got {total!r}"
            )
        normed = []
        for g, p in pts:
            if not math.isfinite(g) or not math.isfinite(p):
                raise ParameterError("risk_aversion points must be finite")
            if p <= 0.0:
                raise ParameterError(f"risk_aversion probabilities must be positive, got {p}")
            if self.family == EXPONENTIAL and g < self.gamma_min_exp:
                raise ParameterError(
                    f"exponential gamma must be >= {self.gamma_min_exp}, got {g}"
                )
            if self.family == POWER and not (0.0 < g <= self.gamma_max_pow):
                raise ParameterError(
                    f"power gamma must lie in (0, {self.gamma_max_pow}], got {g}"
                )
            if any(g == seen for seen, _ in normed):
                raise ParameterError(f"risk_aversion.points repeats gamma {g!r}")
            normed.append((g, p / total))
        object.__setattr__(self, "points", tuple(normed))

    @property
    def gammas(self) -> tuple[float, ...]:
        return tuple(g for g, _ in self.points)

    @property
    def probs(self) -> tuple[float, ...]:
        return tuple(p for _, p in self.points)

    @property
    def n(self) -> int:
        return len(self.points)


def mean_gamma(dist: RiskAversionDist) -> float:
    """First moment of the risk-aversion distribution."""
    return math.fsum(g * p for g, p in dist.points)


@dataclass(frozen=True)
class ModelParams:
    """Complete, validated model: primitives plus derived quantities.

    Build with :meth:`ModelParams.build`, which derives the diffusion
    coefficients and solves the delay-constant system. Constructing the
    frozen instance directly (e.g. via dataclasses.replace) skips the
    consistency derivation; that path exists for diagnostic fault injection.
    """

    insurance: InsuranceParams
    financial: FinancialParams
    delay: DelayParams
    dist: RiskAversionDist
    horizon: float
    x0: float
    coeffs: DiffusionCoeffs = field(repr=False)
    constants: DerivedDelayConstants = field(repr=False)

    def __post_init__(self):
        if not math.isfinite(self.horizon) or self.horizon <= 0.0:
            raise ParameterError(f"horizon must be positive and finite, got {self.horizon}")
        if not math.isfinite(self.x0):
            raise ParameterError(f"x0 must be finite, got {self.x0}")
        if self.dist.family == POWER:
            if self.insurance.eta1 != self.insurance.eta2:
                raise ParameterError(
                    "power utility requires equal safety loadings "
                    f"(eta1 == eta2), got eta1={self.insurance.eta1}, "
                    f"eta2={self.insurance.eta2}"
                )
            if self.x0 + self.delay.beta * self.m1_0 <= 0.0:
                raise ParameterError(
                    "power utility requires positive initial effective wealth "
                    "x0 + beta*m1_0"
                )

    @classmethod
    def build(
        cls,
        insurance: InsuranceParams,
        financial: FinancialParams,
        delay: DelayParams,
        dist: RiskAversionDist,
        horizon: float,
        x0: float,
    ) -> "ModelParams":
        return cls(
            insurance=insurance,
            financial=financial,
            delay=delay,
            dist=dist,
            horizon=horizon,
            x0=x0,
            coeffs=derive_coeffs(insurance),
            constants=solve_delay_constants(financial, delay),
        )

    @property
    def m1_0(self) -> float:
        """Initial running memory under the constant pre-history x(s) = x0, s <= 0:
        x0*(1 - exp(-alpha*h))/alpha, with the alpha -> 0 limit x0*h."""
        if self.delay.alpha > 0.0:
            return self.x0 * (1.0 - math.exp(-self.delay.alpha * self.delay.h)) / self.delay.alpha
        return self.x0 * self.delay.h

    @property
    def m2_0(self) -> float:
        """Initial lagged wealth (the constant pre-history value)."""
        return self.x0

    @property
    def mean_gamma(self) -> float:
        return mean_gamma(self.dist)

    @property
    def g2(self) -> float:
        """G2 = (mu-r)^2/sigma^2 + (a*eta2)^2/b^2, read by both families."""
        co, fin = self.coeffs, self.financial
        return (fin.mu - fin.r) ** 2 / fin.sigma**2 + (co.a * co.eta2) ** 2 / co.b2
