"""Model parameters, diffusion coefficients and the delay constants.

The insurer's surplus is approximated by a drifted diffusion with premium
income rate ``a`` and volatility ``b`` derived from the claim-arrival
intensity and the first two claim moments. Wealth carries a bounded memory:
a fraction of the exponentially averaged wealth over the last ``h`` time
units (weight ``B``), and of the wealth ``h`` units ago (weight ``C``), is
paid out or injected continuously. The structural condition

    C = beta * exp(-alpha*h),        B * exp(-alpha*h) = (alpha + A + beta) * C,

with ``A = r - B - C`` closes the problem in the three states
(wealth, running memory, lagged wealth) and yields the effective growth
rate ``kappa = A + beta`` used by every closed form downstream. The
condition has an explicit solution: with ``em1 = expm1(-alpha*h)`` and
``s = beta/(1 + beta)``,

    kappa = r - s*(r + alpha + em1),    B = beta*(alpha + kappa) = s*(alpha + r - beta*em1),

``C = beta*exp(-alpha*h)`` and ``A = kappa - beta``. No ``exp(-alpha*h)``
divides (it underflows to 0 past alpha*h of about 745), and every term of
``B`` is nonnegative, so nothing cancels and ``B, C >= 0`` by construction.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

from .exceptions import ParameterError
from .utility import EXPONENTIAL, FAMILIES, POWER

# tolerance of the identity A = r - B - C the delay constants must meet, relative
_IDENTITY_RTOL = 1e-12
_GRID_RTOL = 1e-9  # a step must divide its span to this relative tolerance
_GAMMA_MIN_EXP = 1e-3  # lower cutoff for exponential gammas
_GAMMA_MAX_POW = 1.0 - 1e-6  # upper cutoff for power gammas
# the diffusion coefficients and the fields each is built from
_COEFF_FIELDS = (
    ("a", "insurance.lambda1 and insurance.mu1"),
    ("b", "insurance.lambda1 and insurance.mu2"),
    ("b2", "insurance.lambda1 and insurance.mu2"),
)
# the two terms of G2 and the fields each is built from
_G2_TERMS = (
    ("financial.mu, financial.r and financial.sigma",
     lambda co, fin: (fin.mu - fin.r) ** 2 / fin.sigma**2),
    ("insurance.lambda1, insurance.mu1, insurance.mu2 and insurance.eta2",
     lambda co, fin: (co.a * co.eta2) ** 2 / co.b2),
)


def grid_steps(span: float, dt: float, name: str) -> int:
    """Number of steps dt in span; dt must divide it (1e-9 relative), and
    one array of 16-byte rows must be able to index the steps."""
    steps = span / dt
    if not steps <= sys.maxsize // 16:
        raise ParameterError(f"dt={dt} is too small for {name}={span}: one array cannot "
                             f"index its {steps:.3g} steps")
    n = int(round(steps))
    if n < 1 or abs(n * dt - span) > _GRID_RTOL * max(1.0, span):
        raise ParameterError(f"dt={dt} must divide {name}={span}")
    return n


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
    """Effective growth rate kappa = r - beta/(1+beta) * (r + alpha + expm1(-alpha*h)),
    the closure condition solved for A + beta; expm1 keeps every digit of
    exp(-alpha*h) - 1 where alpha*h is small."""
    return r - beta / (1.0 + beta) * (r + alpha + math.expm1(-alpha * h))


def solve_delay_constants(fin: FinancialParams, delay: DelayParams) -> DerivedDelayConstants:
    """(A, B, C, kappa) in closed form (see the module docstring): kappa from
    :func:`kappa_closed_form`, A = kappa - beta, C = beta*exp(-alpha*h) and
    B = beta*(alpha + kappa), the closure condition solved for B, in its
    one-signed form. Raises ParameterError if A = r - B - C fails at 1e-12
    relative to its largest term (at r = 1e5 and beta = 1e-8, A and
    r - B - C each round by an ulp of r); the check ties kappa and B."""
    r, alpha, beta, h = fin.r, delay.alpha, delay.beta, delay.h
    kappa = kappa_closed_form(r, alpha, beta, h)
    a, c = kappa - beta, beta * math.exp(-alpha * h)
    b = beta / (1.0 + beta) * (alpha + r - beta * math.expm1(-alpha * h))
    if abs(a - (r - b - c)) > _IDENTITY_RTOL * max(1.0, abs(a), b, c):
        raise ParameterError("delay constants violate A = r - B - C "
                             "(financial.r, delay.alpha, delay.beta and delay.h)")
    return DerivedDelayConstants(A=a, B=b, C=c, kappa=kappa)


@dataclass(frozen=True)
class RiskAversionDist:
    """Finite discrete risk-aversion distribution: points (gamma_i, p_i).

    family: "exponential" (every gamma >= 1e-3) or "power" (every gamma
            in (0, 1 - 1e-6])

    Probabilities must sum to 1 within 1e-9; they are then divided by their
    sum, unless it is within one ulp of 1 (as a divided set's is), so a
    distribution rebuilt from its own points is equal to it. Larger
    deviations are rejected, and so is a repeated gamma.
    """

    family: str
    points: tuple[tuple[float, float], ...]

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
        if abs(total - 1.0) <= math.ulp(1.0):
            total = 1.0  # normalized up to rounding: kept, so renormalizing is idempotent
        normed = []
        for g, p in pts:
            if not math.isfinite(g) or not math.isfinite(p):
                raise ParameterError("risk_aversion points must be finite")
            if p <= 0.0:
                raise ParameterError(f"risk_aversion probabilities must be positive, got {p}")
            if self.family == EXPONENTIAL and g < _GAMMA_MIN_EXP:
                raise ParameterError(
                    f"exponential gamma must be >= {_GAMMA_MIN_EXP}, got {g}"
                )
            if self.family == POWER and not (0.0 < g <= _GAMMA_MAX_POW):
                raise ParameterError(
                    f"power gamma must lie in (0, {_GAMMA_MAX_POW}], got {g}"
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
        if not math.isfinite(self.w0):  # also where m1_0 is not: beta*m1_0 is then inf or NaN
            raise ParameterError(
                f"initial memory m1_0 = {self.m1_0} or effective wealth x0 + beta*m1_0 = "
                f"{self.w0} is not finite: x0, delay.alpha, delay.beta and delay.h overflow")
        if self.dist.family == POWER:
            if self.insurance.eta1 != self.insurance.eta2:
                raise ParameterError(
                    "power utility requires equal safety loadings "
                    f"(eta1 == eta2), got eta1={self.insurance.eta1}, "
                    f"eta2={self.insurance.eta2}"
                )
            if self.w0 <= 0.0:
                raise ParameterError(
                    "power utility requires positive initial effective wealth "
                    "x0 + beta*m1_0"
                )
        for name, fields in _COEFF_FIELDS:
            if not math.isfinite(value := getattr(self.coeffs, name)):
                raise ParameterError(f"insurance coefficient {name} = {value} is not finite: "
                                     f"{fields} overflow")
        for fields, term in _G2_TERMS:
            try:  # ** raises OverflowError past the float range, / ZeroDivisionError at 0
                finite = math.isfinite(term(self.coeffs, self.financial))
            except (OverflowError, ZeroDivisionError):
                finite = False
            if not finite:
                raise ParameterError(f"G2 is not finite in its term of {fields}")
        if not math.isfinite(self.g2):
            raise ParameterError(
                f"G2 is not finite: its terms of {_G2_TERMS[0][0]} and of {_G2_TERMS[1][0]} overflow in sum")

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
        -x0*expm1(-alpha*h)/alpha, or its alpha -> 0 limit x0*h wherever
        alpha*h is below the normal floats (and keeps too few digits)."""
        alpha, h = self.delay.alpha, self.delay.h
        if alpha * h < sys.float_info.min:
            return self.x0 * h
        return -self.x0 * math.expm1(-alpha * h) / alpha

    @property
    def w0(self) -> float:
        """Initial effective wealth x0 + beta*m1_0."""
        return self.x0 + self.delay.beta * self.m1_0

    @property
    def m2_0(self) -> float:
        """Initial lagged wealth (the constant pre-history value)."""
        return self.x0

    @property
    def mean_gamma(self) -> float:
        return mean_gamma(self.dist)

    @property
    def g2(self) -> float:
        """G2 = (mu-r)^2/sigma^2 + (a*eta2)^2/b^2, read by both families;
        finite for every built model."""
        market, insurance = (term(self.coeffs, self.financial) for _, term in _G2_TERMS)
        return market + insurance
