"""Time-consistent reinsurance and investment strategies under wealth
memory and random risk aversion.

The package solves, in closed or semi-closed form, the equilibrium
proportional-retention and investment rules of an insurer whose
performance depends on a moving average of past wealth and whose risk
aversion is a random draw from a finite set. It also simulates the
delayed wealth dynamics and verifies the analytic solutions against the
defining equations and against Monte Carlo expectations.
"""

from .exceptions import (
    DelarisError,
    DomainError,
    EvaluationError,
    ParameterError,
)
from .model import (
    DelayParams,
    DerivedDelayConstants,
    DiffusionCoeffs,
    FinancialParams,
    InsuranceParams,
    ModelParams,
    RiskAversionDist,
    derive_coeffs,
    kappa_closed_form,
    mean_gamma,
    solve_delay_constants,
)
from .utility import (
    EXPONENTIAL,
    FAMILIES,
    POWER,
    inverse_utility,
    inverse_utility_d1,
    inverse_utility_d2,
    utility,
)

__version__ = "0.1.0"

__all__ = [
    "DelarisError",
    "DomainError",
    "EvaluationError",
    "ParameterError",
    "DelayParams",
    "DerivedDelayConstants",
    "DiffusionCoeffs",
    "FinancialParams",
    "InsuranceParams",
    "ModelParams",
    "RiskAversionDist",
    "derive_coeffs",
    "kappa_closed_form",
    "mean_gamma",
    "solve_delay_constants",
    "EXPONENTIAL",
    "FAMILIES",
    "POWER",
    "utility",
    "inverse_utility",
    "inverse_utility_d1",
    "inverse_utility_d2",
    "__version__",
]
