"""Per-gamma utility families and the derivatives of their inverses.

Two families are supported:

* ``"exponential"``: u(w) = -exp(-gamma*w)/gamma, defined for all real wealth.
* ``"power"``: u(w) = w**(1-gamma)/(1-gamma), defined for positive wealth,
  gamma in (0, 1) or (1, inf).

Besides the utility itself the module exposes the inverse u^{-1} and its
first two derivatives, which the certainty-equivalent aggregation and the
verification penalties need. All functions accept scalars or numpy arrays
and raise :class:`DomainError` when any element leaves the domain.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DomainError

EXPONENTIAL = "exponential"
POWER = "power"
FAMILIES = (EXPONENTIAL, POWER)


def _check_family(family: str) -> None:
    if family not in FAMILIES:
        raise DomainError(f"unknown utility family {family!r}; expected one of {FAMILIES}")


def _check_gamma(family: str, gamma: float) -> None:
    if not np.isfinite(gamma) or gamma <= 0.0:
        raise DomainError(f"gamma must be positive and finite, got {gamma}")
    if family == POWER and gamma == 1.0:
        raise DomainError("power utility is undefined at gamma = 1")


def _inverse_arg(family: str, gamma: float, y):
    """y as an array, after the family, gamma and domain checks that
    u^{-1} and its derivatives share."""
    _check_family(family)
    _check_gamma(family, gamma)
    y = np.asarray(y, dtype=float)
    if family == EXPONENTIAL:
        if np.any(y >= 0.0):
            raise DomainError("exponential inverse utility requires y < 0")
    elif np.any((1.0 - gamma) * y <= 0.0):
        raise DomainError("power inverse utility requires (1-gamma)*y > 0")
    return y


def utility(family: str, gamma: float, w):
    """Evaluate u(w) for one member of the family.

    Power utility requires w > 0 elementwise.
    """
    _check_family(family)
    _check_gamma(family, gamma)
    w = np.asarray(w, dtype=float)
    if family == EXPONENTIAL:
        out = -np.exp(-gamma * w) / gamma
    else:
        if np.any(w <= 0.0):
            raise DomainError("power utility requires wealth > 0")
        out = w ** (1.0 - gamma) / (1.0 - gamma)
    return out if out.ndim else float(out)


def inverse_utility(family: str, gamma: float, y):
    """Evaluate u^{-1}(y), the certainty equivalent of utility level y.

    Domains: y < 0 for exponential; (1-gamma)*y > 0 for power.
    """
    y = _inverse_arg(family, gamma, y)
    if family == EXPONENTIAL:
        out = -np.log(-gamma * y) / gamma
    else:
        out = ((1.0 - gamma) * y) ** (1.0 / (1.0 - gamma))
    return out if out.ndim else float(out)


def inverse_utility_d1(family: str, gamma: float, y):
    """First derivative of u^{-1} at y (same domains as :func:`inverse_utility`)."""
    y = _inverse_arg(family, gamma, y)
    if family == EXPONENTIAL:
        out = -1.0 / (gamma * y)
    else:
        out = ((1.0 - gamma) * y) ** (gamma / (1.0 - gamma))
    return out if out.ndim else float(out)


def inverse_utility_d2(family: str, gamma: float, y):
    """Second derivative of u^{-1} at y (same domains as :func:`inverse_utility`)."""
    y = _inverse_arg(family, gamma, y)
    if family == EXPONENTIAL:
        out = 1.0 / (gamma * y * y)
    else:
        out = gamma * ((1.0 - gamma) * y) ** (gamma / (1.0 - gamma) - 1.0)
    return out if out.ndim else float(out)
