"""Shared test helpers.

The reference integrator here is deliberately independent of the package's
solver: plain-Python first-order Euler with Richardson extrapolation, used
to cross-check the RK4 march at a far finer step."""

from __future__ import annotations

import math

from delaris.model import ModelParams, RiskAversionDist
from delaris.utility import POWER


def euler_growth(kappa, g2, gammas, probs, horizon, n_steps):
    """First-order backward march of the growth-factor system; returns g(0)."""
    ds = horizon / n_steps
    g = [1.0] * len(gammas)
    cs = [(1.0 - gam) / gam for gam in gammas]
    for _ in range(n_steps):
        num = 0.0
        den = 0.0
        for gi, gam, p in zip(g, gammas, probs):
            w = math.exp(gam / (1.0 - gam) * math.log(gi)) * p
            num += w * gam
            den += w
        varpi = num / den
        g = [
            gi - ds * c * (-kappa - g2 / varpi + 0.5 * gam * g2 / varpi**2) * gi
            for gi, c, gam in zip(g, cs, gammas)
        ]
    return g


def richardson_growth(kappa, g2, gammas, probs, horizon, n_steps):
    """Step-doubled Euler reference: error drops from O(ds) to O(ds^2)."""
    g_h = euler_growth(kappa, g2, gammas, probs, horizon, n_steps)
    g_2h = euler_growth(kappa, g2, gammas, probs, horizon, n_steps // 2)
    return [2.0 * a - b for a, b in zip(g_h, g_2h)]


def varpi_of(g, gammas, probs):
    ws = [
        math.exp(gam / (1.0 - gam) * math.log(gi)) * p
        for gi, gam, p in zip(g, gammas, probs)
    ]
    return sum(w * gam for w, gam in zip(ws, gammas)) / sum(ws)


def levered(base, gamma_low=1e-4):
    """The power model ``base`` with atoms ((gamma_low, 0.5), (0.9, 0.5)): a
    nearly risk-neutral atom makes its factor overflow and the solve explode."""
    return ModelParams.build(
        insurance=base.insurance, financial=base.financial, delay=base.delay,
        dist=RiskAversionDist(family=POWER, points=((gamma_low, 0.5), (0.9, 0.5))),
        horizon=base.horizon, x0=base.x0)
