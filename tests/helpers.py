"""Shared test helpers.

The reference integrators here are deliberately independent of the package's
solvers: plain-Python first-order Euler with Richardson extrapolation, used
to cross-check the RK4 march at a far finer step, and a plain three-state
Euler step of the delayed wealth, used to cross-check the simulation kernel
that steps effective wealth alone. The oracles below them (the memory
quadrature, the one-point power value and the aggregated-value identity)
restate closed forms that only the tests read."""

from __future__ import annotations

import math

import numpy as np

from delaris import exponential as expmod
from delaris import power as powmod
from delaris.model import DelayParams, FinancialParams, ModelParams, RiskAversionDist
from delaris.simulation import path_rng
from delaris.utility import EXPONENTIAL, POWER, inverse_utility
from delaris.verification import _ansatz_values


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


def three_state_euler(params, dt, seed, indices, controls, power_domain):
    """Euler steps of the delayed wealth in its three states X, M1 and
    M2 = X(t - h), read from the whole history (pre-history x0), on the noise
    of ``path_rng``. ``controls(k, w)`` gives (q, pi_amount) at step k and
    effective wealth w = X + beta*M1; with ``power_domain`` a path exits when
    w stops being positive and is NaN from then on. Returns the per-step X,
    M1 and M2 (rows are steps, columns paths) and the exit times (NaN if
    none)."""
    co, fin, delay, cons = params.coeffs, params.financial, params.delay, params.constants
    n_steps, n_lag = round(params.horizon / dt), round(delay.h / dt)
    n = len(indices)
    noise = np.stack([path_rng(seed, i).standard_normal((n_steps, 2)) for i in indices], axis=1)
    X, M1, M2 = (np.full((n_steps + 1, n), np.nan) for _ in range(3))
    x, m1 = np.full(n, params.x0), np.full(n, params.m1_0)
    exit_t = np.full(n, np.nan)
    for k in range(n_steps + 1):
        m2 = X[k - n_lag] if k >= n_lag else np.full(n, params.x0)
        w = x + delay.beta * m1
        if power_domain:
            exit_t[~(w > 0.0) & np.isnan(exit_t)] = k * dt
        alive = np.isnan(exit_t)
        x, m1, m2, w = (np.where(alive, v, np.nan) for v in (x, m1, m2, w))
        X[k], M1[k], M2[k] = x, m1, m2
        if k == n_steps:
            break
        q, pi = controls(k, w)
        drift = (cons.A * x + cons.B * m1 + cons.C * m2 + co.a * co.eta + co.a * co.eta2 * q
                 + pi * (fin.mu - fin.r))
        x, m1 = (x + drift * dt + co.b * q * math.sqrt(dt) * noise[k, :, 0]
                 + fin.sigma * pi * math.sqrt(dt) * noise[k, :, 1],
                 m1 + (x - delay.alpha * m1 - math.exp(-delay.alpha * delay.h) * m2) * dt)
    return X, M1, M2, exit_t


def random_power_models(count, seed, base):
    """Seeded admissible power models with 2-10 atoms and random market and memory."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 11))
        r = rng.uniform(0.01, 0.2)
        yield ModelParams.build(
            insurance=base.insurance,
            financial=FinancialParams(r=r, mu=r + rng.uniform(0.0, 0.3),
                                      sigma=rng.uniform(0.2, 1.0)),
            delay=DelayParams(alpha=rng.uniform(0.0, 2.0), beta=rng.uniform(0.0, 1.0),
                              h=rng.uniform(0.1, 5.0)),
            dist=RiskAversionDist(family=POWER, points=tuple(zip(
                rng.choice(np.linspace(0.02, 0.98, 49), n, replace=False),
                rng.dirichlet(np.ones(n))))),
            horizon=base.horizon,
            x0=base.x0,
        )


def m1_quadrature(params, path, k):
    """Trapezoid evaluation of the memory integral
    int_{-h}^{0} e^{alpha*s} X(t_k + s) ds on the path's grid, using the
    constant pre-history for times before zero. Cross-check for the
    ODE-propagated M1."""
    dt = float(path.t[1] - path.t[0])
    n_lag = int(round(params.delay.h / dt))
    vals = np.empty(n_lag + 1)
    for j in range(n_lag + 1):
        idx = k - n_lag + j
        x_j = path.X[idx] if idx >= 0 else params.x0
        s = -params.delay.h + j * dt
        vals[j] = math.exp(params.delay.alpha * s) * x_j
    weights = np.full(n_lag + 1, dt)
    weights[0] = weights[-1] = 0.5 * dt
    return float(vals @ weights)


def single_gamma_value(params, gamma, t, x, m1):
    """Closed-form value for a one-point distribution:
    w * exp((kappa + 0.5*G2/gamma)*(T - t))."""
    w = powmod._effective_wealth(params, x, m1, "value")
    rate = params.constants.kappa + 0.5 * params.g2 / gamma
    return w * math.exp(rate * (params.horizon - float(t)))


def aggregated_value_identity(params, t, x, m1, solution=None):
    """(probability-weighted certainty equivalent of the per-gamma ansatz,
    closed-form aggregated value); the two must agree."""
    h = math.fsum(
        p * inverse_utility(params.dist.family, g, phi)
        for (g, p), phi in zip(params.dist.points, _ansatz_values(params, solution, t, x, m1))
    )
    if params.dist.family == EXPONENTIAL:
        return h, expmod.value(params, t, x, m1)
    return h, powmod.value(solution, params, t, x, m1)
