"""Backward ODE system for the power-utility equilibrium.

With power utility the equilibrium is characterized by per-gamma growth
factors g_i(t) (terminal value 1) coupled through the aggregate risk
aversion

    varpi(t) = sum_i gamma_i * w_i / sum_i w_i,   w_i = g_i^{gamma_i/(1-gamma_i)} * p_i,

each factor solving, backward from the horizon,

    dg_i/dt = (1-gamma_i)/gamma_i * [ -kappa - G2/varpi
              + 0.5*gamma_i*G2/varpi^2 ] * g_i,
    G2 = (mu-r)^2/sigma^2 + (a*eta2)^2/b^2.

The system requires equal safety loadings (net loading zero). It is
integrated with fixed-step classical RK4, recomputing varpi from the stage
values of g. The aggregate varpi stays inside [min gamma, max gamma], so
the exact system cannot blow up; if a numerically extreme distribution
drives a step out of (0, inf) the march stops quietly there, keeps the
rows before it and flags the solution instead of raising.

Equilibrium controls scale linearly in effective wealth w = x + beta*m1 > 0:

    q(t, w) = a*eta2*w / (b^2 * varpi(t)),    pi_x(t, w) = (mu-r)*w / (sigma^2 * varpi(t)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, ParameterError
from .model import ModelParams
from .utility import POWER

_GRID_RTOL = 1e-9


@dataclass(frozen=True)
class OdeSolution:
    """Solved growth factors on a uniform grid.

    t: ascending node times; t[-1] is the horizon, where g = 1 exactly.
       When exploded, t[0] is the last time the solution stayed valid.
    g: array (len(t), n) of per-gamma factors, column-major so that each
       factor's column is contiguous for interpolation.
    varpi: aggregate risk aversion at each node.
    """

    t: np.ndarray
    g: np.ndarray
    varpi: np.ndarray
    gammas: tuple[float, ...]
    probs: tuple[float, ...]
    dt: float
    horizon: float
    exploded: bool
    explosion_time: float | None


def _require_power(params: ModelParams) -> None:
    if params.dist.family != POWER:
        raise ParameterError(f"power-family routine called with family {params.dist.family!r}")
    if params.coeffs.eta != 0.0:
        raise ParameterError(
            "power-family system requires equal safety loadings (net loading zero), "
            f"got eta={params.coeffs.eta}"
        )


def _effective_wealth(params: ModelParams, x: float, m1: float, what: str) -> float:
    """w = x + beta*m1 for a power-family routine; w must be positive."""
    _require_power(params)
    w = x + params.delay.beta * m1
    if w <= 0.0:
        raise DomainError(f"power {what} requires x + beta*m1 > 0, got {w}")
    return w


def _g2_const(params: ModelParams) -> float:
    co, fin = params.coeffs, params.financial
    return (fin.mu - fin.r) ** 2 / fin.sigma**2 + (co.a * co.eta2) ** 2 / co.b2


def _powers(g, gam):
    """g_i^{gamma_i/(1-gamma_i)}, elementwise (any leading shape)."""
    return np.exp(gam / (1.0 - gam) * np.log(g))


def _rate(g, gam, p, kappa, g2c):
    """Right-hand side dg/dt of the factor system at one grid row g."""
    # varpi stays a NumPy scalar (not aggregate_gamma's float), so a stage
    # whose weights all underflow gives inf or nan instead of raising
    w = _powers(g, gam) * p
    varpi = (w @ gam) / w.sum()
    return (1.0 - gam) / gam * (-kappa - g2c / varpi + 0.5 * gam * g2c / varpi**2) * g


def aggregate_gamma(g, gammas, probs) -> float:
    """Aggregate risk aversion induced by factor values g (one grid row)."""
    gam = np.asarray(gammas, dtype=float)
    w = _powers(np.asarray(g, dtype=float), gam) * np.asarray(probs, dtype=float)
    return float(w @ gam / w.sum())


def solve_growth_factors(params: ModelParams, dt: float | None = None) -> OdeSolution:
    """Integrate the factor system backward from the horizon with RK4.

    dt defaults to horizon/20000 and must divide the horizon (1e-9 relative).
    """
    _require_power(params)
    horizon = params.horizon
    if dt is None:
        dt = horizon / 20000.0
    if not (dt > 0.0) or not math.isfinite(dt):
        raise ParameterError(f"dt must be positive and finite, got {dt}")
    n_steps = int(round(horizon / dt))
    if n_steps < 1 or abs(n_steps * dt - horizon) > _GRID_RTOL * max(1.0, horizon):
        raise ParameterError(f"dt={dt} does not divide the horizon {horizon}")

    gam = np.array(params.dist.gammas, dtype=float)
    p = np.array(params.dist.probs, dtype=float)
    kappa = params.constants.kappa
    g2c = _g2_const(params)

    # row k holds the node t_k = horizon - (n_steps - k)*dt, filled from the end;
    # overflow and log of a nonpositive stage poison g_new, which ends the march
    g = np.empty((n_steps + 1, len(gam)))
    g[n_steps] = 1.0
    k = n_steps
    with np.errstate(all="ignore"):
        while k > 0:
            y = g[k]
            k1 = _rate(y, gam, p, kappa, g2c)
            k2 = _rate(y - 0.5 * dt * k1, gam, p, kappa, g2c)
            k3 = _rate(y - 0.5 * dt * k2, gam, p, kappa, g2c)
            k4 = _rate(y - dt * k3, gam, p, kappa, g2c)
            g_new = y - dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all((g_new > 0.0) & (g_new < np.inf)):
                break
            k -= 1
            g[k] = g_new
    g = g[k:]
    exploded = k > 0
    t = horizon - dt * np.arange(n_steps - k, -1, -1)
    if not exploded:
        t[0] = 0.0  # exact endpoint
    w = _powers(g, gam) * p
    return OdeSolution(
        t=t,
        g=np.asfortranarray(g),
        varpi=np.array([row @ gam / row.sum() for row in w]),
        gammas=params.dist.gammas,
        probs=params.dist.probs,
        dt=dt,
        horizon=horizon,
        exploded=exploded,
        explosion_time=float(t[0]) if exploded else None,
    )


def _check_range(sol: OdeSolution, t: float) -> float:
    t = float(t)
    lo = float(sol.t[0])
    if not lo <= t <= sol.horizon:
        if sol.exploded:
            raise DomainError(
                f"t={t} outside the valid range [{lo}, {sol.horizon}] "
                f"(solution flagged as exploded at t={sol.explosion_time})"
            )
        raise DomainError(f"t={t} outside the grid range [{lo}, {sol.horizon}]")
    return t


def g_at(sol: OdeSolution, t: float) -> np.ndarray:
    """Factor values at t, linearly interpolated componentwise on the grid."""
    t = _check_range(sol, t)
    return np.array([np.interp(t, sol.t, col) for col in sol.g.T])


def varpi_at(sol: OdeSolution, t: float) -> float:
    """Aggregate risk aversion at t, recomputed from the interpolated factors."""
    return aggregate_gamma(g_at(sol, t), sol.gammas, sol.probs)


def strategy(sol: OdeSolution, params: ModelParams, t: float, x: float, m1: float) -> tuple[float, float]:
    """Equilibrium (retention, invested amount) at (t, x, m1); both scale
    with effective wealth w = x + beta*m1, which must be positive."""
    w = _effective_wealth(params, x, m1, "strategy")
    return _controls(params, w, varpi_at(sol, t))


def _controls(params: ModelParams, w: float, varpi: float) -> tuple[float, float]:
    """(retention, invested amount) at effective wealth w and aggregate
    risk aversion varpi."""
    co, fin = params.coeffs, params.financial
    q = co.a * co.eta2 * w / (co.b2 * varpi)
    pi_x = (fin.mu - fin.r) * w / (fin.sigma**2 * varpi)
    return q, pi_x


def certainty_factor(sol: OdeSolution, t: float) -> float:
    """Probability-weighted sum of g_i^{gamma_i/(1-gamma_i)}; the value
    function is this factor times effective wealth."""
    return float(_powers(g_at(sol, t), np.asarray(sol.gammas)) @ np.asarray(sol.probs))


def value(sol: OdeSolution, params: ModelParams, t: float, x: float, m1: float) -> float:
    """Aggregated certainty-equivalent value, linear in w = x + beta*m1 > 0."""
    return _effective_wealth(params, x, m1, "value") * certainty_factor(sol, t)


def ansatz(sol: OdeSolution, params: ModelParams, i: int, t: float, x: float, m1: float) -> float:
    """Per-gamma expected utility of terminal effective wealth under the
    equilibrium strategy: g_i(t)^gamma_i * w^(1-gamma_i) / (1-gamma_i)."""
    w = _effective_wealth(params, x, m1, "ansatz")
    return _ansatz(g_at(sol, t)[i], sol.gammas[i], w)


def _ansatz(g: float, gam: float, w: float) -> float:
    """g^gamma * w^(1-gamma) / (1-gamma) for one atom's factor value g."""
    return g**gam * w ** (1.0 - gam) / (1.0 - gam)


def single_gamma_growth(params: ModelParams, gamma: float, t: float) -> float:
    """Closed-form factor for a one-point distribution:
    exp((1-gamma)/gamma * (kappa + 0.5*G2/gamma) * (T - t))."""
    _require_power(params)
    tau = params.horizon - float(t)
    rate = params.constants.kappa + 0.5 * _g2_const(params) / gamma
    return math.exp((1.0 - gamma) / gamma * rate * tau)


def single_gamma_value(params: ModelParams, gamma: float, t: float, x: float, m1: float) -> float:
    """Closed-form value for a one-point distribution:
    w * exp((kappa + 0.5*G2/gamma)*(T - t))."""
    w = _effective_wealth(params, x, m1, "value")
    rate = params.constants.kappa + 0.5 * _g2_const(params) / gamma
    return w * math.exp(rate * (params.horizon - float(t)))


def growth_rate(sol: OdeSolution, params: ModelParams, t: float) -> np.ndarray:
    """ODE right-hand side dg/dt evaluated on the interpolated factors."""
    _require_power(params)
    return _rate(g_at(sol, t), np.asarray(sol.gammas), np.asarray(sol.probs),
                 params.constants.kappa, _g2_const(params))


def varpi_rate(sol: OdeSolution, params: ModelParams, t: float) -> float:
    """Analytic time derivative of the aggregate risk aversion:
    0.5*G2/varpi^2 * (E_w[gamma^2] - varpi^2), with E_w the w_i-weighted mean."""
    _require_power(params)
    gam = np.asarray(sol.gammas)
    w = _powers(g_at(sol, t), gam) * np.asarray(sol.probs)
    varpi, second = (float(w @ m / w.sum()) for m in (gam, gam * gam))
    return 0.5 * _g2_const(params) / varpi**2 * (second - varpi**2)


def varpi_rate_residual(sol: OdeSolution, params: ModelParams, t: float) -> float:
    """|central-difference d(varpi)/dt - analytic rate| at the interior grid
    node nearest to t. Used as a consistency diagnostic: the residual is
    dominated by the O(dt^2) finite-difference truncation."""
    if len(sol.t) < 3:
        raise DomainError("need at least three grid nodes for the rate residual")
    k = int(np.clip(np.searchsorted(sol.t, t), 1, len(sol.t) - 2))
    if k > 1 and abs(sol.t[k - 1] - t) < abs(sol.t[k] - t):
        k -= 1
    k = int(np.clip(k, 1, len(sol.t) - 2))
    fd = (sol.varpi[k + 1] - sol.varpi[k - 1]) / (sol.t[k + 1] - sol.t[k - 1])
    return abs(fd - varpi_rate(sol, params, float(sol.t[k])))


def write_csv(sol: OdeSolution, path) -> None:
    """Serialize the solution grid; one row per node, metadata in a comment."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(
            "# power growth factors: probs="
            + ",".join(repr(p) for p in sol.probs)
            + f" dt={sol.dt!r} horizon={sol.horizon!r} exploded={sol.exploded}"
            + (f" explosion_time={sol.explosion_time!r}" if sol.exploded else "")
            + "\n"
        )
        f.write("t,varpi," + ",".join(f"g_{g!r}" for g in sol.gammas) + "\n")
        for k in range(len(sol.t)):
            row = [repr(float(sol.t[k])), repr(float(sol.varpi[k]))]
            row += [repr(float(v)) for v in sol.g[k]]
            f.write(",".join(row) + "\n")


def read_csv(path) -> OdeSolution:
    """Inverse of :func:`write_csv`."""
    with open(path, "r", encoding="utf-8") as f:
        meta_line = f.readline().strip()
        header = f.readline().strip().split(",")
        data = np.loadtxt(f, delimiter=",", ndmin=2)
    meta = {}
    for tok in meta_line.lstrip("# ").split():
        if "=" in tok:
            key, _, val = tok.partition("=")
            meta[key] = val
    probs = tuple(float(v) for v in meta["probs"].split(","))
    gammas = tuple(float(name[2:]) for name in header[2:])
    exploded = meta.get("exploded") == "True"
    return OdeSolution(
        t=data[:, 0],
        g=np.asfortranarray(data[:, 2:]),
        varpi=data[:, 1],
        gammas=gammas,
        probs=probs,
        dt=float(meta["dt"]),
        horizon=float(meta["horizon"]),
        exploded=exploded,
        explosion_time=float(meta["explosion_time"]) if exploded else None,
    )
