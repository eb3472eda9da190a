"""Backward ODE system for the power-utility equilibrium.

With power utility the equilibrium is characterized by per-gamma growth
factors g_i(t) (terminal value 1) coupled through the aggregate risk
aversion

    varpi(t) = sum_i gamma_i * w_i / sum_i w_i,   w_i = g_i^{gamma_i/(1-gamma_i)} * p_i,

each factor solving, backward from the horizon,

    dg_i/dt = (1-gamma_i)/gamma_i * [ -kappa - G2/varpi
              + 0.5*gamma_i*G2/varpi^2 ] * g_i,
    G2 = (mu-r)^2/sigma^2 + (a*eta2)^2/b^2.

The system requires equal safety loadings (net loading zero). It has a
closed form in tau = T - t. The common term kappa + G2/varpi cancels
from the softmax that defines varpi, so with

    M(A) = sum_i p_i e^{-gamma_i G2 A/2},   Phi(A) = sum_i gamma_i p_i e^{-gamma_i G2 A/2} / M(A),

varpi = Phi(A(tau)), where A(tau) = int_0^tau varpi^-2 solves
tau = int_0^A Phi(a)^2 da, and

    log g_i = (1-gamma_i)/gamma_i * [kappa*tau - 2 log M(A) - gamma_i*G2*A/2].

:func:`delaris.power_exact.factors` reads (g, varpi) at exactly the times a
run reads: ``strategy`` at its --t-points times, ``verify`` at its slice
times and ``simulate`` at its Euler step times, from the closed form or,
given a grid solution, by interpolating it (:func:`factors_on`).
:func:`delaris.power_exact.growth_factors` evaluates the closed form at the
nodes of a uniform grid, only for the ``growth_factors.csv`` artifact (the
--dt grid of ``strategy``, by default horizon/20000). Sweep points and
figure panels read only the time-zero controls, so
:func:`delaris.power_exact.initial_strategy` evaluates the one node tau = T.
:func:`solve_growth_factors` marches the system with fixed-step classical
RK4 instead, recomputing varpi from the stage values of g; it is the
library's and the tests' reference solver, and no CLI run calls it. varpi
stays inside [min gamma, max gamma], but a nearly risk-neutral atom's factor
can overflow float64 (log g reaches about 1e7 for gamma = 1e-4). On either
grid route the solution then ends quietly at the first node, going backward
from the horizon, whose factors leave (0, inf): it keeps the nodes after it
and is flagged as exploded instead of raising; ``factors`` raises at such a
time. varpi(0) itself never overflows, so the time-zero controls exist for
such a model.

Equilibrium controls scale linearly in effective wealth w = x + beta*m1 > 0:

    q(t, w) = a*eta2*w / (b^2 * varpi(t)),    pi_x(t, w) = (mu-r)*w / (sigma^2 * varpi(t)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, ParameterError
from .model import ModelParams, grid_steps
from .utility import POWER


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


def _effective_wealth(params: ModelParams, x, m1, what: str):
    """w = x + beta*m1 for a power-family routine (x and m1 may be arrays);
    every w must be positive (a NaN is not)."""
    _require_power(params)
    w = x + params.delay.beta * m1
    if not np.all(w > 0.0):
        raise DomainError(f"power {what} requires x + beta*m1 > 0, got {np.min(w)}")
    return w


def _powers(g, gam):
    """g_i^{gamma_i/(1-gamma_i)}, elementwise (any leading shape)."""
    return np.exp(gam / (1.0 - gam) * np.log(g))


def _mean_gamma(w, gam):
    """w-weighted mean of gam over the last axis, kept as a length-1 axis.

    The stacked matmul is one dot product per row and rounds as a 1-D
    ``w @ gam`` does; a 2-D ``w @ gam`` goes through gemv and moves some
    rows by an ulp."""
    return (w[..., None, :] @ gam[..., None])[..., 0] / w.sum(axis=-1, keepdims=True)


def _varpi(g, gammas, probs):
    """Aggregate risk aversion of the factors g, over their last axis."""
    gam = np.asarray(gammas, dtype=float)
    return _mean_gamma(_powers(g, gam) * np.asarray(probs, dtype=float), gam)[..., 0]


def _rate_fn(gam, p, kappa, g2c):
    """Right-hand side dg/dt of the factor system as a function of the 1-D
    factors g; varpi is a NumPy scalar."""
    expo, lead, half, neg_kappa = gam / (1.0 - gam), (1.0 - gam) / gam, 0.5 * gam * g2c, -kappa

    def rate(g):
        w = np.exp(expo * np.log(g)) * p
        varpi = (w @ gam) / w.sum()
        return lead * (neg_kappa - g2c / varpi + half / (varpi * varpi)) * g

    return rate


def aggregate_gamma(g, gammas, probs) -> float:
    """Aggregate risk aversion induced by factor values g (one grid row)."""
    return float(_varpi(g, gammas, probs))


def _grid(params: ModelParams, dt: float | None) -> tuple[float, int]:
    """(dt, n_steps) of a power model's factor grid; dt defaults to
    horizon/20000 and must divide the horizon (1e-9 relative)."""
    _require_power(params)
    horizon = params.horizon
    if dt is None:
        dt = horizon / 20000.0
    if not (dt > 0.0) or not math.isfinite(dt):
        raise ParameterError(f"dt must be positive and finite, got {dt}")
    return dt, grid_steps(horizon, dt, "horizon")


def _march(params: ModelParams, dt: float, n_steps: int) -> tuple[int, np.ndarray]:
    """Classical RK4 for the factor system backward from g = 1 at node
    n_steps (the horizon) to node 0 (t = 0). The march stops at the first
    step that leaves (0, inf): overflow, or the log of a nonpositive stage.
    Returns the node k it stopped at (0 when it reached t = 0) and the
    factors at nodes k, k+1, ..., n_steps."""
    gam = np.array(params.dist.gammas, dtype=float)
    rate = _rate_fn(gam, np.array(params.dist.probs, dtype=float),
                    params.constants.kappa, params.g2)
    g = np.empty((n_steps + 1, len(gam)))
    g[n_steps] = y = np.ones(len(gam))
    with np.errstate(all="ignore"):
        for k in range(n_steps, 0, -1):
            k1 = rate(y)
            k2 = rate(y - 0.5 * dt * k1)
            k3 = rate(y - 0.5 * dt * k2)
            k4 = rate(y - dt * k3)
            y = y - dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not (y.min() > 0.0 and y.max() < np.inf):  # NaN fails both
                return k, g[k:]
            g[k - 1] = y
    return 0, g


def _solution(params: ModelParams, dt: float, n_steps: int, k: int, g: np.ndarray) -> OdeSolution:
    """The solution whose rows g hold nodes k, k+1, ... of the grid; a march
    that stopped at node k > 0 has exploded there."""
    t = params.horizon - dt * np.arange(n_steps - k, n_steps - k - len(g), -1)
    exploded = k > 0
    if not exploded:
        t[0] = 0.0  # exact endpoint
    return OdeSolution(
        t=t,
        g=np.asfortranarray(g),
        varpi=_varpi(g, params.dist.gammas, params.dist.probs),
        gammas=params.dist.gammas,
        probs=params.dist.probs,
        dt=dt,
        horizon=params.horizon,
        exploded=exploded,
        explosion_time=float(t[0]) if exploded else None,
    )


def solve_growth_factors(params: ModelParams, dt: float | None = None) -> OdeSolution:
    """Integrate the factor system backward from the horizon with RK4.

    dt defaults to horizon/20000 and must divide the horizon (1e-9 relative).
    """
    dt, n_steps = _grid(params, dt)
    k, g = _march(params, dt, n_steps)
    return _solution(params, dt, n_steps, k, g)


def factors_on(sol: OdeSolution, t) -> tuple[np.ndarray, np.ndarray]:
    """``power_exact.factors`` read from a grid solution: each factor
    interpolated linearly, then varpi aggregated from them. Raises
    DomainError at a time outside the solution's valid range."""
    t = np.asarray(t, dtype=float)
    lo = float(sol.t[0])
    for end in (float(t.min()), float(t.max())) if t.size else ():
        if not lo <= end <= sol.horizon:
            if sol.exploded:
                raise DomainError(
                    f"t={end} outside the valid range [{lo}, {sol.horizon}] "
                    f"(solution flagged as exploded at t={sol.explosion_time})"
                )
            raise DomainError(f"t={end} outside the grid range [{lo}, {sol.horizon}]")
    g = np.stack([np.interp(t, sol.t, col) for col in sol.g.T], axis=-1)
    return g, _varpi(g, sol.gammas, sol.probs)


def g_at(sol: OdeSolution, t: float) -> np.ndarray:
    """Factor values at t, linearly interpolated componentwise on the grid."""
    return factors_on(sol, float(t))[0]


def varpi_at(sol: OdeSolution, t: float) -> float:
    """Aggregate risk aversion at t, recomputed from the interpolated factors."""
    return float(factors_on(sol, float(t))[1])


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
    rate = params.constants.kappa + 0.5 * params.g2 / gamma
    return math.exp((1.0 - gamma) / gamma * rate * tau)


def single_gamma_value(params: ModelParams, gamma: float, t: float, x: float, m1: float) -> float:
    """Closed-form value for a one-point distribution:
    w * exp((kappa + 0.5*G2/gamma)*(T - t))."""
    w = _effective_wealth(params, x, m1, "value")
    rate = params.constants.kappa + 0.5 * params.g2 / gamma
    return w * math.exp(rate * (params.horizon - float(t)))


def varpi_rate(sol: OdeSolution, params: ModelParams, t: float) -> float:
    """Analytic time derivative of the aggregate risk aversion:
    0.5*G2/varpi^2 * (E_w[gamma^2] - varpi^2), with E_w the w_i-weighted mean."""
    _require_power(params)
    gam = np.asarray(sol.gammas)
    w = _powers(g_at(sol, t), gam) * np.asarray(sol.probs)
    varpi, second = (float(_mean_gamma(w, m)[0]) for m in (gam, gam * gam))
    return 0.5 * params.g2 / varpi**2 * (second - varpi**2)


def varpi_rate_residual(sol: OdeSolution, params: ModelParams, t: float) -> float:
    """|central-difference d(varpi)/dt - analytic rate| at the interior grid
    node nearest to t. Used as a consistency diagnostic: the residual is
    dominated by the O(dt^2) finite-difference truncation."""
    if len(sol.t) < 3:
        raise DomainError("need at least three grid nodes for the rate residual")
    k = int(np.clip(np.searchsorted(sol.t, t), 1, len(sol.t) - 2))
    if k > 1 and abs(sol.t[k - 1] - t) < abs(sol.t[k] - t):
        k -= 1
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
        _write_rows(f, (sol.t, sol.varpi, sol.g))


_ROWS = 256  # rows per block: a whole table as Python floats would cost ~200 B a row


def _write_rows(f, columns) -> None:
    """Write equal-length columns (1-D, or 2-D with one row per entry) as
    comma-separated rows of repr floats, formatted and written one block
    at a time."""
    for k in range(0, len(columns[0]), _ROWS):
        block = np.column_stack([c[k:k + _ROWS] for c in columns]).tolist()
        f.write("\n".join([",".join(map(repr, row)) for row in block]) + "\n")


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
