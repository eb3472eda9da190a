"""Euler-Maruyama simulation of the delayed wealth dynamics.

Wealth X follows a delay equation in X, its running memory M1 (exponentially
weighted average of the last h units of wealth) and the lagged wealth
M2(t) = X(t - h), with the constant pre-history X(s) = x0 for s <= 0: its
drift is A*X + B*M1 + C*M2 plus the control terms, and
M1' = X - alpha*M1 - exp(-alpha*h)*M2. The derived constants satisfy
C = beta*exp(-alpha*h) and B = beta*(alpha + A + beta), so the delay cancels
from the Euler step of the effective wealth w = X + beta*M1:

    w_{k+1} = w_k + [(A + beta)*w_k + a*eta + a*eta2*q_k + pi_k*(mu - r)] dt
              + b*q_k*sqrt(dt)*Z1 + sigma*pi_k*sqrt(dt)*Z2

where pi_k is the invested amount and Z1, Z2 are independent standard
normals; the scheme is weak order one. Every control is a function of (t, w),
so w is the one state of a Monte Carlo path and memory does not depend on h.
A recorded path (``simulate_path``) also steps M1 with an h/dt-row ring of
its last h units of X = w - beta*M1 (pre-filled with x0): X, M1 and M2 exist
only for recorded paths. Paths run in chunks of at most 2048, fewer when a
chunk's noise (and ring) would exceed ``_CHUNK_BYTES``, so memory is bounded
whatever n_paths and dt are. Under a power-family strategy a path whose w
stops being positive exits the domain: its exit time is recorded and its
state is NaN from then on.

Reproducibility: path j draws its noise from ``numpy`` PCG64 seeded with
``SeedSequence((seed, j))``, the documented per-path derivation; Z1 and Z2
are the two columns of a single (K, 2) standard-normal draw. Results are
bit-identical for a fixed (params, config, path index) regardless of how
paths are batched, and Monte Carlo aggregation reduces in path-index order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from . import exponential as expmod
from . import power as powmod
from . import power_exact
from .exceptions import DomainError, ParameterError
from .model import ModelParams
from .utility import (
    EXPONENTIAL,
    POWER,
    inverse_utility,
    inverse_utility_d1,
    utility,
)

# strategy callbacks take (t, w_array) and return (q, pi_amount)
StrategySource = Union[str, powmod.OdeSolution, Callable]

_CHUNK = 2048  # paths per chunk, unless the chunk would exceed _CHUNK_BYTES
_CHUNK_BYTES = 256 * 2**20  # noise (2 per step), plus lag ring (n_lag) if recorded, 8 B each


@dataclass(frozen=True)
class SimConfig:
    """Simulation controls. ``strategy`` is a family name, "exponential"
    (closed-form schedule) or "power" (wealth-proportional controls, the
    factors in closed form at the step times); a power
    :class:`~delaris.power.OdeSolution`, read by interpolation; or a
    callable ``(t, w) -> (q, pi_amount)`` on arrays of effective wealth."""

    dt: float
    n_paths: int
    seed: int
    strategy: StrategySource

    def __post_init__(self):
        if not math.isfinite(self.dt) or self.dt <= 0.0:
            raise ParameterError(f"sim.dt must be positive and finite, got {self.dt}")
        if int(self.n_paths) != self.n_paths or self.n_paths < 1:
            raise ParameterError(f"sim.n_paths must be a positive integer, got {self.n_paths}")
        if int(self.seed) != self.seed or self.seed < 0:
            raise ParameterError(f"sim.seed must be a nonnegative integer, got {self.seed}")
        object.__setattr__(self, "n_paths", int(self.n_paths))
        object.__setattr__(self, "seed", int(self.seed))


@dataclass(frozen=True)
class SimPath:
    """One recorded path on the uniform grid t_k = k*dt."""

    t: np.ndarray
    X: np.ndarray
    M1: np.ndarray
    M2: np.ndarray
    q: np.ndarray
    pi_x: np.ndarray
    seed: int
    path_index: int
    domain_exit: bool
    exit_time: float | None
    terminal_effective_wealth: float


def _grid_steps(params: ModelParams, cfg: SimConfig) -> tuple[int, int]:
    """Number of steps over the horizon and over the memory window h.
    Both must be integral multiples of dt."""
    out = []
    for name, span in (("horizon", params.horizon), ("delay.h", params.delay.h)):
        n = int(round(span / cfg.dt))
        if n < 1 or abs(n * cfg.dt - span) > 1e-9 * max(1.0, span):
            raise ParameterError(f"sim.dt={cfg.dt} must divide {name}={span}")
        out.append(n)
    return out[0], out[1]


def path_rng(seed: int, path_index: int) -> np.random.Generator:
    """The documented per-path generator: PCG64(SeedSequence((seed, index)))."""
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(path_index))))


def _make_step_strategy(params: ModelParams, cfg: SimConfig, n_steps: int):
    """Normalize the strategy source to a per-step callable (k, w) -> (q, pi)
    broadcastable to w, and say whether the power domain w > 0 applies."""
    strat = cfg.strategy
    dt = cfg.dt
    if strat == EXPONENTIAL:
        q_s, pi_s = np.array(
            [expmod.strategy(params, min(k * dt, params.horizon)) for k in range(n_steps + 1)]).T
        return lambda k, w: (q_s[k], pi_s[k]), False
    if strat == POWER:
        strat = power_exact.growth_factors(params, dt)  # the closed form at the step times
    if isinstance(strat, powmod.OdeSolution):
        if params.dist.family != POWER:
            raise ParameterError("power strategy supplied for a non-power distribution")
        varpi_s = powmod.varpi_on(strat, np.minimum(np.arange(n_steps + 1) * dt, params.horizon))
        return lambda k, w: powmod._controls(params, w, varpi_s[k]), True
    if callable(strat):
        return lambda k, w: strat(k * dt, w), False
    raise ParameterError(f"unrecognized strategy source {strat!r}")


def _run_paths(params: ModelParams, cfg: SimConfig, indices, record: bool = False):
    """Simulate the given path indices (vectorized elementwise, so results do
    not depend on the batching) in chunks sized by ``_CHUNK_BYTES``. Returns
    terminal effective wealth, exit times (NaN if none), and optionally the
    full per-step records; a path is NaN from its domain exit on."""
    n_steps, n_lag = _grid_steps(params, cfg)
    step_strategy, power_domain = _make_step_strategy(params, cfg, n_steps)
    dt, sq_dt = cfg.dt, math.sqrt(cfg.dt)
    co, fin, delay = params.coeffs, params.financial, params.delay
    beta = delay.beta
    # A + beta rather than constants.kappa: fault injection perturbs kappa
    # alone, and that must move only the analytic reference
    growth = params.constants.A + beta
    a_eta, a_eta2, mu_r = co.a * co.eta, co.a * co.eta2, fin.mu - fin.r
    n = len(indices)
    w_term = np.empty(n)
    exit_time = np.full(n, np.nan)
    fields = ("X", "M1", "M2", "q", "pi")
    rec = {name: np.full((n_steps + 1, n), np.nan) for name in fields} if record else None

    def run_chunk(lo, hi):
        # noise and ring are local, so they are freed before the next chunk allocates
        noise = np.empty((hi - lo, n_steps, 2))  # path-major: each path draws in place
        for j, idx in enumerate(indices[lo:hi]):
            path_rng(cfg.seed, idx).standard_normal(out=noise[j])
        w = np.full(hi - lo, params.x0 + beta * params.m1_0)
        exit_t = exit_time[lo:hi]
        if record:
            m1 = np.full(hi - lo, float(params.m1_0))
            e_ah = math.exp(-delay.alpha * delay.h)
            ring = np.full((n_lag, hi - lo), float(params.x0))  # slot k % n_lag holds X(t_k - h)
        for k in range(n_steps + 1):
            if power_domain:
                exited_now = ~(w > 0.0) & np.isnan(exit_t)
                if exited_now.any():
                    exit_t[exited_now] = k * dt
                    w[exited_now] = np.nan
            q, pi = step_strategy(k, w)
            if np.any(np.asarray(q) < 0.0):
                raise DomainError("strategy returned a negative retention q (inadmissible)")
            if record:
                x, m2, alive = w - beta * m1, ring[k % n_lag], np.isnan(exit_t)
                rec["X"][k, lo:hi] = x
                rec["M1"][k, lo:hi] = np.where(alive, m1, np.nan)
                rec["M2"][k, lo:hi] = np.where(alive, m2, np.nan)
                rec["q"][k, lo:hi], rec["pi"][k, lo:hi] = q, pi
                m1 = m1 + (x - delay.alpha * m1 - e_ah * m2) * dt
                m2[:] = x
            if k == n_steps:
                break
            drift = growth * w + a_eta + a_eta2 * q + pi * mu_r
            w = w + drift * dt + co.b * q * sq_dt * noise[:, k, 0] + fin.sigma * pi * sq_dt * noise[:, k, 1]
        w_term[lo:hi] = w

    chunk = max(1, min(_CHUNK, _CHUNK_BYTES // (8 * (2 * n_steps + (n_lag if record else 0)))))
    for lo in range(0, n, chunk):
        run_chunk(lo, min(lo + chunk, n))
    return w_term, exit_time, rec


def simulate_path(params: ModelParams, cfg: SimConfig, path_index: int = 0) -> SimPath:
    """Simulate and fully record a single path (noise derived from
    (cfg.seed, path_index) per the documented scheme)."""
    w_term, exit_time, rec = _run_paths(params, cfg, [int(path_index)], record=True)
    exited = bool(np.isfinite(exit_time[0]))
    return SimPath(
        t=np.arange(len(rec["X"])) * cfg.dt,
        X=rec["X"][:, 0].copy(),
        M1=rec["M1"][:, 0].copy(),
        M2=rec["M2"][:, 0].copy(),
        q=rec["q"][:, 0].copy(),
        pi_x=rec["pi"][:, 0].copy(),
        seed=cfg.seed,
        path_index=int(path_index),
        domain_exit=exited,
        exit_time=float(exit_time[0]) if exited else None,
        terminal_effective_wealth=float(w_term[0]),
    )


def m1_quadrature(params: ModelParams, path: SimPath, k: int) -> float:
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


@dataclass(frozen=True)
class PerGammaEstimate:
    gamma: float
    p: float
    y_mean: float
    y_se: float
    ce: float
    ce_se: float


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo certainty-equivalent aggregate J = sum_i p_i * u_i^{-1}(y_i),
    with a delta-method standard error (using the sample covariance of the
    per-gamma payoffs, which share paths)."""

    mean: float
    se: float
    n_paths: int
    excluded_paths: int
    per_gamma: tuple[PerGammaEstimate, ...]


def mc_reward(params: ModelParams, cfg: SimConfig) -> McEstimate:
    """Estimate the expected certainty equivalent of terminal effective
    wealth under the configured strategy.

    Paths whose terminal effective wealth leaves the utility domain (power
    family: w <= 0 or an earlier domain exit) are excluded and counted,
    never clamped."""
    family = params.dist.family
    w_all, _, _ = _run_paths(params, cfg, range(cfg.n_paths))
    valid = np.isfinite(w_all)
    if family == POWER:
        valid &= w_all > 0.0
    excluded = int(cfg.n_paths - valid.sum())
    w_used = w_all[valid]
    n_used = len(w_used)
    if n_used < 2:
        raise DomainError(f"only {n_used} usable paths ({excluded} excluded)")

    gammas = params.dist.gammas
    probs = params.dist.probs
    payoffs = np.vstack([utility(family, g, w_used) for g in gammas])
    y_mean = payoffs.mean(axis=1)
    y_se = payoffs.std(axis=1, ddof=1) / math.sqrt(n_used)
    per = []
    grad = np.empty(len(gammas))
    for i, (g, p) in enumerate(zip(gammas, probs)):
        d1 = inverse_utility_d1(family, g, float(y_mean[i]))
        ce = inverse_utility(family, g, float(y_mean[i]))
        per.append(
            PerGammaEstimate(
                gamma=g, p=p, y_mean=float(y_mean[i]), y_se=float(y_se[i]),
                ce=ce, ce_se=abs(d1) * float(y_se[i]),
            )
        )
        grad[i] = p * d1
    mean = float(np.dot(probs, [pg.ce for pg in per]))
    cov = np.cov(payoffs, ddof=1) if len(gammas) > 1 else np.array([[payoffs.var(ddof=1)]])
    cov = np.atleast_2d(cov)
    se = float(math.sqrt(max(grad @ cov @ grad, 0.0) / n_used))
    return McEstimate(
        mean=mean,
        se=se,
        n_paths=cfg.n_paths,
        excluded_paths=excluded,
        per_gamma=tuple(per),
    )


def write_path_csv(path: SimPath, file_path) -> None:
    """Serialize a recorded path: columns t, X, M1, M2, q, pi_amount."""
    with open(file_path, "w", encoding="utf-8") as f:
        f.write("t,X,M1,M2,q,pi_amount\n")
        powmod._write_rows(f, (path.t, path.X, path.M1, path.M2, path.q, path.pi_x))


def estimate_to_dict(est: McEstimate) -> dict:
    """JSON-ready view of an estimate."""
    return {
        "mean": est.mean,
        "se": est.se,
        "n_paths": est.n_paths,
        "excluded_paths": est.excluded_paths,
        "per_gamma": [
            {
                "gamma": pg.gamma,
                "p": pg.p,
                "y_mean": pg.y_mean,
                "y_se": pg.y_se,
                "ce": pg.ce,
                "ce_se": pg.ce_se,
            }
            for pg in est.per_gamma
        ],
    }


def write_estimate_json(est: McEstimate, file_path) -> None:
    with open(file_path, "w", encoding="utf-8") as f:
        json.dump(estimate_to_dict(est), f, indent=2, sort_keys=True)
        f.write("\n")
