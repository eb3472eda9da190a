"""Monte Carlo simulation of the delayed wealth dynamics.

Wealth X follows a delay equation in X, its running memory M1 (exponentially
weighted average of the last h units of wealth) and the lagged wealth
M2(t) = X(t - h), with the constant pre-history X(s) = x0 for s <= 0: its
drift is A*X + B*M1 + C*M2 plus the control terms, and
M1' = X - alpha*M1 - exp(-alpha*h)*M2. The derived constants satisfy
C = beta*exp(-alpha*h) and B = beta*(alpha + A + beta), so the delay cancels
from the dynamics of the effective wealth w = X + beta*M1, whose drift is
(A + beta)*w plus the control terms. Every control is a function of (t, w),
so w is the one state of a Monte Carlo path and memory does not depend on
h. Runs step on t_k = min(k*dt, T).

A run's strategy source (``SimConfig.strategy``) is None, the model's own
equilibrium, whose family the model names; a power ``OdeSolution`` of the
same model; or a callable. The exponential equilibrium and callables take
the Euler-Maruyama step, which is weak order one:

    w_{k+1} = w_k + [(A + beta)*w_k + a*eta + a*eta2*q_k + pi_k*(mu - r)] dt
              + b*q_k*sqrt(dt)*Z1 + sigma*pi_k*sqrt(dt)*Z2

where pi_k is the invested amount and Z1, Z2 are independent standard
normals. Under the power family's own equilibrium or an ``OdeSolution`` the
controls are proportional to w, q = cq*w/varpi(t) and pi = cpi*w/varpi(t)
with cq = a*eta2/b^2 and cpi = (mu - r)/sigma^2, and the power family has
eta1 = eta2, so the net loading eta is 0. Then
dw = w [(A + beta + G2/varpi) dt + s(t) . dB] with s = (b*cq, sigma*cpi)/varpi
and |s|^2 = G2/varpi^2 (G2 = a*eta2*cq + (mu - r)*cpi, ``ModelParams.g2``):
a geometric Brownian motion with deterministic coefficients, which never
reaches 0. These sources step log w exactly, with varpi_k read at the step
midpoint t_k + dt/2 (``_power_log_step``):

    log w_{k+1} = log w_k + (A + beta + G2/varpi_k - G2/(2 varpi_k^2)) dt
                  + sqrt(dt) s_k . (Z1, Z2).

Either model source's step is affine in the path's (N, 2) draw Z, so its
``terminal_law`` is one affine map, exactly normal:

    mean + Z.ravel() @ weights ~ N(mean, weights @ weights),

of w_N under the exponential Euler chain (deterministic controls) and of
log w_N under the power log step (``TerminalLaw.log``). Exponential: with
lam = 1 + (A + beta)*dt, weights[k] = sqrt(dt) lam^(N-1-k) (b*q_k, sigma*pi_k)
and mean = lam^N w_0 + dt sum_k lam^(N-1-k) (a*eta + a*eta2*q_k + pi_k*(mu - r)).
Power: weights[k] = sqrt(dt) s_k and mean = log w_0 + the summed drifts.
Only a callable's Euler chain can leave the power domain: under a power
model a callable path exits at the first w_k that is not positive, its
exit time is t_k and its terminal w is NaN.

An unrecorded run (``_run_paths``) shares its path indices out to
W = min(``_max_workers()``, number of 32-path blocks) workers, the
calling thread among them, so W = 1 starts no thread. Each worker takes a
contiguous run of whole blocks, with its own generator, draws each path
into one reused row, its (N, 2) draw held flat, and folds the row at once
to terminal w: one dot through the law, with an exp in place over each 32
paths' results under ``log``, or a callable's Euler chain. An exp that
overflows gives inf, with no warning, and the estimate excludes it as
non-finite. The worker writes the results by position. The draws and the
dots release the GIL; a callable runs in the calling thread alone: it holds
the GIL anyway, and user code need not be thread-safe. Memory is flat in
n_paths. In N it is W rows of draws (16 B per step each) and the law's
weights, built once per run (at most 72 B per step while built).

Recorded paths (``simulate_paths``, ``simulate_path``) and callables step
one path at a time on Python floats (``_path_chain``), which round as
numpy's elementwise float64 operations do: the Euler step, or under the
power model sources w_{k+1} = w_k*exp(...) with the log step's exponent,
whose controls q_k and pi_k are those at (t_k, w_k). A recorded path also
records X = w - beta*M1 and steps M1, reading the lagged wealth
M2_k = X_{k - h/dt} from its own recorded X (x0 before the memory window
fills): X, M1 and M2 exist only for recorded paths, and only they need dt
to divide h.

Reproducibility: path j draws its noise from ``numpy`` PCG64 seeded with
``SeedSequence((seed, j))``; ``path_rng`` is that definition. Z1 and Z2 are
the two columns of a single (K, 2) standard-normal draw. Runs build no
generator per path: ``seeding.path_rngs`` sets each path's state on one
reused generator, from SeedSequence's mixing run for up to 1024 path
indices at once, and the tests pin it to ``path_rng`` bit for bit. Results
are bit-identical for a fixed (params, config, path index) regardless of
how paths are batched or how many workers run them, and Monte Carlo
aggregation reduces in path-index order.
"""
from __future__ import annotations

import contextvars
import dataclasses
import json
import math
import numbers
import os
import threading
from dataclasses import dataclass
from typing import Callable, Iterator, Union

import numpy as np

from . import exponential as expmod
from . import power as powmod
from .exceptions import DomainError, ParameterError
from .model import ModelParams, grid_steps
from .seeding import path_rngs
from .utility import (
    EXPONENTIAL,
    POWER,
    inverse_utility,
    inverse_utility_d1,
    utility,
)

# paths per unit of work: runs share whole blocks out to their workers,
# which check for a stop and, under a log law, exponentiate their results
# a block at a time
_BLOCK = 32

# strategy callbacks take (t, w), both floats, and return (q, pi_amount)
StrategySource = Union[None, powmod.OdeSolution, Callable]


@dataclass(frozen=True)
class SimConfig:
    """Simulation controls. ``strategy`` is None, the model's own
    equilibrium (exponential: the closed-form schedule, stepped by Euler;
    power: wealth-proportional controls at the closed-form varpi, stepped
    exactly in log w); a :class:`~delaris.power.OdeSolution` of the power
    model, whose varpi ``power.factors`` interpolates and which steps as the
    power equilibrium does; or a callable ``(t, w) -> (q, pi_amount)`` on a
    float effective wealth w, called once per path-step at the step time
    t = min(k*dt, T) and stepped by Euler, the one source whose power paths
    can leave the domain. Any other value is rejected here. A Monte Carlo
    run maps each path's draw to terminal wealth through a model source's
    ``terminal_law`` or a callable's Euler chain. It shares its paths out
    to worker threads, one per usable CPU, except under a callable, which
    runs in the calling thread, and its results do not depend on the
    worker count. ``n_paths`` and ``seed`` must be integers or finite whole
    reals."""

    dt: float
    n_paths: int
    seed: int
    strategy: StrategySource = None

    def __post_init__(self):
        if not math.isfinite(self.dt) or self.dt <= 0.0:
            raise ParameterError(f"sim.dt must be positive and finite, got {self.dt}")
        if not (self.strategy is None or isinstance(self.strategy, powmod.OdeSolution)
                or callable(self.strategy)):
            raise ParameterError("sim.strategy must be None, a power OdeSolution or a callable, "
                                 f"got {self.strategy!r}")
        for name, lowest, kind in (("n_paths", 1, "a positive"), ("seed", 0, "a nonnegative")):
            value = getattr(self, name)
            # float(nan).is_integer() and float(inf).is_integer() are False
            whole = isinstance(value, numbers.Integral) or (
                isinstance(value, numbers.Real) and float(value).is_integer())
            if not (whole and value >= lowest):
                raise ParameterError(f"sim.{name} must be {kind} integer, got {value}")
            object.__setattr__(self, name, int(value))


@dataclass(frozen=True)
class SimPath:
    """One recorded path on the step times t_k = min(k*dt, T)."""

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


def path_rng(seed: int, path_index: int) -> np.random.Generator:
    """The documented per-path generator: PCG64(SeedSequence((seed, index))).
    Runs never call it: ``seeding.path_rngs`` reaches the same states for a
    block of paths at once, and the tests pin the two together."""
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(path_index))))


def _growth(params: ModelParams) -> float:
    """Growth rate of w's drift. A + beta rather than constants.kappa: fault
    injection perturbs kappa alone, and that must move only the analytic
    reference."""
    return params.constants.A + params.delay.beta


def _step_times(params: ModelParams, dt: float, n_steps: int) -> np.ndarray:
    """The Euler step times min(k*dt, T), k = 0..n_steps."""
    return np.minimum(np.arange(n_steps + 1) * dt, params.horizon)


def _power_log_step(params: ModelParams, cfg: SimConfig, n_steps: int):
    """The exact log step of the power model sources as
    log w_{k+1} = log w_k + drift[k] + noise[k] @ (Z1, Z2), with varpi at
    the step midpoints t_k + dt/2 (see the module docstring): returns
    (drift, noise), of shapes (n_steps,) and (n_steps, 2)."""
    varpi = powmod.factors(params, (np.arange(n_steps) + 0.5) * cfg.dt, cfg.strategy)[1]
    co, fin, g2 = params.coeffs, params.financial, params.g2
    cq, cpi = co.a * co.eta2 / co.b2, (fin.mu - fin.r) / fin.sigma**2
    drift = (_growth(params) + g2 / varpi - 0.5 * g2 / varpi**2) * cfg.dt
    return drift, np.outer(math.sqrt(cfg.dt) / varpi, (co.b * cq, fin.sigma * cpi))


@dataclass(frozen=True)
class TerminalLaw:
    """A model source's terminal effective wealth as an affine map of a
    path's (N, 2) draw Z: mean + Z.ravel() @ weights is w_N, or log w_N
    under ``log``, so it is normal with variance weights @ weights."""

    mean: float
    weights: np.ndarray
    log: bool


def terminal_law(params: ModelParams, cfg: SimConfig) -> TerminalLaw:
    """The law of a model source's Monte Carlo step (see the module
    docstring): the exponential Euler chain under the exponential
    equilibrium, else the power log step (``power.factors`` checks the
    family)."""
    dt, n_steps = cfg.dt, grid_steps(params.horizon, cfg.dt, "horizon")
    if cfg.strategy is not None or params.dist.family == POWER:
        drift, noise = _power_log_step(params, cfg, n_steps)
        return TerminalLaw(math.log(params.w0) + float(drift.sum()), noise.ravel(), True)
    q, pi = expmod.schedule(params, _step_times(params, dt, n_steps - 1))  # t_N acts on no step
    co, fin = params.coeffs, params.financial
    lam = 1.0 + _growth(params) * dt
    decay = lam ** np.arange(n_steps - 1, -1, -1)  # lam^(N-1-k)
    drift = co.a * co.eta + co.a * co.eta2 * q + pi * (fin.mu - fin.r)
    weights = np.column_stack((co.b * q, fin.sigma * pi)) * (math.sqrt(dt) * decay)[:, None]
    return TerminalLaw(float(lam**n_steps * params.w0 + dt * (decay @ drift)), weights.ravel(),
                       False)


def _path_controls(params: ModelParams, cfg: SimConfig, n_steps: int):
    """Normalize the strategy source to a per-step function (k, w) -> (q, pi)
    on a float w, and the per-step multipliers exp(drift + noise @ Z) of
    the power log step as a function of a path's (n_steps, 2) draw, or
    None where the source steps by Euler. A callable under a power model
    gives None where w is not positive: the path exits the domain there."""
    strat, t = cfg.strategy, _step_times(params, cfg.dt, n_steps)
    if strat is None and params.dist.family == EXPONENTIAL:
        q_s, pi_s = np.array(expmod.schedule(params, t)).tolist()
        return (lambda k, w: (q_s[k], pi_s[k])), None
    if callable(strat):
        t_s = t.tolist()
        if params.dist.family == POWER:
            return (lambda k, w: strat(t_s[k], w) if w > 0.0 else None), None
        return (lambda k, w: strat(t_s[k], w)), None
    varpi_s = powmod.factors(params, t, strat)[1].tolist()
    drift, noise = _power_log_step(params, cfg, n_steps)

    def multipliers(z):
        with np.errstate(over="ignore"):  # inf: the estimate excludes the path
            return np.exp(drift + (z * noise).sum(axis=1)).tolist()

    return (lambda k, w: powmod._controls(params, w, varpi_s[k])), multipliers


def _path_chain(params: ModelParams, cfg: SimConfig, noise, controls, multipliers=None,
                rec=None, n_lag: int = 0):
    """Step one path on Python floats from its rows of noise (Z1, Z2) under
    ``controls`` of ``_path_controls``: by Euler, or given the path's
    ``multipliers`` of the power log step, as w_{k+1} = w_k*multipliers[k].
    Returns terminal effective wealth and exit time (NaN if none). With
    ``rec``, five NaN-filled lists X, M1, M2, q, pi, the path also records
    X = w - beta*M1 and steps M1, reading M2 from X n_lag rows back; rows
    from a domain exit on stay NaN. The operations and their order are
    those of the Euler step in the module docstring, so a float loop
    rounds as numpy does."""
    dt, sq_dt = cfg.dt, math.sqrt(cfg.dt)
    co, fin, delay = params.coeffs, params.financial, params.delay
    beta, alpha, growth = delay.beta, delay.alpha, _growth(params)
    a_eta, a_eta2, mu_r = co.a * co.eta, co.a * co.eta2, fin.mu - fin.r
    n_steps = len(noise)
    w = params.w0
    if rec is not None:
        X, M1, M2, Q, PI = rec
        m1, e_ah = float(params.m1_0), math.exp(-alpha * delay.h)
    for k in range(n_steps + 1):
        if (step := controls(k, w)) is None:
            return math.nan, float(_step_times(params, dt, k)[k])
        q, pi = step
        if q < 0.0:
            raise DomainError("strategy returned a negative retention q (inadmissible)")
        if rec is not None:
            x = w - beta * m1
            m2 = X[k - n_lag] if k >= n_lag else params.x0
            X[k], M1[k], M2[k], Q[k], PI[k] = x, m1, m2, q, pi
            m1 = m1 + (x - alpha * m1 - e_ah * m2) * dt
        if k == n_steps:
            break
        if multipliers is not None:
            w *= multipliers[k]
            continue
        z1, z2 = noise[k]
        drift = growth * w + a_eta + a_eta2 * q + pi * mu_r
        w = w + drift * dt + co.b * q * sq_dt * z1 + fin.sigma * pi * sq_dt * z2
    return w, math.nan


def _max_workers() -> int:
    """The most threads one Monte Carlo run shares its paths out to: the
    CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _in_workers(work, spans) -> None:
    """Run the generator function work(lo, hi) on every span, the first in
    the calling thread and each other in a thread of its own under a copy
    of the caller's context, so that ``np.errstate`` holds there too. Once
    a worker raises, the others stop at their next yield; every thread is
    joined before the first exception re-raises here."""
    stop, errors = threading.Event(), []

    def drive(lo, hi):
        try:
            for _ in work(lo, hi):
                if stop.is_set():
                    return
        except BaseException as exc:
            errors.append(exc)
            stop.set()

    threads = []
    try:
        for lo, hi in spans[1:]:
            thread = threading.Thread(target=contextvars.copy_context().run, args=(drive, lo, hi))
            thread.start()
            threads.append(thread)
        drive(*spans[0])
    except BaseException:
        stop.set()
        raise
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]


def _run_paths(params: ModelParams, cfg: SimConfig, indices):
    """Terminal effective wealth of the given path indices, unrecorded (NaN
    after a callable's domain exit); a path's result depends only on its
    index. The indices are shared out in runs of whole 32-path blocks to
    W = min(``_max_workers()``, number of blocks) workers, the calling
    thread among them; a callable runs in the calling thread alone. Each
    worker draws each path into its one reused row of 2*n_steps normals,
    the only unrecorded draw, folds it at once through the model source's
    ``terminal_law`` or the callable's Euler chain and writes the result by
    position, so it does not depend on W. No run reads the memory window,
    so dt need only divide the horizon."""
    n_steps = grid_steps(params.horizon, cfg.dt, "horizon")
    if callable(cfg.strategy):
        controls, log = _path_controls(params, cfg, n_steps)[0], False
        fold = lambda z: _path_chain(params, cfg, z.reshape(-1, 2).tolist(), controls)[0]
    else:
        law = terminal_law(params, cfg)
        mean, weights, log = law.mean, law.weights, law.log
        fold = lambda z: mean + z.dot(weights)  # .dot rounds as @, dispatches faster
    n = len(indices)
    w_term = np.empty(n)

    def work(lo, hi):
        z, rngs = np.empty(2 * n_steps), path_rngs(cfg.seed, indices[lo:hi])
        for start in range(lo, hi, _BLOCK):
            stop = min(start + _BLOCK, hi)
            for j, rng in zip(range(start, stop), rngs):
                rng.standard_normal(out=z)
                w_term[j] = fold(z)
            if log:
                with np.errstate(over="ignore"):  # inf: the estimate excludes the path
                    np.exp(w_term[start:stop], out=w_term[start:stop])
            yield

    n_blocks = -(-n // _BLOCK)
    workers = 1 if callable(cfg.strategy) else max(1, min(_max_workers(), n_blocks))
    cuts = [min(n, _BLOCK * (n_blocks * i // workers)) for i in range(workers + 1)]
    _in_workers(work, list(zip(cuts, cuts[1:])))
    return w_term


def simulate_paths(params: ModelParams, cfg: SimConfig, indices) -> Iterator[SimPath]:
    """Simulate and fully record the given paths from one control schedule.
    Checks that dt divides the horizon and h at the call; then records each
    path only when the next is asked for, so memory holds one path whatever
    len(indices) is. Noise is derived from (cfg.seed, path index) per the
    documented scheme."""
    n_steps, n_lag = (grid_steps(params.horizon, cfg.dt, "horizon"),
                      grid_steps(params.delay.h, cfg.dt, "delay.h"))
    controls, multipliers = _path_controls(params, cfg, n_steps)

    def record():
        for idx, rng in zip(indices, path_rngs(cfg.seed, indices)):
            rec = [[math.nan] * (n_steps + 1) for _ in range(5)]
            z = rng.standard_normal((n_steps, 2))
            w, exit_t = _path_chain(params, cfg, z.tolist(), controls,
                                    None if multipliers is None else multipliers(z), rec, n_lag)
            X, M1, M2, q, pi = (np.array(r) for r in rec)
            exited = not math.isnan(exit_t)
            yield SimPath(
                t=_step_times(params, cfg.dt, n_steps), X=X, M1=M1, M2=M2, q=q, pi_x=pi,
                seed=cfg.seed, path_index=int(idx), domain_exit=exited,
                exit_time=exit_t if exited else None, terminal_effective_wealth=w,
            )

    return record()


def simulate_path(params: ModelParams, cfg: SimConfig, path_index: int = 0) -> SimPath:
    """Simulate and fully record a single path (noise derived from
    (cfg.seed, path_index) per the documented scheme)."""
    return next(simulate_paths(params, cfg, [int(path_index)]))


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
    w_all = _run_paths(params, cfg, range(cfg.n_paths))
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


def write_estimate_json(est: McEstimate, file_path) -> None:
    with open(file_path, "w", encoding="utf-8") as f:
        json.dump(dataclasses.asdict(est), f, indent=2, sort_keys=True)
        f.write("\n")
