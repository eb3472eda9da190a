"""The power-utility equilibrium: its backward factor system, the closed
form of that system, and the controls it gives.

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
from the softmax that defines varpi, and G2 only scales its time, so on
the scale s = G2*A, with

    m(s) = sum_i p_i e^{-gamma_i s/2},   psi(s) = sum_i gamma_i p_i e^{-gamma_i s/2} / m(s),

varpi = psi(S), where S = G2*A(tau) and A(tau) = int_0^tau varpi^-2, so
S solves G2*tau = Psi(S) = int_0^S psi(s)^2 ds, and

    log g_i = (1-gamma_i)/gamma_i * [kappa*tau - 2 log m(S) - gamma_i*S/2].

psi and Psi depend only on the gammas and probs: every node, of one model
or of many that share a distribution, is a root of the same Psi at its
own target G2*tau. Psi is summed over composite Gauss-Legendre panels,
and one batched Newton finds S at every node. :func:`factors` is the one
reader of (g, varpi): it reads them at exactly the times a run reads
(``strategy`` at its --t-points times, ``verify`` at its slice times and
``simulate`` at its step times and step midpoints) from the closed form
or, given a grid solution of the same model, by interpolating it.
:func:`growth_factors` evaluates the closed form at the nodes of a
uniform grid, only for the ``growth_factors.csv`` artifact (the --dt grid
of ``strategy``, by default horizon/20000). Sweep points and figure
panels read only the time-zero controls, so :func:`initial_strategies`
evaluates the one node tau = T of each model, all models of one
distribution in one panel set and one Newton; :func:`initial_strategy`
is its one-model case. :func:`solve_growth_factors` marches the system
with fixed-step classical RK4 instead, recomputing varpi from the stage
values of g; it is the library's and the tests' reference solver, and no
CLI run calls it. varpi stays inside [min gamma, max gamma], but a nearly
risk-neutral atom's factor can overflow float64 (log g reaches about 1e7
for gamma = 1e-4). On either grid route the solution then ends quietly
at the first node, going backward from the horizon, whose factors leave
(0, inf): it keeps the nodes after it and is flagged as exploded instead
of raising; ``factors`` raises at such a time. varpi(0) itself never
overflows, so the time-zero controls exist for such a model, and for one
whose G2*T overflows: its S is inf and its varpi gamma_min, psi's limit.

A node's (g, varpi) is a function of (gammas, probs, kappa, G2, tau)
alone, bit for bit, whatever nodes share its call or its block:

- the panel edges start on the lattice s_lo*2^k, with s_lo taken from the
  gammas, and a panel is split by its own halves' integrals alone, so a
  larger range adds edges past the old ones and moves none;
- Newton stops each node at its first converged step;
- the sums over atoms run row by row in atom order, and each panel's
  Gauss-Legendre sum is one stacked dot product; numpy's axis sums and a
  2-D ``@`` group the terms of a node by its position in the block.

``_softmax_gamma`` lays the weights out with the atoms on the leading
axis, one row of nodes per atom. A node block is a few thousand nodes
and a model a handful of atoms, so the exponentials, the products with
p and the sums over the atoms all run as long contiguous loops. With
the atoms last, each would run numpy's inner loop over two to ten
elements per node: one (341, 12) block of two atoms takes about 0.17 ms
that way against 0.05 ms (2-core x86-64 VM).

Equilibrium controls scale linearly in effective wealth w = x + beta*m1 > 0:

    q(t, w) = a*eta2*w / (b^2 * varpi(t)),    pi_x(t, w) = (mu-r)*w / (sigma^2 * varpi(t)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DelarisError, DomainError, EvaluationError, ParameterError
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


def _atom_sums(w, gam):
    """(sum_i w_i*gam_i, sum_i w_i) over the leading (atom) axis of w,
    summed atom by atom in order, so one row of factors and every row of a
    grid of them round alike, whatever the grid's size or layout."""
    total, num = w[0].copy(), w[0] * gam[0]
    for w_i, gam_i in zip(w[1:], gam[1:]):
        total += w_i
        num += w_i * gam_i
    return num, total


def _varpi(g, gammas, probs):
    """Aggregate risk aversion of the factors g, over their last axis."""
    gam = np.asarray(gammas, dtype=float)
    num, total = _atom_sums(np.moveaxis(_powers(g, gam) * np.asarray(probs, dtype=float), -1, 0), gam)
    return num / total


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
    gam, p = np.array(params.dist.gammas, dtype=float), np.array(params.dist.probs, dtype=float)
    g2c, neg_kappa = params.g2, -params.constants.kappa
    expo, lead, half = gam / (1.0 - gam), (1.0 - gam) / gam, 0.5 * gam * g2c

    def rate(g):
        """dg/dt at the 1-D factors g; varpi is a NumPy scalar."""
        w = np.exp(expo * np.log(g)) * p
        varpi = (w @ gam) / w.sum()
        return lead * (neg_kappa - g2c / varpi + half / (varpi * varpi)) * g

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


def _node_times(horizon: float, dt: float, n_steps: int, k: int) -> np.ndarray:
    """Times of the grid nodes k, k+1, ..., n_steps: horizon - dt*(n_steps - j)
    at node j, and 0 exactly at node 0."""
    t = horizon - dt * np.arange(n_steps - k, -1, -1)
    if k == 0:
        t[0] = 0.0  # exact endpoint
    return t


def _solution(params: ModelParams, dt: float, n_steps: int, k: int, g: np.ndarray,
              varpi: np.ndarray) -> OdeSolution:
    """The solution whose rows g and varpi hold nodes k, k+1, ..., n_steps
    of the grid; a march that stopped at node k > 0 has exploded there."""
    t = _node_times(params.horizon, dt, n_steps, k)
    exploded = k > 0
    return OdeSolution(
        t=t,
        g=np.asfortranarray(g),
        varpi=varpi,
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
    return _solution(params, dt, n_steps, k, g, _varpi(g, params.dist.gammas, params.dist.probs))


_GL_NODES = 12  # Gauss-Legendre nodes per panel of the varpi integral
_PANEL_RTOL = 1e-15  # a panel whose halves integrate differently by more is split
_SPLIT_MAX = 40
# a cap on the panels: splits that never settle (psi^2 subnormal at
# gamma_min = 1e-320, or gamma_min = 1e-12 beside 0.999999) doubled the panels
# until memory ran out. The lattice alone reaches about 1030 panels
_PANELS_MAX = 2**12
_NEWTON_MAX = 60  # enough to bisect a panel down to _NEWTON_RTOL
_NEWTON_RTOL = 1e-13  # relative size of the last step; Newton's error is quadratic in it
_E_TOP = 1023  # 2**_E_TOP is the largest power of two a float holds
# temporaries of one block of node evaluations: once freed they leave a later
# Monte Carlo run a larger heap (2**18 raised the peak RSS of power-verify by
# 0.5 MB). The partition into blocks sets no node's bits (see the module
# docstring), so it trades only memory against speed.
_BLOCK_BYTES = 2**16


def _softmax_gamma(s, gam, p):
    """psi(s) and log m(s) at s >= 0 (an array of any shape; s = inf reads
    as the largest float in the weights, where psi has long reached
    gamma_min), as a log-sum-exp: the weights p_i e^{-gamma_i s/2} are
    divided by the smallest gamma's exponential, so none overflows and the
    smallest gamma's never underflows. The weights are laid out one row per
    atom and summed row by row (see the module docstring)."""
    lo = gam.min()
    e = np.exp(np.multiply.outer(-0.5 * (gam - lo), np.minimum(s, np.finfo(float).max).ravel()))
    e *= p[:, None]
    num, total = _atom_sums(e, gam)
    shape = np.shape(s)
    return (num / total).reshape(shape), np.log(total).reshape(shape) - 0.5 * lo * s


def _gauss_legendre(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on [0, 1]:
    Newton steps on the Legendre recurrence from the guesses
    cos(pi*(i - 1/4)/(n + 1/2)), with weights 2/((1 - x^2) P_n'(x)^2) on
    [-1, 1]. numpy.polynomial.legendre.leggauss gives the same rule, but
    importing it fragments the heap enough to lift the peak RSS of a later
    Monte Carlo run by about 14 MB (and a LAPACK eigensolver, by 0.6 MB)."""
    x = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(6):
        p_prev, p = np.ones(n), x
        for j in range(1, n):
            p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
        slope = n * (x * p - p_prev) / (x * x - 1.0)
        x = x - p / slope
    return 0.5 * (x + 1.0), 1.0 / ((1.0 - x * x) * slope**2)


_GL_X, _GL_W = _gauss_legendre(_GL_NODES)


def _integral(left, width, gam, p):
    """int_left^{left+width} psi^2, elementwise. The Gauss-Legendre sum is
    one stacked dot product per segment over a fresh C-contiguous stack,
    which rounds each segment as a lone one; a 2-D ``@`` goes through gemv,
    which rounds a row by its position in the block."""
    psi, _ = _softmax_gamma(left[:, None] + width[:, None] * _GL_X, gam, p)
    return (psi[:, None, :] ** 2 @ _GL_W[:, None])[:, 0, 0] * width


def _panels(target_max, gam, p):
    """Edges of the Gauss-Legendre panels of Psi(S) = int_0^S psi(s)^2 ds up
    to past the root of Psi(S) = target_max, and Psi at them.

    The edges first lie on the lattice 0, s_lo*2^k (k = 0, 1, ...). Its
    base s_lo, a quarter of the fastest transition scale
    1/(gamma_max - gamma_min), comes from the gammas alone, and it reaches
    2*target_max/gamma_min^2 (psi >= gamma_min, so Psi there is at least
    2*target_max) or its largest point a float holds. Then every panel
    whose two halves integrate differently from the whole is halved, until
    none does, so each panel is short next to the poles of the softmax it
    meets. A split is decided by its own panel, so a larger target_max adds
    edges past the old last one and moves none, nor Psi at one."""
    lo, spread = float(gam.min()), float(gam.max() - gam.min())
    s_lo = min(0.25 / spread, 2.0**_E_TOP) if spread > 0.0 else 1.0
    ratio = min(2.0 * target_max / lo / lo / s_lo, 2.0**_E_TOP)
    top = min(math.frexp(ratio)[1], _E_TOP + 1 - math.frexp(s_lo)[1])
    edges = np.concatenate(([0.0], np.ldexp(s_lo, np.arange(max(top, 0) + 1))))
    for _ in range(_SPLIT_MAX):
        half = 0.5 * np.diff(edges)
        whole = _integral(edges[:-1], 2.0 * half, gam, p)
        halves = _integral(edges[:-1], half, gam, p) + _integral(edges[:-1] + half, half, gam, p)
        rough = np.abs(whole - halves) > _PANEL_RTOL * halves
        if not rough.any():
            return edges, np.concatenate(([0.0], np.cumsum(whole)))
        edges = np.sort(np.concatenate((edges, edges[:-1][rough] + half[rough])))
        if len(edges) > _PANELS_MAX + 1:
            break
    raise EvaluationError(f"varpi integral not resolved in {_SPLIT_MAX} panel splits "
                          f"and {_PANELS_MAX} panels")


def _area(target, edges, f_edges, gam, p):
    """S, the root of Psi(S) = target, at every target of the block: inf
    past the last edge (above half the float range, where psi has reached
    gamma_min). Each root is bracketed by its panel's edges. Newton
    (derivative psi^2) refines them, integrating one short segment from the
    panel's left edge, and a step that would leave the bracket bisects it
    instead. Each node stops at its first converged step."""
    s = np.full(len(target), np.inf)
    live = np.flatnonzero(target <= f_edges[-1])
    goal = target[live]
    j = np.minimum(np.searchsorted(f_edges, goal, side="right") - 1, len(edges) - 2)
    a, base, lo, hi = np.interp(goal, f_edges, edges), f_edges[j], edges[j], edges[j + 1]
    left = lo
    for _ in range(_NEWTON_MAX):
        miss = base + _integral(left, a - left, gam, p) - goal
        over = miss > 0.0
        lo, hi = np.where(over, lo, a), np.where(over, a, hi)
        end, _ = _softmax_gamma(a, gam, p)
        new = a - miss / end**2
        # 0.5*lo + 0.5*hi rounds as 0.5*(lo + hi) does, and cannot overflow
        new = np.where((new >= lo) & (new <= hi), new, 0.5 * lo + 0.5 * hi)
        done = np.abs(new - a) <= _NEWTON_RTOL * new
        s[live[done]] = new[done]
        live, goal, a, base, left, lo, hi = (v[~done] for v in (live, goal, new, base, left, lo, hi))
        if not len(live):
            return s
    raise EvaluationError(f"varpi integral did not converge in {_NEWTON_MAX} Newton steps")


def _blocks(target, gam, p):
    """(rows, S, psi(S), log m(S)) at the targets G2*tau >= 0 (inf where
    G2*tau overflows), one block of rows at a time, all over one panel set."""
    edges, f_edges = _panels(float(target.max(initial=0.0)), gam, p)
    block = max(1, _BLOCK_BYTES // (8 * _GL_NODES * len(gam)))
    for k in range(0, len(target), block):
        rows = slice(k, k + block)
        s = _area(target[rows], edges, f_edges, gam, p)
        yield (rows, s, *_softmax_gamma(s, gam, p))


def _evaluate(params: ModelParams, tau: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Fill row j of g with the factors at tau[j] >= 0 (1 at tau = 0, inf
    where one overflows) and return varpi = psi(S(G2*tau)). tau is
    evaluated in blocks written straight into g, so the temporaries stay
    small."""
    gam, p = np.array(params.dist.gammas, dtype=float), np.array(params.dist.probs, dtype=float)
    kappa = params.constants.kappa
    with np.errstate(over="ignore"):
        target = params.g2 * tau
    varpi = np.empty(len(tau))
    for rows, s, psi, log_m in _blocks(target, gam, p):
        varpi[rows] = psi
        # S = inf (G2*tau past the float range) makes the bracket inf - inf
        with np.errstate(over="ignore", invalid="ignore"):
            bracket = (kappa * tau[rows] - 2.0 * log_m)[:, None] - 0.5 * s[:, None] * gam
            g[rows] = np.exp((1.0 - gam) / gam * bracket)
    g[tau == 0.0] = 1.0
    return varpi


def growth_factors(params: ModelParams, dt: float | None = None) -> OdeSolution:
    """The factor system evaluated in closed form at the nodes of the grid
    :func:`solve_growth_factors` marches (dt defaults to horizon/20000):

        log g_i = (1-gamma_i)/gamma_i * [kappa*tau - 2 log m(S) - gamma_i*S/2]

    with tau = T - t of the node time t written and S = S(G2*tau) (see the
    module docstring), so each row's (g, varpi) is ``factors`` at its t bit
    for bit: varpi is psi(S), as the controls read it. g(T) = 1 and
    t[0] = 0 exactly. A node whose factors leave (0, inf) ends
    the solution as an exploding march ends there: the solution keeps the
    nodes after the last such node and is flagged as exploded."""
    dt, n_steps = _grid(params, dt)
    t = _node_times(params.horizon, dt, n_steps, 0)
    g = np.empty((n_steps + 1, params.dist.n), order="F")  # the layout OdeSolution keeps
    varpi = _evaluate(params, params.horizon - t, g)
    bad = np.flatnonzero(~((g > 0.0) & (g < np.inf)).all(axis=1))
    k = int(bad[-1]) + 1 if len(bad) else 0
    return _solution(params, dt, n_steps, k, g[k:], varpi[k:])


def factors(params: ModelParams, t, solution: OdeSolution | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(g, varpi) at the times t in [0, T] (a float or an array of any
    shape): g[..., i] = g_i(t) and varpi = psi(S(G2*(T - t))), with no grid.
    Raises DomainError where a factor leaves (0, inf), naming
    ``growth_factors``' explosion time. Given a ``solution``, interpolates
    it instead (``_interpolate``). A solution records the gammas, probs and
    horizon it was solved for, but no kappa or G2, so only those three are
    compared with the model's: a ParameterError names each that differs."""
    _require_power(params)
    if solution is not None:
        differ = [name for name, own, model in (("gammas", solution.gammas, params.dist.gammas),
                                                ("probs", solution.probs, params.dist.probs),
                                                ("horizon", solution.horizon, params.horizon))
                  if own != model]
        if differ:
            raise ParameterError(f"solution solved for another model: its {', '.join(differ)} "
                                 "differ from the model's")
        return _interpolate(solution, t)
    t = np.asarray(t, dtype=float)
    outside = ~((t >= 0.0) & (t <= params.horizon))
    if outside.any():
        raise DomainError(f"t={t[outside][0]} outside [0, {params.horizon}]")
    g = np.empty((t.size, params.dist.n), order="F")
    varpi = _evaluate(params, params.horizon - t.ravel(), g)
    bad = ~((g > 0.0) & (g < np.inf)).all(axis=1)
    if bad.any():
        raise DomainError(f"power growth factors exploded at t={growth_factors(params).explosion_time}"
                          ": a factor leaves (0, inf) before it")
    return g.reshape(t.shape + (params.dist.n,)), varpi.reshape(t.shape)


def initial_strategies(models) -> list:
    """Equilibrium (retention, invested amount) at t = 0 and the initial
    state of each power model, or the DelarisError the model raises on its
    own. varpi(0) = psi(S(G2*T)) reads a model only through its
    distribution and its target G2*T, so the models of one distribution
    share one panel set and one batched Newton, and each entry is the
    one-model result bit for bit."""
    results, groups = [None] * len(models), {}
    for k, m in enumerate(models):
        try:
            w = _effective_wealth(m, m.x0, m.m1_0, "strategy")
        except DelarisError as err:
            results[k] = err
        else:
            groups.setdefault((m.dist.gammas, m.dist.probs), []).append((k, w))
    for (gammas, probs), members in groups.items():
        # Python floats: G2*T past the float range is inf, with no warning
        targets = np.array([models[k].g2 * models[k].horizon for k, _ in members])
        for (k, w), varpi in zip(members, _initial_varpi(targets, gammas, probs)):
            results[k] = varpi if isinstance(varpi, DelarisError) else _controls(models[k], w, varpi)
    return results


def _initial_varpi(targets: np.ndarray, gammas, probs) -> list:
    """psi(S(target)) at each target of one distribution, or the
    EvaluationError of a target that fails when solved alone."""
    gam, p = np.array(gammas, dtype=float), np.array(probs, dtype=float)
    varpi = np.empty(len(targets))
    try:
        for rows, _, psi, _ in _blocks(targets, gam, p):
            varpi[rows] = psi
    except EvaluationError as err:
        if len(targets) == 1:
            return [err]
        return [v for target in targets for v in _initial_varpi(np.array([target]), gammas, probs)]
    return varpi.tolist()


def initial_strategy(params: ModelParams) -> tuple[float, float]:
    """Equilibrium (retention, invested amount) at t = 0 and the initial
    state: the controls at aggregate risk aversion varpi(0) = psi(S(G2*T)),
    with no grid; the one-model case of :func:`initial_strategies`. Raises
    as :func:`strategy` on a solution would for a model of the wrong family
    or a nonpositive initial effective wealth."""
    (result,) = initial_strategies([params])
    if isinstance(result, DelarisError):
        raise result
    return result


def _interpolate(sol: OdeSolution, t) -> tuple[np.ndarray, np.ndarray]:
    """``factors`` read from a grid solution: each factor
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
    return _interpolate(sol, float(t))[0]


def varpi_at(sol: OdeSolution, t: float) -> float:
    """Aggregate risk aversion at t, recomputed from the interpolated factors."""
    return float(_interpolate(sol, float(t))[1])


def strategy(sol: OdeSolution, params: ModelParams, t: float, x: float, m1: float) -> tuple[float, float]:
    """Equilibrium (retention, invested amount) at (t, x, m1); both scale
    with effective wealth w = x + beta*m1, which must be positive."""
    w = _effective_wealth(params, x, m1, "strategy")
    return _controls(params, w, float(factors(params, float(t), sol)[1]))


def _controls(params: ModelParams, w: float, varpi: float) -> tuple[float, float]:
    """(retention, invested amount) at effective wealth w and aggregate
    risk aversion varpi."""
    co, fin = params.coeffs, params.financial
    q = co.a * co.eta2 * w / (co.b2 * varpi)
    pi_x = (fin.mu - fin.r) * w / (fin.sigma**2 * varpi)
    return q, pi_x


def certainty_factor(sol: OdeSolution | None, params: ModelParams, t: float) -> float:
    """Probability-weighted sum of g_i^{gamma_i/(1-gamma_i)} (g from
    ``factors(params, t, sol)``, so None is the closed form); the value
    function is this factor times effective wealth."""
    g = factors(params, float(t), sol)[0]
    return float(_powers(g, np.asarray(params.dist.gammas)) @ np.asarray(params.dist.probs))


def value(sol: OdeSolution | None, params: ModelParams, t: float, x: float, m1: float) -> float:
    """Aggregated certainty-equivalent value, linear in w = x + beta*m1 > 0."""
    w = _effective_wealth(params, x, m1, "value")
    return w * certainty_factor(sol, params, t)


def ansatz(sol: OdeSolution | None, params: ModelParams, i: int, t: float, x: float,
           m1: float) -> float:
    """Per-gamma expected utility of terminal effective wealth under the
    equilibrium strategy: g_i(t)^gamma_i * w^(1-gamma_i) / (1-gamma_i)."""
    w = _effective_wealth(params, x, m1, "ansatz")
    g, gam = factors(params, float(t), sol)[0][i], params.dist.gammas[i]
    return g**gam * w ** (1.0 - gam) / (1.0 - gam)


def single_gamma_growth(params: ModelParams, gamma: float, t: float) -> float:
    """Closed-form factor for a one-point distribution:
    exp((1-gamma)/gamma * (kappa + 0.5*G2/gamma) * (T - t))."""
    _require_power(params)
    tau = params.horizon - float(t)
    rate = params.constants.kappa + 0.5 * params.g2 / gamma
    return math.exp((1.0 - gamma) / gamma * rate * tau)


def varpi_rate(sol: OdeSolution | None, params: ModelParams, t: float) -> float:
    """Analytic time derivative of the aggregate risk aversion:
    0.5*G2/varpi^2 * (E_w[gamma^2] - varpi^2), with E_w the w_i-weighted mean."""
    gam = np.asarray(params.dist.gammas)
    w = _powers(factors(params, float(t), sol)[0], gam) * np.asarray(params.dist.probs)
    num, total = _atom_sums(w, gam)
    varpi, second = float(num / total), float(_atom_sums(w, gam * gam)[0] / total)
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
