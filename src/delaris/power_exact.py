"""Closed-form growth factors of the power-utility equilibrium.

The factor system of :mod:`delaris.power` has a closed form in
tau = T - t (see that module's docstring):

    log g_i = (1-gamma_i)/gamma_i * [kappa*tau - 2 log M(A) - gamma_i*G2*A/2],

where A(tau) solves tau = int_0^A Phi(a)^2 da: the integral is summed over
Gauss-Legendre panels and one batched Newton finds A at every tau.
``factors`` evaluates it at any times, with no grid; ``growth_factors``
returns the same :class:`~delaris.power.OdeSolution` as
``power.solve_growth_factors`` on the same grid, exact at the nodes.
``initial_strategy`` needs only tau = T: the time-zero controls of a
sweep point read varpi(0) = Phi(A(T)) and nothing else.

``_softmax_gamma`` lays the weights out with the atoms on the leading
axis, one row of nodes per atom. A node block is a few thousand nodes
and a model a handful of atoms, so the exponentials, the products with
p and the sums over the atoms all run as long contiguous loops. With
the atoms last, each would run numpy's inner loop over two to ten
elements per node: one (341, 12) block of two atoms takes about 0.17 ms
that way against 0.05 ms (2-core x86-64 VM).
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import DomainError, EvaluationError
from .model import ModelParams
from .power import OdeSolution, _controls, _effective_wealth, _grid, _require_power, _solution, factors_on

_GL_NODES = 12  # Gauss-Legendre nodes per panel of the varpi integral
_PANEL_RTOL = 1e-15  # a panel whose halves integrate differently by more is split
_SPLIT_MAX = 40
_NEWTON_MAX = 60  # enough to bisect a panel down to _NEWTON_RTOL
_NEWTON_RTOL = 1e-13  # relative size of the last step; Newton's error is quadratic in it
# temporaries of one block of node evaluations: once freed they leave a later
# Monte Carlo run a larger heap (2**18 raised the peak RSS of power-verify by
# 0.5 MB). The partition into blocks also sets each node's last bits: Newton
# stops a whole block at once, and the panel sums of a block go through one
# matrix-vector product. 2**17 changed the growth_factors.csv bytes of case II
# and 2**18 those of case I, although a larger block can be faster (2**17:
# growth_factors of case I in 17 ms against 23 ms, best of 30 runs on a
# 2-core x86-64 VM).
_BLOCK_BYTES = 2**16


def _softmax_gamma(a, gam, p, g2c):
    """Phi(a) and log M(a) at the areas a >= 0 (an array of any shape), as
    a log-sum-exp: the weights p_i e^{-gamma_i G2 a/2} are divided by the
    smallest gamma's exponential, so none overflows and the smallest
    gamma's never underflows. The weights are laid out one row per atom
    (see the module docstring)."""
    lo = gam.min()
    e = np.exp(np.multiply.outer(-0.5 * g2c * (gam - lo), a.ravel()))
    e *= p[:, None]
    total = e.sum(axis=0)
    # the numerator as a plain sum of products: a BLAS gemv would round a
    # node's last bits by its column's position in the block
    e *= gam[:, None]
    return (e.sum(axis=0) / total).reshape(a.shape), np.log(total).reshape(a.shape) - 0.5 * g2c * lo * a


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


def _integral(left, width, gam, p, g2c):
    """int_left^{left+width} Phi^2, elementwise."""
    phi, _ = _softmax_gamma(left[:, None] + width[:, None] * _GL_X, gam, p, g2c)
    return (phi**2 @ _GL_W) * width


def _panels(tau_max, gam, p, g2c):
    """Edges of the Gauss-Legendre panels of F(A) = int_0^A Phi(a)^2 da up
    to past A(tau_max), and F at them.

    The edges first grow geometrically from below the fastest transition
    scale 2/(G2*(gamma_max - gamma_min)) to twice A's bound
    tau_max/gamma_min^2; then every panel whose two halves integrate
    differently from the whole is halved, until none does, so each panel
    is short next to the poles of the softmax it meets."""
    a_hi = 2.0 * tau_max / gam.min() ** 2  # Phi >= gamma_min, so F(a_hi) >= 2*tau_max
    fastest = 0.5 * g2c * (gam.max() - gam.min())
    a_lo = min(a_hi, 1.0 / fastest if fastest > 0.0 else a_hi) / 8.0
    n_geo = max(1, math.ceil(math.log2(a_hi / a_lo)))
    edges = np.concatenate(([0.0], a_lo * (a_hi / a_lo) ** (np.arange(n_geo + 1) / n_geo)))
    for _ in range(_SPLIT_MAX):
        half = 0.5 * np.diff(edges)
        whole = _integral(edges[:-1], 2.0 * half, gam, p, g2c)
        halves = (_integral(edges[:-1], half, gam, p, g2c)
                  + _integral(edges[:-1] + half, half, gam, p, g2c))
        rough = np.abs(whole - halves) > _PANEL_RTOL * halves
        if not rough.any():
            return edges, np.concatenate(([0.0], np.cumsum(whole)))
        edges = np.sort(np.concatenate((edges, edges[:-1][rough] + half[rough])))
    raise EvaluationError(f"varpi integral not resolved in {_SPLIT_MAX} panel splits")


def _area(tau, edges, f_edges, gam, p, g2c):
    """A(tau), the root of F(A) = tau, at every tau of the block. Each root
    is bracketed by its panel's edges. One batched Newton (derivative
    Phi^2) refines them, integrating one short segment from the panel's
    left edge, and a step that would leave the bracket bisects it instead."""
    j = np.minimum(np.searchsorted(f_edges, tau, side="right") - 1, len(edges) - 2)
    a = np.interp(tau, f_edges, edges)
    left, lo, hi = edges[j], edges[j], edges[j + 1]
    for _ in range(_NEWTON_MAX):
        miss = f_edges[j] + _integral(left, a - left, gam, p, g2c) - tau
        over = miss > 0.0
        lo, hi = np.where(over, lo, a), np.where(over, a, hi)
        end, _ = _softmax_gamma(a, gam, p, g2c)
        new = a - miss / end**2
        new = np.where((new >= lo) & (new <= hi), new, 0.5 * (lo + hi))
        done = np.abs(new - a) <= _NEWTON_RTOL * new
        a = new
        if done.all():
            return a
    raise EvaluationError(f"varpi integral did not converge in {_NEWTON_MAX} Newton steps")


def _evaluate(params: ModelParams, tau: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Fill row j of g with the factors at tau[j] >= 0 (1 at tau = 0, inf
    where one overflows) and return varpi = Phi(A(tau)). The panels reach
    max(tau), or the horizon if that is 0; tau is evaluated in blocks
    written straight into g, so the temporaries stay small."""
    gam, p = np.array(params.dist.gammas, dtype=float), np.array(params.dist.probs, dtype=float)
    g2c, kappa = params.g2, params.constants.kappa
    edges, f_edges = _panels(tau.max(initial=0.0) or params.horizon, gam, p, g2c)
    varpi = np.empty(len(tau))
    block = max(1, _BLOCK_BYTES // (8 * _GL_NODES * len(gam)))
    for s in range(0, len(tau), block):
        rows = slice(s, s + block)
        area = _area(tau[rows], edges, f_edges, gam, p, g2c)
        varpi[rows], log_m = _softmax_gamma(area, gam, p, g2c)
        bracket = (kappa * tau[rows] - 2.0 * log_m)[:, None] - 0.5 * g2c * area[:, None] * gam
        with np.errstate(over="ignore"):
            g[rows] = np.exp((1.0 - gam) / gam * bracket)
    g[tau == 0.0] = 1.0
    return varpi


def growth_factors(params: ModelParams, dt: float | None = None) -> OdeSolution:
    """The factor system evaluated in closed form at the nodes of the grid
    ``power.solve_growth_factors`` marches (dt defaults to horizon/20000):

        log g_i = (1-gamma_i)/gamma_i * [kappa*tau - 2 log M(A) - gamma_i*G2*A/2]

    with tau = T - t and A = A(tau) (see the module docstring). g(T) = 1 and
    t[0] = 0 exactly. A node whose factors leave (0, inf) ends the solution
    as an exploding march ends there: the solution keeps the nodes after the
    last such node and is flagged as exploded."""
    dt, n_steps = _grid(params, dt)
    g = np.empty((n_steps + 1, params.dist.n), order="F")  # the layout OdeSolution keeps
    _evaluate(params, dt * np.arange(n_steps + 1, dtype=float), g[::-1])  # ascending tau
    bad = np.flatnonzero(~((g > 0.0) & (g < np.inf)).all(axis=1))
    k = int(bad[-1]) + 1 if len(bad) else 0
    return _solution(params, dt, n_steps, k, g[k:])


def factors(params: ModelParams, t, solution: OdeSolution | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(g, varpi) at the times t in [0, T] (a float or an array of any
    shape): g[..., i] = g_i(t) and varpi = Phi(A(T - t)), with no grid.
    Raises DomainError where a factor leaves (0, inf), naming
    ``growth_factors``' explosion time. Given a ``solution``, interpolates
    it instead (``power.factors_on``)."""
    if solution is not None:
        return factors_on(solution, t)
    _require_power(params)
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


def initial_strategy(params: ModelParams) -> tuple[float, float]:
    """Equilibrium (retention, invested amount) at t = 0 and the initial
    state: the controls at aggregate risk aversion varpi(0) = Phi(A(T)),
    with no grid. Raises as ``power.strategy`` on a solution would for a
    model of the wrong family or a nonpositive initial effective wealth."""
    w = _effective_wealth(params, params.x0, params.m1_0, "strategy")
    gam, p = np.array(params.dist.gammas, dtype=float), np.array(params.dist.probs, dtype=float)
    g2c, tau = params.g2, np.array([params.horizon])
    area = _area(tau, *_panels(params.horizon, gam, p, g2c), gam, p, g2c)
    varpi, _ = _softmax_gamma(area, gam, p, g2c)
    return _controls(params, w, float(varpi[0]))
