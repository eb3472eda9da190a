"""Numerical verification of the equilibrium characterization.

Three layers of evidence, all phrased through the controlled generator of
the (wealth, running memory) dynamics:

* expectation PDE: each per-gamma expected-utility ansatz is annihilated
  by the generator under the equilibrium controls;
* optimality: the aggregated value solves the sup-form equation -- the
  swept objective is nonpositive, vanishes at the closed-form controls,
  and is concave in each control;
* coefficient split: the exponential ansatz residual, as a function of
  effective wealth, is affine with both coefficients zero;

plus a Feynman-Kac Monte Carlo check tying the ansatz to simulated
expected utilities. Every check reports magnitudes scaled by the sum of
the absolute generator terms, so "zero" means "full cancellation at
working precision", and small fault injections (helper provided) must
blow the residuals up by orders of magnitude.

Every candidate, in both families, depends on the state (x, m1) only
through the effective wealth w = x + beta*m1, so a field is a
:class:`Jet` in w (value, time derivative, first and second
w-derivatives; the m1-derivative is beta*phi_w). Each time is evaluated
once, as arrays over the whole state grid: a slice evaluates the
family's time-only factors (exponent slopes and drift rates, or the
closed-form growth factors at that time, their rates and the certainty
factor) and returns the controls, the per-gamma ansatz jets and the
value jet at every w of the grid. :func:`generator_terms` is affine in (x, m1, m2), so
it applies to the whole grid at once too. The optimality objective is a
q part plus a pi part, so each control is swept on its own mesh. The
closed forms themselves stay in :mod:`delaris.exponential` and
:mod:`delaris.power`.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import exponential as expmod
from . import power as powmod
from . import power_exact
from .exceptions import ParameterError
from .model import ModelParams
from .simulation import SimConfig, mc_reward
from .utility import EXPONENTIAL, inverse_utility, inverse_utility_d2

_TINY = 1e-300

# weak-order-one discretization bias allowance per unit dt relative to the
# reference value. Measured on the benchmark setups (200k paths, dt down to
# 0.04) the bias stays below 0.02*dt*|ref| for both families; 0.5 leaves a
# 25x margin while still being negligible next to the 3-sigma statistical
# band at the default step sizes.
FK_DT_COEFF = 0.5


@dataclass(frozen=True)
class Jet:
    """A field that depends on the state (t, x, m1) only through effective
    wealth w = x + beta*m1: its value, time derivative and first two
    w-derivatives, each a float or an array over a grid of w. The
    m1-derivative is beta*phi_w."""

    phi: float
    phi_t: float
    phi_w: float
    phi_ww: float


def generator_terms(
    jet: Jet,
    params: ModelParams,
    x: float,
    m1: float,
    m2: float,
    q: float,
    pi_x: float,
) -> tuple[float, float, float, float]:
    """The four summands of the controlled generator applied to the field:
    time derivative, wealth drift, diffusion, and memory flow. pi_x is the
    invested amount. Every argument may be an array; the summands broadcast."""
    co, fin, delay, cons = params.coeffs, params.financial, params.delay, params.constants
    drift = (
        cons.A * x
        + cons.B * m1
        + cons.C * m2
        + co.a * co.eta
        + co.a * co.eta2 * q
        + pi_x * (fin.mu - fin.r)
    )
    diff = 0.5 * (co.b2 * q * q + fin.sigma**2 * pi_x * pi_x)
    mem = x - delay.alpha * m1 - math.exp(-delay.alpha * delay.h) * m2
    return jet.phi_t, drift * jet.phi_w, diff * jet.phi_ww, mem * (delay.beta * jet.phi_w)


# ----------------------------------------------------------- time slices


def _exp_rates(params: ModelParams, gamma: float, t: float) -> tuple[float, float, float]:
    """(g1, dg1/dt, dg2/dt) of the exponential ansatz exponent g1*w + g2."""
    co, kappa = params.coeffs, params.constants.kappa
    g1 = expmod.exponent_slope(params, gamma, t)
    g2_dot = gamma * co.a * co.eta * math.exp(
        kappa * (params.horizon - t)
    ) + expmod.drift_adjustment(params, gamma)
    return g1, -kappa * g1, g2_dot


def _slice(params: ModelParams, solution: powmod.OdeSolution | None, t: float, w):
    """The family's closed forms at time t and effective wealth w (a float
    or an array): ((q, pi_x), one ansatz jet per gamma, the value jet).
    Every time-only factor is evaluated once: power reads its factors in
    closed form at t (interpolated from ``solution`` if one is given) and
    dg/dt from the factor system at them. The family routines take (x, m1)
    and see only x + beta*m1, so w enters as (w, 0)."""
    if params.dist.family == EXPONENTIAL:
        co, kappa = params.coeffs, params.constants.kappa
        e = math.exp(kappa * (params.horizon - t))
        g_const = params.g2 / params.mean_gamma
        controls = tuple(np.full(np.shape(w), c) for c in expmod.strategy(params, t))
        jets = []
        for gamma in params.dist.gammas:
            g1, g1_dot, g2_dot = _exp_rates(params, gamma, t)
            phi = expmod.ansatz(params, gamma, t, w, 0.0)
            jets.append(Jet(phi, phi * (g1_dot * w + g2_dot), g1 * phi, g1**2 * phi))
        u_t = -kappa * w * e - co.a * co.eta * e - 0.5 * g_const
        return controls, jets, Jet(expmod.value(params, t, w, 0.0), u_t, e, 0.0)

    gam, p = np.asarray(params.dist.gammas), np.asarray(params.dist.probs)
    if solution is None:
        g, varpi = power_exact.factors(params, t)
    else:
        g = powmod.g_at(solution, t)
        varpi = powmod.aggregate_gamma(g, solution.gammas, solution.probs)  # varpi_at(t)
    g_dot = powmod._rate_fn(gam, p, params.constants.kappa, params.g2)(g)
    gc = powmod._powers(g, gam)
    factor = float(gc @ p)  # certainty_factor(t)
    rate = float((gam / (1.0 - gam) * gc / g * g_dot) @ p)  # its time derivative
    w = powmod._effective_wealth(params, w, 0.0, "verification")
    jets = [
        Jet(
            powmod._ansatz(gi, gm, w),
            gm * gi ** (gm - 1.0) * gi_dot * w ** (1.0 - gm) / (1.0 - gm),
            gi**gm * w ** (-gm),
            -gm * gi**gm * w ** (-gm - 1.0),
        )
        for gm, gi, gi_dot in zip(params.dist.gammas, g, g_dot)
    ]
    return powmod._controls(params, w, varpi), jets, Jet(w * factor, w * rate, factor, 0.0)


def _state_grid(params: ModelParams, x_vals, m1_vals):
    """x as a column, m1 as a row and their effective wealth w[b, c]."""
    x = np.asarray(x_vals, dtype=float)[:, None]
    m1 = np.asarray(m1_vals, dtype=float)
    return x, m1, x + params.delay.beta * m1


# ------------------------------------------------------- expectation PDE


@dataclass(frozen=True)
class ResidualGrid:
    """Per-gamma generator residuals of the equilibrium ansatz on a grid.

    residual[i, a, b, c] is |generator applied to ansatz gamma_i| at
    (t_vals[a], x_vals[b], m1_vals[c]); scaled divides by the sum of the
    absolute generator terms at the node (cancellation scale)."""

    t_vals: np.ndarray
    x_vals: np.ndarray
    m1_vals: np.ndarray
    m2: float
    gammas: tuple[float, ...]
    residual: np.ndarray
    scaled: np.ndarray

    @property
    def max_scaled(self) -> float:
        return float(self.scaled.max())

    @property
    def rms_scaled(self) -> float:
        return float(np.sqrt(np.mean(self.scaled**2)))


def expectation_pde_residual(
    params: ModelParams,
    t_vals: Sequence[float],
    x_vals: Sequence[float],
    m1_vals: Sequence[float],
    m2: float = 0.6,
    solution: powmod.OdeSolution | None = None,
) -> ResidualGrid:
    """Generator residual of each per-gamma ansatz under the equilibrium
    controls, on the tensor grid. Closed forms cancel to roundoff; any
    perturbation of the derived constants must show up at ~the perturbation
    size (see :func:`perturb_constants`)."""
    t_vals = np.asarray(t_vals, dtype=float)
    x, m1, w = _state_grid(params, x_vals, m1_vals)
    shape = (len(params.dist.gammas), len(t_vals), *w.shape)
    residual = np.empty(shape)
    scaled = np.empty(shape)
    for a, t in enumerate(t_vals):
        (q, pi_x), jets, _ = _slice(params, solution, t, w)
        for i, jet in enumerate(jets):
            terms = generator_terms(jet, params, x, m1, m2, q, pi_x)
            residual[i, a] = res = np.abs(sum(terms))
            scaled[i, a] = res / np.maximum(sum(np.abs(v) for v in terms), _TINY)
    return ResidualGrid(
        t_vals=t_vals,
        x_vals=x[:, 0],
        m1_vals=m1,
        m2=m2,
        gammas=params.dist.gammas,
        residual=residual,
        scaled=scaled,
    )


# ------------------------------------------------------------ optimality


@dataclass(frozen=True)
class OptimalityResult:
    """Sup-form verification over a control sweep.

    max_scaled_sup: worst swept objective value over all nodes, scaled
    max_cell_distance: worst distance between the sweep argmax and the
        closed-form controls, in units of one coarse-grid cell
    concave: quadratic control coefficient negative at every node
    """

    max_scaled_sup: float
    max_cell_distance: float
    concave: bool
    n_nodes: int


_N_MESH = 41  # coarse mesh nodes per control
# relative offsets of the refined nodes around the candidate
_OFFSETS = np.array([0.0, 1e-5, -1e-5, 1e-4, -1e-4, 1e-3, -1e-3, 1e-2, -1e-2, 0.1, -0.1])


def _mesh(cand, lo: float, hi: float, w):
    """Control meshes from lo*|cand| to hi*|cand| along a last axis, one per
    node; a zero candidate takes the node's effective wealth (or 1) as its
    width, so no sweep collapses to a point."""
    width = np.where(cand != 0.0, np.abs(cand), np.where(w != 0.0, np.abs(w), 1.0))
    return np.linspace(lo * width, hi * width, _N_MESH, axis=-1)


def _sweep(cand, lo: float, hi: float, w, lin, quad):
    """Maximize lin*c + quad*c^2 over one control c at every node, on the
    coarse mesh plus the candidate's relative offsets: (max, distance of the
    argmax from the candidate in coarse cells)."""
    mesh = _mesh(cand, lo, hi, w)
    c = np.concatenate([mesh, cand[..., None] * (1.0 + _OFFSETS)], axis=-1)
    vals = np.asarray(lin)[..., None] * c + quad[..., None] * c**2
    k = vals.argmax(axis=-1)[..., None]
    star = np.take_along_axis(c, k, axis=-1)[..., 0]
    dist = np.abs(star - cand) / (mesh[..., 1] - mesh[..., 0])
    return np.take_along_axis(vals, k, axis=-1)[..., 0], dist


def optimality_residual(
    params: ModelParams,
    t_vals: Sequence[float],
    x_vals: Sequence[float],
    m1_vals: Sequence[float],
    m2: float = 0.6,
    solution: powmod.OdeSolution | None = None,
) -> OptimalityResult:
    """Sweep the control objective

        generator(U; q, pi) - 0.5*(b^2 q^2 + sigma^2 pi^2) *
            sum_i p_i * d2(u_i^{-1})(Y_i) * (dY_i/dw)^2

    over a coarse global grid q in [0, 4*q_cand], pi in [-2, 4]*pi_cand plus
    a multiplicatively refined local grid around the closed-form candidate.
    The objective is base + (q part) + (pi part), so its sup is base plus
    the two one-control maxima. The sup must vanish (scaled) and the argmax
    must land within one coarse cell of the candidate."""
    family, gammas, probs = params.dist.family, params.dist.gammas, params.dist.probs
    co, fin = params.coeffs, params.financial
    x, m1, w = _state_grid(params, x_vals, m1_vals)

    worst_sup = -math.inf
    worst_dist = 0.0
    concave = True
    for t in np.asarray(t_vals, dtype=float):
        (q_cand, pi_cand), jets, u = _slice(params, solution, t, w)
        penalty = 0.0
        for gamma, p, jet in zip(gammas, probs, jets):
            penalty += p * inverse_utility_d2(family, gamma, jet.phi) * jet.phi_w * jet.phi_w
        quad = 0.5 * (u.phi_ww - penalty)
        concave = concave and not np.any(quad >= 0.0)
        # the generator of U with both controls at zero
        base = sum(generator_terms(u, params, x, m1, m2, 0.0, 0.0))
        cq = co.a * co.eta2 * u.phi_w
        cpi = (fin.mu - fin.r) * u.phi_w
        best_q, dist_q = _sweep(q_cand, 0.0, 4.0, w, cq, quad * co.b2)
        best_pi, dist_pi = _sweep(pi_cand, -2.0, 4.0, w, cpi, quad * fin.sigma**2)
        sup = base + best_q + best_pi

        scale = (
            np.abs(u.phi_t)
            + np.abs(base - u.phi_t)
            + np.abs(cq * q_cand)
            + np.abs(cpi * pi_cand)
            + np.abs(quad) * (co.b2 * q_cand**2 + fin.sigma**2 * pi_cand**2)
        )
        scaled = np.abs(sup) / np.maximum(scale, _TINY)
        worst_sup = max(worst_sup, np.max(scaled, initial=-math.inf))
        worst_dist = max(worst_dist, np.max(dist_q, initial=0.0), np.max(dist_pi, initial=0.0))
    return OptimalityResult(
        max_scaled_sup=float(worst_sup),
        max_cell_distance=float(worst_dist),
        concave=bool(concave),
        n_nodes=len(t_vals) * w.size,
    )


# ------------------------------------------------- coefficient splitting


@dataclass(frozen=True)
class CoefficientSplit:
    """Affine decomposition of the exponential ansatz residual in effective
    wealth: residual(w) = slope*w + intercept, both scaled by the absolute
    sizes of their constituent terms."""

    slope_scaled: float
    intercept_scaled: float


def coefficient_split_check(
    params: ModelParams,
    gamma: float,
    t: float,
    g1_factor: float = 1.0,
) -> CoefficientSplit:
    """Evaluate the exponent-level residual at effective wealth 0.5 and 1.5
    and split it into slope and intercept. Both vanish for the closed
    forms; ``g1_factor`` != 1 injects a multiplicative fault into the
    wealth-slope value (its analytic derivative stays unperturbed), which
    the slope coefficient must detect. Exponential family only."""
    co, fin = params.coeffs, params.financial
    kappa = params.constants.kappa
    g1, g1_dot, g2_dot = _exp_rates(params, gamma, t)
    g1 *= g1_factor
    q_hat, pi_hat = expmod.strategy(params, t)
    control_lin = (pi_hat * (fin.mu - fin.r) + co.a * co.eta + co.a * co.eta2 * q_hat) * g1
    control_quad = 0.5 * (co.b2 * q_hat**2 + fin.sigma**2 * pi_hat**2) * g1**2

    def residual(w):
        return g1_dot * w + g2_dot + kappa * w * g1 + control_lin + control_quad

    w1, w2 = 0.5, 1.5
    slope = (residual(w1) - residual(w2)) / (w1 - w2)
    intercept = residual(w1) - slope * w1
    slope_scale = abs(g1_dot) + abs(kappa * g1)
    intercept_scale = abs(g2_dot) + abs(control_lin) + abs(control_quad)
    return CoefficientSplit(
        slope_scaled=abs(slope) / max(slope_scale, _TINY),
        intercept_scaled=abs(intercept) / max(intercept_scale, _TINY),
    )


# --------------------------------------------------------- Feynman-Kac


@dataclass(frozen=True)
class FkGammaResult:
    gamma: float
    mc_mean: float
    mc_se: float
    reference: float
    abs_diff: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class FkReport:
    results: tuple[FkGammaResult, ...]
    passed: bool
    dt: float
    n_paths: int
    seed: int
    excluded_paths: int


def feynman_kac_check(
    params: ModelParams,
    dt: float,
    n_paths: int,
    seed: int,
    solution: powmod.OdeSolution | None = None,
) -> FkReport:
    """Monte Carlo check that the per-gamma ansatz at (0, x0, m1_0) equals
    the expected terminal utility under the equilibrium strategy (power:
    both from ``solution`` if one is given, else from the closed form).

    Pass criterion per gamma: |mc - ansatz| <= 3*SE + FK_DT_COEFF*dt*|ansatz|
    (statistical error plus the weak-order-one discretization allowance)."""
    _, jets, _ = _slice(params, solution, 0.0, params.x0 + params.delay.beta * params.m1_0)
    source = params.dist.family if solution is None else solution
    cfg = SimConfig(dt=dt, n_paths=n_paths, seed=seed, strategy=source)
    est = mc_reward(params, cfg)
    results = []
    for ref, pg in zip((jet.phi for jet in jets), est.per_gamma):
        diff = abs(pg.y_mean - ref)
        tol = 3.0 * pg.y_se + FK_DT_COEFF * dt * abs(ref)
        results.append(
            FkGammaResult(
                gamma=pg.gamma,
                mc_mean=pg.y_mean,
                mc_se=pg.y_se,
                reference=float(ref),
                abs_diff=float(diff),
                tolerance=float(tol),
                passed=bool(diff <= tol),
            )
        )
    return FkReport(
        results=tuple(results),
        passed=all(r.passed for r in results),
        dt=dt,
        n_paths=n_paths,
        seed=seed,
        excluded_paths=est.excluded_paths,
    )


# ------------------------------------------------------------- utilities


def aggregated_value_identity(
    params: ModelParams,
    t: float,
    x: float,
    m1: float,
    solution: powmod.OdeSolution | None = None,
) -> tuple[float, float]:
    """(probability-weighted certainty equivalent of the per-gamma ansatz,
    closed-form aggregated value); the two must agree."""
    _, jets, u = _slice(params, solution, t, x + params.delay.beta * m1)
    h = math.fsum(
        p * inverse_utility(params.dist.family, g, jet.phi)
        for (g, p), jet in zip(params.dist.points, jets)
    )
    return h, u.phi


def perturb_constants(params: ModelParams, name: str, rel: float) -> ModelParams:
    """Copy of params with one derived constant multiplied by (1 + rel).
    The copy deliberately bypasses the solver, for fault-injection tests."""
    if name not in ("A", "B", "C", "kappa"):
        raise ParameterError(f"unknown derived constant {name!r}; expected A, B, C or kappa")
    cons = params.constants
    new = dataclasses.replace(cons, **{name: getattr(cons, name) * (1.0 + rel)})
    return dataclasses.replace(params, constants=new)
