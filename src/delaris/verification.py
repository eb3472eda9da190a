"""Numerical verification of the equilibrium characterization.

Three layers of evidence, all phrased through the controlled generator of
the (wealth, running memory) dynamics:

* expectation PDE: each per-gamma expected-utility ansatz is annihilated
  by the generator under the equilibrium controls;
* optimality: the aggregated value solves the sup-form equation -- the
  control objective is a concave quadratic whose vertex is the
  closed-form controls and whose value there vanishes;
* coefficient split: the exponential ansatz residual, as a function of
  effective wealth, is affine with both coefficients zero;

plus a Feynman-Kac Monte Carlo check tying the ansatz to simulated
expected utilities. Every check reports magnitudes scaled by the sum of
the absolute generator terms, so "zero" means "full cancellation at
working precision", and small fault injections (helper provided) must
blow the residuals up by orders of magnitude.

Every candidate, in both families, depends on the state (x, m1) only
through the effective wealth w = x + beta*m1, so a field is a
:class:`Jet` in w (time derivative, first and second w-derivatives; the
m1-derivative is beta*phi_w). The generator is linear in the jet, so a
scaled residual is unchanged by dividing the jet by a positive factor of
the field: each per-gamma ansatz phi_i enters as its log-derivatives,
(g1_dot*w + g2_dot, g1, g1^2) for the exponential and
((1-gamma_i)*(-kappa - G2/varpi + gamma_i*G2/(2 varpi^2)), (1-gamma_i)/w,
-gamma_i(1-gamma_i)/w^2) for the power, and its value, which can leave
the float range, is never formed. The exponential aggregated value keeps
its absolute derivatives. The power one is w times the certainty factor
cf = sum_i p_i g_i^{gamma_i/(1-gamma_i)}, of rate -cf*(kappa + G2/(2 varpi)),
so it and the curvature enter divided by cf, which cancels from the
optimality objective's scaled sup and vertex: a power slice reads varpi
alone, never g nor a weight g_i^{gamma_i/(1-gamma_i)}, which can overflow
where g does not. Each time is evaluated once, as arrays over the whole
state grid: a slice evaluates the family's time-only factors (exponent
slopes and drift rates, or varpi) and returns the controls, the
per-gamma jets, the value jet and the certainty-equivalent curvature at
every w of the grid. A power check reads varpi at all its times in one
``power.factors`` call before its first slice: the closed form, or a
solution of the same model interpolated. :func:`generator_terms` is
affine in (x, m1, m2), so it applies to the whole grid at once too. The
optimality objective is a quadratic in (q, pi), so its sup is read at its
vertex; its curvature sum_i p_i (u_i^{-1})''(phi_i) phi_i,w^2 is a closed
form in which phi cancels. The closed forms themselves, and the values
the Feynman-Kac reference reads, stay in :mod:`delaris.exponential` and
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
from .exceptions import ParameterError
from .model import ModelParams
from .simulation import SimConfig, mc_reward
from .utility import EXPONENTIAL

_TINY = 1e-300

# weak-order-one discretization bias allowance per unit dt relative to the
# reference value. Measured on the benchmark setups (200k paths, dt down to
# 0.04) the bias stays below 0.02*dt*|ref| for both families; 0.5 leaves a
# 25x margin while still being negligible next to the 3-sigma statistical
# band at the default step sizes.
FK_DT_COEFF = 0.5

# first-order gap allowance of the optimality check. The clean gap is at most
# 8.4e-16 on the four baselines and 5.2e-15 over hundreds of seeded random
# admitted models of both families; a candidate control off by 0.1% reads
# 1e-3. 1e-10 sits 10^4x above the first and at 1e-7 of the second.
OPTIMALITY_GAP_TOL = 1e-10


@dataclass(frozen=True)
class Jet:
    """A field phi that depends on the state (t, x, m1) only through
    effective wealth w = x + beta*m1: its time derivative and first two
    w-derivatives, each a float or an array over a grid of w, or all three
    divided by phi or by a positive factor of phi that depends on t alone.
    The m1-derivative is beta*phi_w."""

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


def _slices(params: ModelParams, solution: powmod.OdeSolution | None, t_vals, w):
    """The family's closed forms at each of the times t_vals and effective
    wealth w (a float or an array), one time after another: yields
    ((q, pi_x), one ansatz log-derivative jet per gamma, the value jet,
    the curvature sum_i p_i (u_i^{-1})''(phi_i) * phi_i,w^2, in which phi
    cancels: sum_i p_i g1_i^2/gamma_i for exponential; for power the value
    jet (-w*(kappa + G2/(2 varpi)), 1, 0) and the curvature varpi/w, both
    divided by the certainty factor). Every time-only factor is evaluated
    once: power reads varpi, and nothing else, at all the times in one
    ``power.factors`` call on ``solution`` (None: the closed form) before
    it checks w. An exploded closed form raises from ``factors``, which
    names the model's explosion time whatever t_vals are. The power wealth
    check takes (x, m1) and sees only x + beta*m1, so w enters it as
    (w, 0)."""
    if params.dist.family == EXPONENTIAL:
        co, kappa = params.coeffs, params.constants.kappa
        g_const = params.g2 / params.mean_gamma
        for t in t_vals:
            e = math.exp(kappa * (params.horizon - t))
            controls = tuple(np.full(np.shape(w), c) for c in expmod.strategy(params, t))
            jets = []
            curvature = 0.0
            for gamma, p in params.dist.points:
                g1, g1_dot, g2_dot = _exp_rates(params, gamma, t)
                jets.append(Jet(g1_dot * w + g2_dot, g1, g1**2))
                curvature += p * g1**2 / gamma
            u_t = -kappa * w * e - co.a * co.eta * e - 0.5 * g_const
            yield controls, jets, Jet(u_t, e, 0.0), curvature
        return

    kappa, g2c = params.constants.kappa, params.g2
    varpis = powmod.factors(params, t_vals, solution)[1]
    w = powmod._effective_wealth(params, w, 0.0, "verification")
    for varpi in varpis:
        jets = [Jet((1.0 - gm) * (-kappa - g2c / varpi + gm * g2c / (2.0 * varpi**2)),
                    (1.0 - gm) / w, -gm * (1.0 - gm) / w**2)
                for gm in params.dist.gammas]
        u = Jet(-w * (kappa + g2c / (2.0 * varpi)), 1.0, 0.0)
        yield powmod._controls(params, w, varpi), jets, u, varpi / w


def _state_grid(params: ModelParams, x_vals, m1_vals):
    """x as a column, m1 as a row and their effective wealth w[b, c]."""
    x = np.asarray(x_vals, dtype=float)[:, None]
    m1 = np.asarray(m1_vals, dtype=float)
    return x, m1, x + params.delay.beta * m1


# ------------------------------------------------------- expectation PDE


@dataclass(frozen=True)
class ResidualGrid:
    """Per-gamma generator residuals of the equilibrium ansatz on a grid.

    scaled[i, a, b, c] is |generator applied to ansatz gamma_i| at
    (t_vals[a], x_vals[b], m1_vals[c]) over the sum of the absolute
    generator terms there (cancellation scale), both read from the
    ansatz's log-derivatives."""

    t_vals: np.ndarray
    x_vals: np.ndarray
    m1_vals: np.ndarray
    m2: float
    gammas: tuple[float, ...]
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
    scaled = np.empty(shape)
    for a, ((q, pi_x), jets, _, _) in enumerate(_slices(params, solution, t_vals, w)):
        for i, jet in enumerate(jets):
            terms = generator_terms(jet, params, x, m1, m2, q, pi_x)
            scaled[i, a] = np.abs(sum(terms)) / np.maximum(sum(np.abs(v) for v in terms), _TINY)
    return ResidualGrid(
        t_vals=t_vals,
        x_vals=x[:, 0],
        m1_vals=m1,
        m2=m2,
        gammas=params.dist.gammas,
        scaled=scaled,
    )


# ------------------------------------------------------------ optimality


@dataclass(frozen=True)
class OptimalityResult:
    """Sup-form verification at the vertex of the control objective.

    max_scaled_sup: worst objective value at the vertex over all nodes, scaled
    max_first_order_gap: worst |c* - c_cand| / width over both controls,
        the width being |c_cand|, else |w|, else 1
    max_cell_distance: the same distance in coarse cells of 0.1 width (q)
        and 0.15 width (pi), the unit of the one-cell criterion
    concave: quadratic control coefficient negative at every node
    """

    max_scaled_sup: float
    max_first_order_gap: float
    max_cell_distance: float
    concave: bool
    n_nodes: int


def _maximize(lin, quad, cand, w, lower=-math.inf):
    """Maximize lin*c + quad*c^2 over c >= lower at every node from its
    vertex: (max, worst gap of the maximizer from the candidate over the
    candidate's width |cand|, else the node's |w|, else 1). Where quad >= 0
    the check fails on concavity and the candidate stands in for the
    vertex, so every number stays finite."""
    concave = quad < 0.0
    star = np.maximum(np.where(concave, -lin / (2.0 * np.where(concave, quad, -1.0)), cand), lower)
    width = np.where(cand != 0.0, np.abs(cand), np.where(w != 0.0, np.abs(w), 1.0))
    return lin * star + quad * star**2, np.max(np.abs(star - cand) / width, initial=0.0)


def optimality_residual(
    params: ModelParams,
    t_vals: Sequence[float],
    x_vals: Sequence[float],
    m1_vals: Sequence[float],
    m2: float = 0.6,
    solution: powmod.OdeSolution | None = None,
) -> OptimalityResult:
    """Maximize the control objective

        generator(U; q, pi) - 0.5*(b^2 q^2 + sigma^2 pi^2) *
            sum_i p_i * d2(u_i^{-1})(Y_i) * (dY_i/dw)^2

    over q >= 0 and pi at every node. It is base + cq*q + quad*b^2*q^2 +
    cpi*pi + quad*sigma^2*pi^2, concave where quad < 0, so its sup is at
    the vertex q* = max(-cq/(2*quad*b^2), 0), pi* = -cpi/(2*quad*sigma^2).
    The sup must vanish (scaled) and the vertex must be the closed-form
    candidate, up to a first-order gap at roundoff."""
    co, fin = params.coeffs, params.financial
    x, m1, w = _state_grid(params, x_vals, m1_vals)

    # each slice's worst values are reduced by NumPy's max, which keeps a
    # NaN where Python's max drops it, and NaN < 0 is false: a NaN anywhere
    # fails the verdict
    sups, gaps = [], []
    concave = True
    for (q_cand, pi_cand), _, u, curv in _slices(params, solution, np.asarray(t_vals, float), w):
        quad = 0.5 * (u.phi_ww - curv)
        concave = concave and bool(np.all(quad < 0.0))
        # the generator of U with both controls at zero
        base = sum(generator_terms(u, params, x, m1, m2, 0.0, 0.0))
        cq = co.a * co.eta2 * u.phi_w
        cpi = (fin.mu - fin.r) * u.phi_w
        best_q, gap_q = _maximize(cq, quad * co.b2, q_cand, w, lower=0.0)
        best_pi, gap_pi = _maximize(cpi, quad * fin.sigma**2, pi_cand, w)
        sup = base + best_q + best_pi
        scale = (
            np.abs(u.phi_t)
            + np.abs(base - u.phi_t)
            + np.abs(cq * q_cand)
            + np.abs(cpi * pi_cand)
            + np.abs(quad) * (co.b2 * q_cand**2 + fin.sigma**2 * pi_cand**2)
        )
        scaled = np.abs(sup) / np.maximum(scale, _TINY)
        sups.append(np.max(scaled, initial=-math.inf))
        gaps.append((gap_q, gap_pi))
    gaps = np.reshape(gaps, (-1, 2))
    return OptimalityResult(
        max_scaled_sup=float(np.max(sups, initial=-math.inf)),
        max_first_order_gap=float(np.max(gaps, initial=0.0)),
        max_cell_distance=float(np.max(gaps / [0.1, 0.15], initial=0.0)),
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
    """The exponent-level residual of the ansatz, g1_dot*w + g2_dot +
    kappa*g1*w + (control terms), is affine in effective wealth: its slope
    is g1_dot + kappa*g1 and its intercept g2_dot plus the control terms.
    Both vanish for the closed forms; ``g1_factor`` != 1 injects a
    multiplicative fault into the wealth-slope value (its analytic
    derivative stays unperturbed), which the slope coefficient must
    detect. Exponential family only."""
    co, fin = params.coeffs, params.financial
    kappa = params.constants.kappa
    g1, g1_dot, g2_dot = _exp_rates(params, gamma, t)
    g1 *= g1_factor
    q_hat, pi_hat = expmod.strategy(params, t)
    control_lin = (pi_hat * (fin.mu - fin.r) + co.a * co.eta + co.a * co.eta2 * q_hat) * g1
    control_quad = 0.5 * (co.b2 * q_hat**2 + fin.sigma**2 * pi_hat**2) * g1**2
    slope = g1_dot + kappa * g1
    intercept = g2_dot + control_lin + control_quad
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
    both from ``solution`` if one is given, else from the closed form; the
    Monte Carlo takes ``solution`` as its strategy source unchanged).

    Pass criterion per gamma: |mc - ansatz| <= 3*SE + FK_DT_COEFF*dt*|ansatz|
    (statistical error plus the weak-order-one discretization allowance)."""
    refs = _ansatz_values(params, solution, 0.0, params.x0, params.m1_0)
    cfg = SimConfig(dt=dt, n_paths=n_paths, seed=seed, strategy=solution)
    est = mc_reward(params, cfg)
    results = []
    for ref, pg in zip(refs, est.per_gamma):
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


def _ansatz_values(params: ModelParams, solution: powmod.OdeSolution | None, t, x, m1) -> list:
    """The per-gamma ansatz at (t, x, m1), read from the family's closed
    form (power: from ``solution`` if one is given)."""
    if params.dist.family == EXPONENTIAL:
        return [expmod.ansatz(params, gamma, t, x, m1) for gamma in params.dist.gammas]
    return [powmod.ansatz(solution, params, i, t, x, m1) for i in range(params.dist.n)]


def perturb_constants(params: ModelParams, name: str, rel: float) -> ModelParams:
    """Copy of params with one derived constant multiplied by (1 + rel).
    The copy deliberately bypasses the solver, for fault-injection tests."""
    if name not in ("A", "B", "C", "kappa"):
        raise ParameterError(f"unknown derived constant {name!r}; expected A, B, C or kappa")
    cons = params.constants
    new = dataclasses.replace(cons, **{name: getattr(cons, name) * (1.0 + rel)})
    return dataclasses.replace(params, constants=new)
