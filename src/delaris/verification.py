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
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import exponential as expmod
from . import power as powmod
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
class ScalarField:
    """A function of (t, x, m1) with the partial derivatives the generator
    needs. Build analytically or via :meth:`from_function` (central
    differences)."""

    phi: Callable
    phi_t: Callable
    phi_x: Callable
    phi_xx: Callable
    phi_m1: Callable

    @classmethod
    def from_function(cls, phi: Callable, rel_step: float = 1e-5):
        """Finite-difference field: first derivatives by central differences
        with step rel_step*max(1, |coordinate|), second x-derivative with a
        wider step (6e-4 relative) to balance truncation against roundoff."""

        def d1(axis):
            def deriv(t, x, m1):
                up, dn = [t, x, m1], [t, x, m1]
                step = rel_step * max(1.0, abs(up[axis]))
                up[axis] += step
                dn[axis] -= step
                return (phi(*up) - phi(*dn)) / (2.0 * step)

            return deriv

        def d2x(t, x, m1):
            step = 6e-4 * max(1.0, abs(x))
            return (phi(t, x + step, m1) - 2.0 * phi(t, x, m1) + phi(t, x - step, m1)) / step**2

        return cls(phi=phi, phi_t=d1(0), phi_x=d1(1), phi_xx=d2x, phi_m1=d1(2))


def generator_terms(
    field: ScalarField,
    params: ModelParams,
    t: float,
    x: float,
    m1: float,
    m2: float,
    q: float,
    pi_x: float,
) -> tuple[float, float, float, float]:
    """The four summands of the controlled generator applied to the field:
    time derivative, wealth drift, diffusion, and memory flow. pi_x is the
    invested amount."""
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
    return (
        field.phi_t(t, x, m1),
        drift * field.phi_x(t, x, m1),
        diff * field.phi_xx(t, x, m1),
        mem * field.phi_m1(t, x, m1),
    )


# ---------------------------------------------------------------- fields


def exp_ansatz_field(params: ModelParams, gamma: float) -> ScalarField:
    """Analytic per-gamma ansatz field for the exponential family."""
    beta = params.delay.beta
    kappa = params.constants.kappa
    co = params.coeffs

    def phi(t, x, m1):
        return expmod.ansatz(params, gamma, t, x, m1)

    def phi_t(t, x, m1):
        w = x + beta * m1
        g1 = expmod.exponent_slope(params, gamma, t)
        g1_dot = -kappa * g1
        g2_dot = gamma * co.a * co.eta * math.exp(
            kappa * (params.horizon - t)
        ) + expmod.drift_adjustment(params, gamma)
        return phi(t, x, m1) * (g1_dot * w + g2_dot)

    def phi_x(t, x, m1):
        return expmod.exponent_slope(params, gamma, t) * phi(t, x, m1)

    def phi_xx(t, x, m1):
        return expmod.exponent_slope(params, gamma, t) ** 2 * phi(t, x, m1)

    def phi_m1(t, x, m1):
        return beta * expmod.exponent_slope(params, gamma, t) * phi(t, x, m1)

    return ScalarField(phi=phi, phi_t=phi_t, phi_x=phi_x, phi_xx=phi_xx, phi_m1=phi_m1)


def exp_value_field(params: ModelParams) -> ScalarField:
    """Analytic aggregated-value field for the exponential family."""
    beta = params.delay.beta
    kappa = params.constants.kappa
    co, fin = params.coeffs, params.financial
    e_gamma = params.mean_gamma
    g_const = ((fin.mu - fin.r) ** 2 / fin.sigma**2 + (co.a * co.eta2) ** 2 / co.b2) / e_gamma

    def phi(t, x, m1):
        return expmod.value(params, t, x, m1)

    def phi_t(t, x, m1):
        w = x + beta * m1
        e = math.exp(kappa * (params.horizon - t))
        return -kappa * w * e - co.a * co.eta * e - 0.5 * g_const

    def phi_x(t, x, m1):
        return math.exp(kappa * (params.horizon - t))

    def phi_xx(t, x, m1):
        return 0.0

    def phi_m1(t, x, m1):
        return beta * math.exp(kappa * (params.horizon - t))

    return ScalarField(phi=phi, phi_t=phi_t, phi_x=phi_x, phi_xx=phi_xx, phi_m1=phi_m1)


def power_ansatz_field(sol: powmod.OdeSolution, params: ModelParams, i: int) -> ScalarField:
    """Analytic per-gamma ansatz field for the power family; the time
    derivative uses the ODE right-hand side on the interpolated factors."""
    beta = params.delay.beta
    gam = sol.gammas[i]

    def parts(t):
        g = powmod.g_at(sol, t)[i]
        gdot = powmod.growth_rate(sol, params, t)[i]
        return g, gdot

    def phi(t, x, m1):
        return powmod.ansatz(sol, params, i, t, x, m1)

    def phi_t(t, x, m1):
        w = x + beta * m1
        g, gdot = parts(t)
        return gam * g ** (gam - 1.0) * gdot * w ** (1.0 - gam) / (1.0 - gam)

    def phi_x(t, x, m1):
        w = x + beta * m1
        g, _ = parts(t)
        return g**gam * w**(-gam)

    def phi_xx(t, x, m1):
        w = x + beta * m1
        g, _ = parts(t)
        return -gam * g**gam * w**(-gam - 1.0)

    def phi_m1(t, x, m1):
        return beta * phi_x(t, x, m1)

    return ScalarField(phi=phi, phi_t=phi_t, phi_x=phi_x, phi_xx=phi_xx, phi_m1=phi_m1)


def power_value_field(sol: powmod.OdeSolution, params: ModelParams) -> ScalarField:
    """Analytic aggregated-value field for the power family (linear in w)."""
    beta = params.delay.beta
    gam = np.asarray(sol.gammas)
    p = np.asarray(sol.probs)
    c = gam / (1.0 - gam)

    def factor_and_rate(t):
        g = powmod.g_at(sol, t)
        gdot = powmod.growth_rate(sol, params, t)
        gc = np.exp(c * np.log(g))
        factor = float(gc @ p)
        rate = float((c * gc / g * gdot) @ p)
        return factor, rate

    def phi(t, x, m1):
        return (x + beta * m1) * factor_and_rate(t)[0]

    def phi_t(t, x, m1):
        return (x + beta * m1) * factor_and_rate(t)[1]

    def phi_x(t, x, m1):
        return factor_and_rate(t)[0]

    def phi_xx(t, x, m1):
        return 0.0

    def phi_m1(t, x, m1):
        return beta * factor_and_rate(t)[0]

    return ScalarField(phi=phi, phi_t=phi_t, phi_x=phi_x, phi_xx=phi_xx, phi_m1=phi_m1)


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
    def max_abs(self) -> float:
        return float(self.residual.max())

    @property
    def max_scaled(self) -> float:
        return float(self.scaled.max())

    @property
    def rms_scaled(self) -> float:
        return float(np.sqrt(np.mean(self.scaled**2)))


def _equilibrium_controls(params, solution):
    if params.dist.family == EXPONENTIAL:
        return lambda t, x, m1: expmod.strategy(params, t)
    if solution is None:
        raise ParameterError("power-family verification needs the solved factor grid")
    return lambda t, x, m1: powmod.strategy(solution, params, t, x, m1)


def _family_fields(params, solution):
    if params.dist.family == EXPONENTIAL:
        return [exp_ansatz_field(params, g) for g in params.dist.gammas]
    return [power_ansatz_field(solution, params, i) for i in range(len(params.dist.gammas))]


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
    controls = _equilibrium_controls(params, solution)
    fields = _family_fields(params, solution)
    t_vals = np.asarray(t_vals, dtype=float)
    x_vals = np.asarray(x_vals, dtype=float)
    m1_vals = np.asarray(m1_vals, dtype=float)
    shape = (len(fields), len(t_vals), len(x_vals), len(m1_vals))
    residual = np.empty(shape)
    scaled = np.empty(shape)
    for a, t in enumerate(t_vals):
        for b, x in enumerate(x_vals):
            for c, m1 in enumerate(m1_vals):
                q, pi_x = controls(t, x, m1)
                for i, field in enumerate(fields):
                    terms = generator_terms(field, params, t, x, m1, m2, q, pi_x)
                    res = abs(math.fsum(terms))
                    scale = sum(abs(v) for v in terms)
                    residual[i, a, b, c] = res
                    scaled[i, a, b, c] = res / max(scale, _TINY)
    return ResidualGrid(
        t_vals=t_vals,
        x_vals=x_vals,
        m1_vals=m1_vals,
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


def optimality_residual(
    params: ModelParams,
    t_vals: Sequence[float],
    x_vals: Sequence[float],
    m1_vals: Sequence[float],
    m2: float = 0.6,
    solution: powmod.OdeSolution | None = None,
    n_mesh: int = 41,
) -> OptimalityResult:
    """Sweep the control objective

        generator(U; q, pi) - 0.5*(b^2 q^2 + sigma^2 pi^2) *
            sum_i p_i * d2(u_i^{-1})(Y_i) * (dY_i/dx)^2

    over a coarse global grid q in [0, 4*q_cand], pi in [-2, 4]*pi_cand plus
    a multiplicatively refined local grid around the closed-form candidate.
    The sup must vanish (scaled) and the argmax must land within one coarse
    cell of the candidate."""
    family = params.dist.family
    controls = _equilibrium_controls(params, solution)
    fields = _family_fields(params, solution)
    if family == EXPONENTIAL:
        u_field = exp_value_field(params)
    else:
        u_field = power_value_field(solution, params)
    co, fin, cons, delay = params.coeffs, params.financial, params.constants, params.delay
    probs = params.dist.probs
    gammas = params.dist.gammas

    worst_sup = -math.inf
    worst_dist = 0.0
    concave = True
    offsets = np.array(
        [0.0, 1e-5, -1e-5, 1e-4, -1e-4, 1e-3, -1e-3, 1e-2, -1e-2, 0.1, -0.1]
    )
    for t in np.asarray(t_vals, dtype=float):
        for x in np.asarray(x_vals, dtype=float):
            for m1 in np.asarray(m1_vals, dtype=float):
                q_cand, pi_cand = controls(t, x, m1)
                u_t = u_field.phi_t(t, x, m1)
                u_x = u_field.phi_x(t, x, m1)
                u_xx = u_field.phi_xx(t, x, m1)
                u_m1 = u_field.phi_m1(t, x, m1)
                penalty = 0.0
                for i, field in enumerate(fields):
                    y = field.phi(t, x, m1)
                    yx = field.phi_x(t, x, m1)
                    penalty += probs[i] * inverse_utility_d2(family, gammas[i], y) * yx * yx
                quad = 0.5 * (u_xx - penalty)
                if quad >= 0.0:
                    concave = False
                base = (
                    u_t
                    + (cons.A * x + cons.B * m1 + cons.C * m2 + co.a * co.eta) * u_x
                    + (x - delay.alpha * m1 - math.exp(-delay.alpha * delay.h) * m2) * u_m1
                )
                cq = co.a * co.eta2 * u_x
                cpi = (fin.mu - fin.r) * u_x

                q_grid = np.linspace(0.0, 4.0 * q_cand, n_mesh)
                pi_grid = np.linspace(-2.0 * abs(pi_cand), 4.0 * abs(pi_cand), n_mesh)
                cell_q = q_grid[1] - q_grid[0]
                cell_pi = pi_grid[1] - pi_grid[0]
                q_all = np.concatenate([q_grid, q_cand * (1.0 + offsets)])
                pi_all = np.concatenate([pi_grid, pi_cand * (1.0 + offsets)])
                qq, pp = np.meshgrid(q_all, pi_all, indexing="ij")
                vals = base + cq * qq + cpi * pp + quad * (co.b2 * qq**2 + fin.sigma**2 * pp**2)
                flat = np.argmax(vals)
                q_star = qq.flat[flat]
                pi_star = pp.flat[flat]
                sup = float(vals.flat[flat])

                scale = (
                    abs(u_t)
                    + abs(base - u_t)
                    + abs(cq * q_cand)
                    + abs(cpi * pi_cand)
                    + abs(quad) * (co.b2 * q_cand**2 + fin.sigma**2 * pi_cand**2)
                )
                worst_sup = max(worst_sup, abs(sup) / max(scale, _TINY))
                worst_dist = max(
                    worst_dist,
                    abs(q_star - q_cand) / cell_q,
                    abs(pi_star - pi_cand) / cell_pi,
                )
    n_nodes = len(t_vals) * len(x_vals) * len(m1_vals)
    return OptimalityResult(
        max_scaled_sup=worst_sup,
        max_cell_distance=worst_dist,
        concave=concave,
        n_nodes=n_nodes,
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
    w_pair: tuple[float, float] = (0.5, 1.5),
    g1_factor: float = 1.0,
) -> CoefficientSplit:
    """Evaluate the exponent-level residual at two effective-wealth values
    and split it into slope and intercept. Both vanish for the closed
    forms; ``g1_factor`` != 1 injects a multiplicative fault into the
    wealth-slope value (its analytic derivative stays unperturbed), which
    the slope coefficient must detect."""
    if params.dist.family != EXPONENTIAL:
        raise ParameterError("coefficient split applies to the exponential family")
    co, fin, cons = params.coeffs, params.financial, params.constants
    kappa = cons.kappa
    g1 = expmod.exponent_slope(params, gamma, t) * g1_factor
    g1_dot = -kappa * expmod.exponent_slope(params, gamma, t)
    g2_dot = gamma * co.a * co.eta * math.exp(
        kappa * (params.horizon - t)
    ) + expmod.drift_adjustment(params, gamma)
    q_hat, pi_hat = expmod.strategy(params, t)
    control_lin = (pi_hat * (fin.mu - fin.r) + co.a * co.eta + co.a * co.eta2 * q_hat) * g1
    control_quad = 0.5 * (co.b2 * q_hat**2 + fin.sigma**2 * pi_hat**2) * g1**2

    def residual(w):
        return g1_dot * w + g2_dot + kappa * w * g1 + control_lin + control_quad

    w1, w2 = w_pair
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
    dt_coeff: float = FK_DT_COEFF,
) -> FkReport:
    """Monte Carlo check that the per-gamma ansatz at (0, x0, m1_0) equals
    the expected terminal utility under the equilibrium strategy.

    Pass criterion per gamma: |mc - ansatz| <= 3*SE + dt_coeff*dt*|ansatz|
    (statistical error plus the weak-order-one discretization allowance)."""
    family = params.dist.family
    if family == EXPONENTIAL:
        strategy = EXPONENTIAL
        refs = [
            expmod.ansatz(params, g, 0.0, params.x0, params.m1_0) for g in params.dist.gammas
        ]
    else:
        if solution is None:
            raise ParameterError("power-family Feynman-Kac check needs the solved factor grid")
        strategy = solution
        refs = [
            powmod.ansatz(solution, params, i, 0.0, params.x0, params.m1_0)
            for i in range(len(params.dist.gammas))
        ]
    cfg = SimConfig(dt=dt, n_paths=n_paths, seed=seed, strategy=strategy)
    est = mc_reward(params, cfg)
    results = []
    for ref, pg in zip(refs, est.per_gamma):
        diff = abs(pg.y_mean - ref)
        tol = 3.0 * pg.y_se + dt_coeff * dt * abs(ref)
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
    family = params.dist.family
    if family == EXPONENTIAL:
        h = math.fsum(
            p * inverse_utility(family, g, expmod.ansatz(params, g, t, x, m1))
            for g, p in params.dist.points
        )
        return h, expmod.value(params, t, x, m1)
    if solution is None:
        raise ParameterError("power-family identity needs the solved factor grid")
    h = math.fsum(
        p * inverse_utility(family, g, powmod.ansatz(solution, params, i, t, x, m1))
        for i, (g, p) in enumerate(params.dist.points)
    )
    return h, powmod.value(solution, params, t, x, m1)


def perturb_constants(params: ModelParams, name: str, rel: float) -> ModelParams:
    """Copy of params with one derived constant multiplied by (1 + rel).
    The copy deliberately bypasses the solver, for fault-injection tests."""
    if name not in ("A", "B", "C", "kappa"):
        raise ParameterError(f"unknown derived constant {name!r}; expected A, B, C or kappa")
    cons = params.constants
    new = dataclasses.replace(cons, **{name: getattr(cons, name) * (1.0 + rel)})
    return dataclasses.replace(params, constants=new)
