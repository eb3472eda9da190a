"""The benchmark's own model formulas, written from the model equations and
independent of the package under test.

- Exponential family: closed-form controls, per-gamma expected utility and
  aggregated certainty equivalent.
- Power family: the growth-factor system integrated with RK4 in log
  coordinates, batched over parameter sets. It is used only by
  ``make_reference.py`` to freeze ``reference.json``.

A parameter set is a plain dict with the keys of ``BASELINE`` (plus the
risk-aversion atoms ``gammas``/``probs``).
"""

from __future__ import annotations

import math

import numpy as np

BASELINE = {
    "lambda1": 1.0, "mu1": 0.1, "mu2": 0.2, "eta1": 0.3, "eta2": 0.5,
    "r": 0.1, "mu": 0.2, "sigma": 0.6,
    "alpha": 0.5, "beta": 0.05, "h": 2.0,
    "horizon": 2.0, "x0": 0.6,
}
CASES = {"I": ((0.5, 0.9), (0.5, 0.5)), "II": ((0.5, 0.9), (0.8, 0.2))}


def baseline(family: str, case: str) -> dict:
    """The bundled baseline model; the power family uses equal loadings."""
    m = dict(BASELINE)
    if family == "power":
        m["eta2"] = m["eta1"]
    m["gammas"], m["probs"] = CASES[case]
    return m


def with_param(m: dict, family: str, name: str, value: float) -> dict:
    """One primitive changed; a power-family eta2 co-moves eta1."""
    out = dict(m, **{name: value})
    if family == "power" and name == "eta2":
        out["eta1"] = value
    return out


def kappa(m: dict) -> float:
    e = math.exp(-m["alpha"] * m["h"])
    return m["r"] - m["beta"] / (1.0 + m["beta"]) * (m["r"] + m["alpha"] + e - 1.0)


def m1_0(m: dict) -> float:
    return m["x0"] * (1.0 - math.exp(-m["alpha"] * m["h"])) / m["alpha"]


def w0(m: dict) -> float:
    return m["x0"] + m["beta"] * m1_0(m)


def _a_b2(m: dict) -> tuple[float, float]:
    return m["lambda1"] * m["mu1"], m["lambda1"] * m["mu2"]


def g2(m: dict) -> float:
    """(mu-r)^2/sigma^2 + (a*eta2)^2/b^2."""
    a, b2 = _a_b2(m)
    return (m["mu"] - m["r"]) ** 2 / m["sigma"] ** 2 + (a * m["eta2"]) ** 2 / b2


def control_coeffs(m: dict, aggregate: float) -> tuple[float, float]:
    """(a*eta2/(b^2*agg), (mu-r)/(sigma^2*agg)): the two controls before
    the time decay (exponential) or the effective-wealth factor (power)."""
    a, b2 = _a_b2(m)
    return a * m["eta2"] / (b2 * aggregate), (m["mu"] - m["r"]) / (m["sigma"] ** 2 * aggregate)


def mean_gamma(m: dict) -> float:
    return math.fsum(g * p for g, p in zip(m["gammas"], m["probs"]))


def exp_controls(m: dict, t):
    """Exponential-family (q, pi_amount) at time(s) t."""
    decay = np.exp(-kappa(m) * (m["horizon"] - np.asarray(t, dtype=float)))
    q, pi = control_coeffs(m, mean_gamma(m))
    return q * decay, pi * decay


def exp_expected_utility(m: dict, gamma: float) -> float:
    """E[-exp(-gamma*w_T)/gamma] from (0, x0, m1_0) under the equilibrium."""
    a, _ = _a_b2(m)
    k, tau, eg = kappa(m), m["horizon"], mean_gamma(m)
    f = g2(m)
    drift = gamma * f / eg - 0.5 * gamma**2 * f / eg**2
    offset = -gamma * a * (m["eta1"] - m["eta2"]) * math.expm1(k * tau) / k - drift * tau
    return -math.exp(-gamma * math.exp(k * tau) * w0(m) + offset) / gamma


def exp_value(m: dict) -> float:
    """Aggregated certainty equivalent at (0, x0, m1_0)."""
    a, _ = _a_b2(m)
    k, tau = kappa(m), m["horizon"]
    return (w0(m) * math.exp(k * tau) + a * (m["eta1"] - m["eta2"]) * math.expm1(k * tau) / k
            + 0.5 * g2(m) / mean_gamma(m) * tau)


def power_expected_utility(m: dict, g0: float, i: int) -> float:
    """g_i(0)^gamma_i * w0^(1-gamma_i) / (1-gamma_i)."""
    gam = m["gammas"][i]
    return g0**gam * w0(m) ** (1.0 - gam) / (1.0 - gam)


def power_factors(models: list[dict], n_steps: int, n_out: int):
    """Integrate every model's growth-factor system backward from the horizon.

    Works in y = log g with dy/dtau = (1-gamma)/gamma * (kappa + G2/varpi
    - 0.5*gamma*G2/varpi^2), tau = T - t, classical RK4 with ``n_steps``
    steps. All models must share the horizon and the number of atoms.
    Returns (varpi, log_g) sampled at t = k*T/n_out for k = 0..n_out, with
    shapes (n_out+1, B) and (n_out+1, B, n_atoms).
    """
    if n_steps % n_out:
        raise ValueError("n_out must divide n_steps")
    horizon = models[0]["horizon"]
    gam = np.array([m["gammas"] for m in models])
    p = np.array([m["probs"] for m in models])
    kap = np.array([kappa(m) for m in models])[:, None]
    g2c = np.array([g2(m) for m in models])[:, None]
    c = gam / (1.0 - gam)

    def varpi(y):
        lw = c * y + np.log(p)
        w = np.exp(lw - lw.max(axis=1, keepdims=True))
        return (w * gam).sum(axis=1, keepdims=True) / w.sum(axis=1, keepdims=True)

    def rate(y):
        v = varpi(y)
        return (1.0 - gam) / gam * (kap + g2c / v - 0.5 * gam * g2c / v**2)

    dtau = horizon / n_steps
    y = np.zeros_like(gam)
    ys = [y]
    stride = n_steps // n_out
    for k in range(1, n_steps + 1):
        k1 = rate(y)
        k2 = rate(y + 0.5 * dtau * k1)
        k3 = rate(y + 0.5 * dtau * k2)
        k4 = rate(y + dtau * k3)
        y = y + dtau / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if k % stride == 0:
            ys.append(y)
    log_g = np.array(ys[::-1])  # ascending t
    return np.array([varpi(row)[:, 0] for row in log_g]), log_g
