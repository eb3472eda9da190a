import numpy as np
import pytest

from delaris import power as powmod
from delaris import sweeps
from delaris.exceptions import DelarisError
from delaris.utility import EXPONENTIAL, POWER
from helpers import levered, random_power_models


def test_figure_table_stems_unique():
    stems = [row[0] for row in sweeps.FIGURE_TABLE]
    assert len(stems) == len(set(stems)) == 29


def test_figure_data_family_filter():
    panels = sweeps.figure_data(points=3, families=(EXPONENTIAL,))
    assert list(panels) == [f"fig1_{s}" for s in "abcdef"]
    for stem, panel in panels.items():
        metric = "q_hat_0" if stem in ("fig1_a", "fig1_b", "fig1_c") else "pi_0"
        cols = [f"{metric}_case_I", f"{metric}_case_II"]
        assert list(panel["columns"]) == cols
        assert [c[1] for c in panel["claims"][:2]] == cols
        assert panel["claims"][-1] == ("below", *cols)
        assert len(panel["values"]) == 3 and panel["valid"].all()


def test_figure_data_matches_run_sweep():
    # each panel is the sweep run on its own
    panels = sweeps.figure_data(points=3)
    assert len(panels) == 29
    for stem, family, param, metric, cases, _ in sweeps.FIGURE_TABLE:
        panel = panels[stem]
        for case in cases:
            res = sweeps.run_sweep(sweeps.baseline_params(family, case), param, points=3)
            col = res.q0 if metric == "q_hat_0" else res.pi0
            np.testing.assert_array_equal(panel["columns"][f"{metric}_case_{case}"], col)
            if case == cases[0]:
                np.testing.assert_array_equal(panel["values"], res.values)
                assert panel["valid"].all() and panel["reasons"] == res.reasons


def _mpmath_varpi0(params):
    """varpi(0) = Phi(A(T)) from a 30-digit Newton root of
    int_0^A Phi(a)^2 da = T, started at the package's double-precision root."""
    mpmath = pytest.importorskip("mpmath")
    co, fin = params.coeffs, params.financial
    gam_f, p_f = np.array(params.dist.gammas), np.array(params.dist.probs)
    g2c_f = (fin.mu - fin.r) ** 2 / fin.sigma**2 + (co.a * co.eta2) ** 2 / co.b2
    target = g2c_f * params.horizon  # the package solves on s = G2*a
    start = powmod._area(np.array([target]), *powmod._panels(target, gam_f, p_f),
                         gam_f, p_f)[0] / g2c_f
    with mpmath.workdps(30):
        g2c = (mpmath.mpf(fin.mu) - fin.r) ** 2 / mpmath.mpf(fin.sigma) ** 2 \
            + (mpmath.mpf(co.a) * co.eta2) ** 2 / co.b2
        gam, p = [mpmath.mpf(g) for g in gam_f], [mpmath.mpf(q) for q in p_f]

        def phi(a):
            e = [pi * mpmath.exp(-(gi - gam[0]) * g2c * a / 2) for gi, pi in zip(gam, p)]
            return mpmath.fsum(gi * ei for gi, ei in zip(gam, e)) / mpmath.fsum(e)

        turn = 160 / (g2c * (gam[1] - gam[0]))  # past it Phi is gamma_min to 30 digits

        def f(a):
            edge = min(a, turn)
            tail = gam[0] ** 2 * (a - turn) if a > turn else 0
            return mpmath.quad(lambda x: phi(x) ** 2, [edge * k / 20 for k in range(21)],
                               method="gauss-legendre") \
                + tail - params.horizon

        a = mpmath.findroot(f, mpmath.mpf(start), solver="newton", df=lambda x: phi(x) ** 2)
        return float(phi(a))


def test_power_sweep_rows_mix_valid_and_rejected():
    # a point whose model is rejected keeps its reason; every other point is
    # valid, including those whose factors overflow before t = 0, since the
    # time-zero controls read only varpi(0)
    base = sweeps.baseline_params(POWER, "I")
    for model, lo, points in ((levered(base, 1e-3), 0.05, 8), (levered(base), 0.1, 4)):
        res = sweeps.run_sweep(model, "mu", points=points, lo=lo, hi=0.4)
        rejected = lo < model.financial.r
        assert res.reasons == (
            ("financial.mu must be finite and >= r (got mu=0.05, r=0.1)",) if rejected else ()
        ) + ("",) * (points - rejected)
        assert res.valid.tolist() == [not rejected] * rejected + [True] * (points - rejected)
        assert np.isnan(res.q0[~res.valid]).all() and np.isnan(res.pi0[~res.valid]).all()
        for v, q in zip(res.values[res.valid], res.q0[res.valid]):
            params = sweeps.apply_param(model, "mu", float(v))
            co, w0 = params.coeffs, params.x0 + params.delay.beta * params.m1_0
            varpi = co.a * co.eta2 * w0 / (co.b2 * q)
            assert varpi == pytest.approx(_mpmath_varpi0(params), rel=1e-13, abs=0.0)


def test_sweep_cells_equal_one_model_solves(pow_case1):
    # a sweep solves its power points in one batch; each cell is still the
    # one-model initial_strategy bit for bit, and a rejected point keeps its
    # own reason (mu below a random r)
    for base in random_power_models(40, seed=4242, base=pow_case1):
        for param in ("mu", "sigma", "eta2", "beta"):
            res = sweeps.run_sweep(base, param, points=5)
            for v, q0, pi0, ok, reason in zip(res.values, res.q0, res.pi0, res.valid, res.reasons):
                if not ok:
                    with pytest.raises(DelarisError) as err:
                        sweeps.apply_param(base, param, float(v))
                    assert reason == str(err.value)
                    continue
                params = sweeps.apply_param(base, param, float(v))
                q, amount = powmod.initial_strategy(params)
                assert (q0, pi0) == (q, amount / params.x0)
