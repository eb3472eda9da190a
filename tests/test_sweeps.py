import tracemalloc

import numpy as np

from delaris import sweeps
from delaris.utility import EXPONENTIAL, POWER
from helpers import levered


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
    # figure_data marches the points of all its sweeps together; each
    # panel must still be the sweep run on its own
    panels = sweeps.figure_data(points=3, power_dt=0.04)
    assert len(panels) == 29
    for stem, family, param, metric, cases, _ in sweeps.FIGURE_TABLE:
        panel = panels[stem]
        for case in cases:
            res = sweeps.run_sweep(sweeps.baseline_params(family, case), case, param,
                                   points=3, power_dt=0.04)
            col = res.q0 if metric == "q_hat_0" else res.pi0
            np.testing.assert_array_equal(panel["columns"][f"{metric}_case_{case}"], col)
            if case == cases[0]:
                np.testing.assert_array_equal(panel["values"], res.values)
                assert panel["valid"].all() and panel["reasons"] == res.reasons


def _exploded(t):
    return f"t=0.0 outside the valid range [{t}, 2.0] (solution flagged as exploded at t={t})"


def test_power_sweep_rows_mix_valid_exploded_and_rejected():
    # one batched march holds valid and exploding rows; a point whose model
    # is rejected never reaches it. The pinned texts and values are those of
    # one solve per point.
    base = sweeps.baseline_params(POWER, "I")
    res = sweeps.run_sweep(levered(base, 1e-3), "I", "mu", points=8, lo=0.05, hi=0.4)
    assert res.reasons == (
        "financial.mu must be finite and >= r (got mu=0.05, r=0.1)",
        "", "", "", "",
        _exploded(0.246), _exploded(0.7689999999999999), _exploded(1.099),
    )
    assert res.valid.tolist() == [False, True, True, True, True, False, False, False]
    assert res.q0[1:5].tolist() == [0.2145616109367753, 0.21806588543409683,
                                    0.23011754304327486, 0.25769130091617504]
    assert res.pi0[1:5].tolist() == [0.0, 0.3365214281390384, 0.7102393303804782,
                                     1.1930152820193287]
    assert np.isnan(res.q0[~res.valid]).all() and np.isnan(res.pi0[~res.valid]).all()
    res = sweeps.run_sweep(levered(base), "I", "mu", points=4, lo=0.1, hi=0.4)
    assert res.reasons == (_exploded(1.3679999999999999), _exploded(1.589),
                           _exploded(1.786), _exploded(1.8639999999999999))


def test_power_sweep_memory_flat_in_dt():
    # the sweep keeps each point's current factors only, not its history
    base = sweeps.baseline_params(POWER, "I")

    def peak(divisor):
        tracemalloc.start()
        try:
            sweeps.run_sweep(base, "I", "r", points=2, power_dt=base.horizon / divisor)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(20000) <= 2 * peak(2000)
