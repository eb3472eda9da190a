from delaris import sweeps
from delaris.utility import EXPONENTIAL


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
