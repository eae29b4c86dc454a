"""Golden regression suite: Tables 1-5 + every figure's data series.

Each exhibit is snapshotted to ``tests/golden/goldens/<name>.json`` and
compared value-by-value against the checked-in golden under a per-cell
relative tolerance.  Regenerate intentionally with::

    pytest tests/golden --update-golden

A mismatch fails with one line per differing cell, naming the exhibit,
row, and column — the point is that an accidental formula change reads
as "table3, row 'Word LM', column 'Params': ..." in CI.
"""

import pytest

from repro.reports import ALL_REPORTS

from ._compare import (
    DEFAULT_REL_TOL,
    diff_exhibit,
    golden_path,
    load_golden,
    save_golden,
    snapshot_exhibit,
)

#: the pinned exhibit set: all five paper tables + all figure data
TABLES = ["table1", "table2", "table3", "table4", "table5"]
FIGURES = ["fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12"]
EXHIBITS = TABLES + FIGURES

#: per-exhibit relative tolerance overrides (default 1e-6).  fig11/12
#: involve fitted-model evaluation, still deterministic — keep tight.
REL_TOL = {}


def _tolerance(name: str) -> float:
    return REL_TOL.get(name, DEFAULT_REL_TOL)


@pytest.mark.parametrize("name", EXHIBITS)
def test_exhibit_matches_golden(name, update_golden):
    report = ALL_REPORTS[name]()
    # CSV cells are plain floats, never NumPy reprs like np.float64(1.0)
    assert "np." not in report.to_csv()
    snapshot = snapshot_exhibit(report)
    if update_golden:
        path = save_golden(name, snapshot)
        pytest.skip(f"golden updated: {path}")
    try:
        golden = load_golden(name)
    except FileNotFoundError:
        pytest.fail(f"no golden for {name!r}; run "
                    f"pytest tests/golden --update-golden")
    diffs = diff_exhibit(name, snapshot, golden,
                         rel_tol=_tolerance(name))
    assert not diffs, (
        f"{len(diffs)} cell(s) differ from {golden_path(name)} "
        f"(rerun with --update-golden if intentional):\n"
        + "\n".join(diffs)
    )


class TestGoldenSetComplete:
    def test_every_paper_table_is_pinned(self):
        paper_tables = [n for n in ALL_REPORTS if n.startswith("table")]
        assert sorted(paper_tables) == sorted(TABLES)

    def test_every_figure_is_pinned(self):
        paper_figures = [n for n in ALL_REPORTS if n.startswith("fig")]
        assert sorted(paper_figures) == sorted(FIGURES)


class TestDiffReadability:
    """The diff must name the exact cell, not dump whole exhibits."""

    def test_perturbed_table_cell_is_located(self):
        golden = load_golden("table1")
        perturbed = load_golden("table1")
        target_row = 1
        row = list(perturbed["rows"][target_row])
        # bump the first numeric cell in the row by 10%
        import re

        for j, cell in enumerate(row):
            match = re.search(r"[-+]?\d+\.?\d*", cell)
            if j > 0 and match:
                value = float(match.group()) * 1.1
                row[j] = cell.replace(match.group(), f"{value:g}", 1)
                column = golden["headers"][j]
                break
        perturbed["rows"][target_row] = row

        diffs = diff_exhibit("table1", perturbed, golden)
        assert len(diffs) == 1
        message = diffs[0]
        row_label = golden["rows"][target_row][0]
        assert "table1" in message
        assert repr(row_label) in message
        assert repr(column) in message
        assert "rel err" in message and "tol" in message

    def test_perturbed_figure_point_is_located(self):
        golden = load_golden("fig7")
        perturbed = load_golden("fig7")
        perturbed["series"][0] = dict(perturbed["series"][0])
        ys = list(perturbed["series"][0]["y"])
        ys[2] *= 1.5
        perturbed["series"][0]["y"] = ys

        diffs = diff_exhibit("fig7", perturbed, golden)
        assert len(diffs) == 1
        label = golden["series"][0]["label"]
        assert repr(label) in diffs[0]
        assert "y[2]" in diffs[0]

    def test_text_change_reported_as_format_diff(self):
        golden = load_golden("table1")
        perturbed = load_golden("table1")
        perturbed["rows"][0] = ["Renamed Domain"] + \
            list(perturbed["rows"][0][1:])
        diffs = diff_exhibit("table1", perturbed, golden)
        assert diffs and "text/format differs" in diffs[0]

    def test_tolerance_absorbs_formatting_jitter(self):
        golden = load_golden("table2")
        assert diff_exhibit("table2", golden, golden) == []
