"""Golden rates: the fig2 preset reproduces tests/data/fig2.csv, the output
of `fdcran sweep --preset fig2`, row by row.

The CSV keeps nine significant digits (every fig2 rate is below 10, so each
value is exact to 5e-9).  Only the rates are compared: the power argmax of a
row on a fronthaul-cap plateau may tie-break differently on another numpy
without changing any rate."""

from pathlib import Path

import pytest

from fdcran.sweep import load_csv, preset_spec, run_sweep

GOLDEN = Path(__file__).parent / "data" / "fig2.csv"


def test_fig2_rates_match_the_golden_csv():
    golden = load_csv(GOLDEN)
    rows = run_sweep(preset_spec("fig2"))
    assert [(r.value, r.scheme) for r in rows] == [(g.value, g.scheme) for g in golden]
    for row, want in zip(rows, golden):
        for name in ("r_u", "r_d", "r_eq"):
            got = getattr(row, name)
            assert got == pytest.approx(getattr(want, name), abs=1e-8), (row.value, row.scheme, name)
