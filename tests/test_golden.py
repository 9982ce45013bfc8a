"""Golden outputs checked in under tests/data: sweeps reproduce the CSVs row
by row, and the fig2 chart byte for byte.

- fig2.csv: `fdcran sweep --preset fig2`;
- fig2.svg: `fdcran sweep --preset fig2 --svg`, the chart of fig2.csv;
- fig3_verify.csv: `fdcran sweep --preset fig3 --verify`, with the oracle
  columns;
- hd_cran_alpha.csv: hd_cran over alpha = 0, 0.005, ..., 0.495 at the default
  base point, which covers the zero-forcing constants up to the singularity.

The CSVs keep nine significant digits (every rate here is below 10, so each
value is exact to 5e-9).  Only the rates and oracle values are compared: the
power argmax of a row on a fronthaul-cap plateau may tie-break differently on
another numpy without changing any rate."""

from pathlib import Path

import pytest

from fdcran.model import SchemeId
from fdcran.svg import emit_svg
from fdcran.sweep import SweepSpec, load_csv, preset_spec, run_sweep

DATA = Path(__file__).parent / "data"
RATES = ("r_u", "r_d", "r_eq")


def _assert_rows_match(rows, golden_csv, columns=RATES):
    golden = load_csv(DATA / golden_csv)
    assert [r.scheme for r in rows] == [g.scheme for g in golden]
    assert [r.value for r in rows] == pytest.approx([g.value for g in golden], rel=0.0, abs=1e-12)
    for row, want in zip(rows, golden):
        for name in columns:
            got, expected = getattr(row, name), getattr(want, name)
            where = (row.value, row.scheme, name)
            if expected is None:
                assert got is None, where
            else:
                assert got == pytest.approx(expected, rel=0.0, abs=1e-8), where


@pytest.fixture(scope="module")
def fig2_rows():
    return run_sweep(preset_spec("fig2"))


def test_fig2_rates_match_the_golden_csv(fig2_rows):
    _assert_rows_match(fig2_rows, "fig2.csv")


def test_fig2_chart_matches_the_golden_svg(fig2_rows, tmp_path):
    out = tmp_path / "fig2.svg"
    emit_svg(fig2_rows, out)
    assert out.read_bytes() == (DATA / "fig2.svg").read_bytes()


def test_fig3_verify_rates_and_oracles_match_the_golden_csv(fig3_verify_rows):
    _assert_rows_match(fig3_verify_rows, "fig3_verify.csv", RATES + ("oracle_r_u", "oracle_r_eq"))


def test_hd_cran_alpha_sweep_matches_the_golden_csv():
    spec = SweepSpec(
        sweep_var="alpha", start=0.0, stop=0.495, step=0.005, schemes=(SchemeId.HD_CRAN,)
    )
    _assert_rows_match(run_sweep(spec), "hd_cran_alpha.csv")
