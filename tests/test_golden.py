"""Golden outputs checked in under tests/data: sweeps reproduce the CSVs row
by row, and the charts byte for byte.

- fig2.csv: `fdcran sweep --preset fig2`;
- fig2.svg: `fdcran sweep --preset fig2 --svg`, the chart of fig2.csv;
- fig3_verify.csv: `fdcran sweep --preset fig3 --verify`, with the oracle
  columns;
- fig3.svg: `fdcran sweep --preset fig3 --svg`, six schemes over gamma_ud = 0,
  0.25, ..., 8 (the oracle columns do not change the chart);
- hd_cran_alpha.csv: hd_cran over alpha = 0, 0.005, ..., 0.495 at the default
  base point, which covers the zero-forcing constants up to the singularity;
- p_db_joint.csv and .svg: all six schemes over joint budgets of -10, 144,
  ..., 3070 dB at c_u = c_d = 2000, whose top budgets scale each point's unit
  of power (rates._unit);
- hd_cucd.csv and .svg: hd_scp and hd_cran over c_u = c_d = 0, 0.1, ..., 12,
  a half-duplex sweep of two blocks, whose rows at 0 have no time split;
- one_value.svg: all six schemes at c_u = c_d = 0 alone, every rate 0, so the
  chart widens its x axis by 0.5 each side, runs its y axis to 1.05e-9 and
  draws six markers and no polyline.

The CSVs keep nine significant digits, so each value is exact to 5e-9 of
itself, and to 5e-9 absolute below 10, where every rate of the other CSVs is.
Only the rates and oracle values are compared: the power argmax of a row on a
fronthaul-cap plateau may tie-break differently on another numpy without
changing any rate."""

from pathlib import Path

import pytest

from fdcran.config import SweepBase, SweepSpec, preset_spec
from fdcran.model import SchemeId
from fdcran.svg import emit_svg
from fdcran.sweep import run_sweep

from sweep_io import load_csv

DATA = Path(__file__).parent / "data"
RATES = ("r_u", "r_d", "r_eq")


def _assert_rows_match(rows, golden_csv, columns=RATES, rel=0.0):
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
                assert got == pytest.approx(expected, rel=rel, abs=1e-8), where


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


def test_fig3_chart_matches_the_golden_svg(fig3_verify_rows, tmp_path):
    out = tmp_path / "fig3.svg"
    emit_svg(fig3_verify_rows, out)
    assert out.read_bytes() == (DATA / "fig3.svg").read_bytes()


def test_one_value_chart_matches_the_golden_svg(tmp_path):
    spec = SweepSpec(sweep_var="c_u_c_d_joint", start=0.0, stop=0.0, step=1.0)
    rows = run_sweep(spec)
    assert [row.r_eq for row in rows] == [0.0] * len(SchemeId)
    out = tmp_path / "one_value.svg"
    emit_svg(rows, out)
    assert out.read_bytes() == (DATA / "one_value.svg").read_bytes()


def test_hd_cran_alpha_sweep_matches_the_golden_csv():
    spec = SweepSpec(
        sweep_var="alpha", start=0.0, stop=0.495, step=0.005, schemes=(SchemeId.HD_CRAN,)
    )
    _assert_rows_match(run_sweep(spec), "hd_cran_alpha.csv")


def test_p_db_joint_sweep_matches_the_golden_csv_and_svg(tmp_path):
    spec = SweepSpec(
        base=SweepBase(c_u=2000.0, c_d=2000.0), sweep_var="p_db_joint",
        start=-10.0, stop=3070.0, step=154.0,
    )
    rows = run_sweep(spec)
    _assert_rows_match(rows, "p_db_joint.csv", rel=5e-9)
    out = tmp_path / "p_db_joint.svg"
    emit_svg(rows, out)
    assert out.read_bytes() == (DATA / "p_db_joint.svg").read_bytes()


def test_hd_cucd_sweep_matches_the_golden_csv_and_svg(tmp_path):
    spec = SweepSpec(
        sweep_var="c_u_c_d_joint", start=0.0, stop=12.0, step=0.1,
        schemes=(SchemeId.HD_SCP, SchemeId.HD_CRAN),
    )
    rows = run_sweep(spec)
    _assert_rows_match(rows, "hd_cucd.csv", RATES + ("f_star",))
    out = tmp_path / "hd_cucd.svg"
    emit_svg(rows, out)
    assert out.read_bytes() == (DATA / "hd_cucd.svg").read_bytes()
