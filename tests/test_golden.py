"""Golden outputs checked in under tests/data: each sweep's CSV, written by
emit_csv, and its chart, written by emit_svg, match their golden files byte
for byte.

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

The CSVs keep nine significant digits, so equal bytes put each value within
5e-9 of the golden's, relative.  These are every config of the goldens; the
entry-point check in CI compares the fig2 files of a fresh `fdcran` process,
and runs this module again with numpy's SIMD loops off."""

from pathlib import Path

import pytest

from fdcran.config import SweepBase, SweepSpec, preset_spec
from fdcran.model import SchemeId
from fdcran.svg import emit_svg
from fdcran.sweep import emit_csv, run_sweep

DATA = Path(__file__).parent / "data"


def _assert_golden(emit, rows, name, tmp_path):
    """emit(rows, path) writes the bytes of tests/data/<name>."""
    out = tmp_path / name
    emit(rows, out)
    assert out.read_bytes() == (DATA / name).read_bytes()


@pytest.fixture(scope="module")
def fig2_rows():
    return run_sweep(preset_spec("fig2"))


def test_fig2_rates_match_the_golden_csv(fig2_rows, tmp_path):
    _assert_golden(emit_csv, fig2_rows, "fig2.csv", tmp_path)


def test_fig2_chart_matches_the_golden_svg(fig2_rows, tmp_path):
    _assert_golden(emit_svg, fig2_rows, "fig2.svg", tmp_path)


def test_fig3_verify_rates_and_oracles_match_the_golden_csv(fig3_verify_rows, tmp_path):
    _assert_golden(emit_csv, fig3_verify_rows, "fig3_verify.csv", tmp_path)


def test_fig3_chart_matches_the_golden_svg(fig3_verify_rows, tmp_path):
    _assert_golden(emit_svg, fig3_verify_rows, "fig3.svg", tmp_path)


def test_one_value_chart_matches_the_golden_svg(tmp_path):
    spec = SweepSpec(sweep_var="c_u_c_d_joint", start=0.0, stop=0.0, step=1.0)
    rows = run_sweep(spec)
    assert [row.r_eq for row in rows] == [0.0] * len(SchemeId)
    _assert_golden(emit_svg, rows, "one_value.svg", tmp_path)


def test_hd_cran_alpha_sweep_matches_the_golden_csv(tmp_path):
    spec = SweepSpec(
        sweep_var="alpha", start=0.0, stop=0.495, step=0.005, schemes=(SchemeId.HD_CRAN,)
    )
    _assert_golden(emit_csv, run_sweep(spec), "hd_cran_alpha.csv", tmp_path)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_p_db_joint_sweep_matches_the_golden_csv_and_svg(tmp_path):
    spec = SweepSpec(
        base=SweepBase(c_u=2000.0, c_d=2000.0), sweep_var="p_db_joint",
        start=-10.0, stop=3070.0, step=154.0,
    )
    rows = run_sweep(spec)
    _assert_golden(emit_csv, rows, "p_db_joint.csv", tmp_path)
    _assert_golden(emit_svg, rows, "p_db_joint.svg", tmp_path)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_hd_cucd_sweep_matches_the_golden_csv_and_svg(tmp_path):
    spec = SweepSpec(
        sweep_var="c_u_c_d_joint", start=0.0, stop=12.0, step=0.1,
        schemes=(SchemeId.HD_SCP, SchemeId.HD_CRAN),
    )
    rows = run_sweep(spec)
    _assert_golden(emit_csv, rows, "hd_cucd.csv", tmp_path)
    _assert_golden(emit_svg, rows, "hd_cucd.svg", tmp_path)
