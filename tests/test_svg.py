import pytest

from fdcran.model import SchemeId
from fdcran.svg import _PALETTE, emit_svg
from fdcran.sweep import SweepRow


def rows_for(schemes, values):
    rows = []
    for v in values:
        for i, scheme in enumerate(schemes):
            rows.append(
                SweepRow("c_u_c_d_joint", float(v), scheme, 1.0, 1.0, 0.3 * (i + 1) + 0.1 * v)
            )
    return rows


def test_empty_table_rejected(tmp_path):
    with pytest.raises(ValueError):
        emit_svg([], tmp_path / "empty.svg")


def test_single_point_gets_marker_but_no_polyline(tmp_path):
    out = tmp_path / "point.svg"
    emit_svg(rows_for([SchemeId.HD_SCP], [5.0]), out)
    text = out.read_text(encoding="utf-8")
    assert text.startswith("<svg ")
    assert text.count("<polyline") == 0
    assert text.count("<circle") == 1


def test_one_polyline_per_scheme(tmp_path):
    out = tmp_path / "six.svg"
    emit_svg(rows_for(list(SchemeId), range(0, 13)), out)
    text = out.read_text(encoding="utf-8")
    assert text.count("<polyline") == 6
    for scheme in SchemeId:
        assert f">{scheme.value}</text>" in text  # legend labels
    assert text.rstrip().endswith("</svg>")


def test_axis_labels_and_title(tmp_path):
    # the title is fixed and the x axis is labeled with the rows' sweep variable
    out = tmp_path / "labels.svg"
    rows = rows_for([SchemeId.HD_CRAN], [0.0, 1.0])
    for row in rows:
        row.sweep_var = "gamma_ud"
    emit_svg(rows, out)
    text = out.read_text(encoding="utf-8")
    assert ">equal per-cell rate</text>" in text
    assert ">gamma_ud</text>" in text
    assert "c_u_c_d_joint" not in text
    assert "r_eq [bits/s/Hz]" in text


def test_byte_determinism(tmp_path):
    rows = rows_for(list(SchemeId)[:3], range(8))
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    emit_svg(rows, a)
    emit_svg(rows, b)
    assert a.read_bytes() == b.read_bytes()


def test_palette_has_one_color_per_scheme():
    # emit_svg takes each series' color by its scheme's place in SchemeId
    assert len(_PALETTE) == len(set(_PALETTE)) == len(SchemeId)
