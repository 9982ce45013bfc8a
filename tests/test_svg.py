import os
import subprocess
import sys
from pathlib import Path

import pytest

import fdcran
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


# x values whose span the tick step cannot resolve: two values one ulp apart,
# one value whose +-0.5 widening rounds away, and a span of the least
# subnormal; the first looped forever placing ticks, the second took log10(0)
_FINE_SPANS = """
import sys
from fdcran.model import SchemeId
from fdcran.svg import emit_svg
from fdcran.sweep import SweepRow
spans = [(1.0, 1.0 + 2.0**-52), (1e17,), (0.0, 5e-324), (1e300, 1e300 + 2.0**948)]
for i, values in enumerate(spans):
    rows = [SweepRow("gamma_ud", v, SchemeId.HD_SCP, 1.0, 1.0, 0.5) for v in values]
    emit_svg(rows, f"{sys.argv[1]}/{i}.svg")
"""


def test_an_x_span_too_fine_for_a_tick_step_is_widened_and_ends(tmp_path):
    # in a child, so a tick loop that does not end fails the test by timeout
    src = str(Path(fdcran.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", _FINE_SPANS, str(tmp_path)], capture_output=True, text=True,
        env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    for i, points in enumerate((2, 1, 2, 2)):
        text = (tmp_path / f"{i}.svg").read_text(encoding="utf-8")
        assert text.count("<circle") == points and "nan" not in text and "inf" not in text
        # the x tick labels, besides the title and the x axis label
        assert 2 <= text.count('text-anchor="middle">') - 2 <= 12
