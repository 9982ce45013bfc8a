"""The config grammar over arbitrary input: parse_config raises ConfigError and
nothing else, every spec it accepts has at most MAX_SWEEP_VALUES sweep values,
and `fdcran sweep --config` ends with a documented exit code, never a
traceback."""

import contextlib
import io
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from fdcran.cli import main
from fdcran.sweep import MAX_SWEEP_VALUES, ConfigError, SweepSpec, parse_config, preset_spec

NUMERIC_KEYS = [
    "base.alpha",
    "base.beta_du",
    "base.beta_ud",
    "base.gamma_du",
    "base.gamma_ud",
    "base.p_u_db",
    "base.p_d_db",
    "base.c_u",
    "base.c_d",
    "sweep.start",
    "sweep.stop",
    "sweep.step",
]
KEYS = NUMERIC_KEYS + ["sweep.var", "schemes"]

# numbers that are non-numeric, huge, tiny, negative or not finite, as text
NUMBERS = st.one_of(
    st.sampled_from(
        ["0", "1", "0.5", "-1", "-0.0", "1e-310", "1e-300", "3083", "4000", "1e308",
         "-1e308", "1e400", "inf", "-inf", "nan", "NaN", "Infinity", "0x10", "1_000", "12"]
    ),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-(10**30), 10**30).map(str),
)
TOKENS = st.sampled_from(
    ["gamma_ud", "alpha", "p_db_joint", "c_u_c_d_joint", "sideways", "all",
     "hd_scp, hd_cran", "fd_scp", "warp_drive", ",", "on", "off", "TRUE", "2"]
)
JUNK = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
VALUES = st.one_of(NUMBERS, TOKENS, JUNK, st.just(""))


@st.composite
def config_text(draw, keys=st.sampled_from(KEYS), values=VALUES):
    """Lines in random order, keys repeated, with comments, blank lines and
    blank values among them."""
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["entry", "entry", "entry", "comment", "blank", "junk"]))
        if kind == "entry":
            line = f"{draw(keys)} = {draw(values)}"
            if draw(st.booleans()):
                line += "  # " + draw(JUNK)
        elif kind == "comment":
            line = "# " + draw(JUNK)
        elif kind == "blank":
            line = ""
        else:
            line = draw(JUNK)
        lines.append(line)
    return "\n".join(lines) + "\n"


def _count(spec: SweepSpec) -> int:
    """Values of the sweep, counted without building them."""
    return math.floor((spec.stop - spec.start) / spec.step + 1e-9) + 1


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(text=config_text(), preset=st.sampled_from([None, "fig2", "fig3"]))
def test_parse_config_raises_only_config_error(text, preset):
    defaults = None if preset is None else preset_spec(preset)
    try:
        spec = parse_config(text, defaults=defaults)
    except ConfigError:
        return
    assert 1 <= _count(spec) <= MAX_SWEEP_VALUES


# half-duplex sweeps of at most 31 values, or none that can run: the keys of
# the sweep grid take a few values, the others mostly values that parse, some
# of them huge or at the edge of the domain
SWEEP_GRID = {
    "sweep.start": st.sampled_from(["0", "0.1", "1", "-1", "nan", "1e308", "x"]),
    "sweep.stop": st.sampled_from(["0", "0.2", "1", "2", "inf", "1e308", ""]),
    "sweep.step": st.sampled_from(["0.1", "0.5", "1", "0", "-1", "1e-300", "1e-310", "nan"]),
}
PLAUSIBLE = st.sampled_from(
    ["0", "1e-300", "0.05", "0.3", "0.49", "0.5", "1", "4", "20", "300", "3000", "3082", "1e150"]
)
HD_ENTRIES = st.one_of(
    st.tuples(
        st.sampled_from([k for k in NUMERIC_KEYS if k not in SWEEP_GRID]),
        st.one_of(PLAUSIBLE, PLAUSIBLE, NUMBERS),
    ),
    st.tuples(st.just("sweep.var"), st.sampled_from(["gamma_ud", "alpha", "p_db_joint"])),
)
HD_SCHEMES = st.sampled_from(["hd_scp", "hd_cran", "hd_scp, hd_cran", "hd_cran, hd_scp"])


@st.composite
def half_duplex_config(draw):
    entries = draw(st.lists(HD_ENTRIES, max_size=6))
    entries += draw(st.fixed_dictionaries({}, optional=SWEEP_GRID)).items()
    lines = [f"{key} = {value}" for key, value in draw(st.permutations(entries))]
    lines.append(f"# {draw(JUNK)}")
    return "\n".join(lines) + f"\nschemes = {draw(HD_SCHEMES)}\n"


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(text=half_duplex_config(), verify=st.booleans())
def test_half_duplex_sweeps_exit_with_a_documented_code(text, verify):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "sweep.cfg"
        config.write_text(text, encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            argv = ["sweep", "--config", str(config), "--out", str(Path(tmp) / "out.csv")]
            code = main(argv + ["--verify"] * verify)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
