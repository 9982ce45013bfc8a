import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fdcran.cli
import fdcran.oracle
import fdcran.rates
import fdcran.spectral
import fdcran.sweep
from fdcran.config import (
    MAX_SWEEP_VALUES,
    SWEEP_VARS,
    ConfigError,
    SweepBase,
    SweepSpec,
    parse_config,
    preset_spec,
)
from fdcran.model import NumericDomainError, SchemeId, ZfSingularError, _Point
from fdcran.oracle import circulant_uplink_rate, exhaustive_power_opt
from fdcran.rates import SCHEMES, SicMode
from fdcran.sweep import (
    CSV_COLUMNS,
    ORACLE_COLUMNS,
    ORACLE_RATE_TOL,
    SweepRow,
    emit_csv,
    run_sweep,
    verification_failures,
)

from sweep_io import load_csv, serialize_spec
from test_oracle import _SizeProbe


def small_spec(**kw) -> SweepSpec:
    defaults = dict(
        base=SweepBase(),
        sweep_var="c_u_c_d_joint",
        start=2.0,
        stop=6.0,
        step=2.0,
        schemes=(SchemeId.HD_SCP, SchemeId.HD_CRAN, SchemeId.FD_SCP_SIC),
    )
    defaults.update(kw)
    return SweepSpec(**defaults)


def test_preset_fig2_shape():
    spec = preset_spec("fig2")
    assert spec.sweep_var == "c_u_c_d_joint"
    assert len(spec.values()) == 25
    assert spec.values()[0] == 0.0 and spec.values()[-1] == 12.0
    assert spec.schemes == tuple(SchemeId)


def test_preset_fig3_shape():
    spec = preset_spec("fig3")
    assert spec.sweep_var == "gamma_ud"
    assert len(spec.values()) == 33
    assert spec.base.c_u == 10.0 and spec.base.c_d == 10.0
    assert spec.schemes == tuple(SchemeId)


def test_preset_unknown():
    with pytest.raises(ConfigError):
        preset_spec("fig9")


def test_params_at_each_sweep_variable():
    spec = small_spec(sweep_var="gamma_ud")
    assert spec.params_at(3.5).gamma_ud == 3.5
    spec = small_spec(sweep_var="alpha")
    assert spec.params_at(0.25).alpha == 0.25
    spec = small_spec(sweep_var="beta_du")
    assert spec.params_at(0.6).beta_du == 0.6
    spec = small_spec(sweep_var="beta_ud")
    assert spec.params_at(0.02).beta_ud == 0.02
    spec = small_spec(sweep_var="p_db_joint")
    p = spec.params_at(10.0)
    assert p.p_u_max == pytest.approx(10.0) and p.p_d_max == pytest.approx(10.0)
    spec = small_spec(sweep_var="c_u_c_d_joint")
    p = spec.params_at(7.0)
    assert p.c_u == 7.0 and p.c_d == 7.0


@pytest.mark.parametrize("var", SWEEP_VARS)
def test_a_specs_points_set_the_fields_params_at_sets(var):
    # a value in range gives each field bit for bit; one out of range, after
    # a first value in range, raises params_at's error.  A p_db_joint sweep
    # sets both budgets, so its base's, here past the float range, go unread
    base = SweepBase(p_u_db=3090.0) if var == "p_db_joint" else SweepBase()
    spec = small_spec(sweep_var=var, base=base)
    good = [-10.0, 0.0, 25.0, 3000.0] if var == "p_db_joint" else [0.0, 0.25, 0.4999, 7.0]
    params = [spec.params_at(v) for v in good]
    fields = [_Point._make(getattr(p, f) for f in _Point._fields) for p in params]
    assert list(spec.points(good)) == fields
    bad = {"p_db_joint": [3090.0, math.nan], "c_u_c_d_joint": [-1.0, math.nan]}
    for value in bad.get(var, [-1.0, math.nan, 1e155]):
        with pytest.raises(ValueError) as direct:
            spec.params_at(value)
        with pytest.raises(ValueError) as lazily:
            list(spec.points([good[0], value]))
        assert type(lazily.value) is type(direct.value)
        assert str(lazily.value) == str(direct.value)


def test_spec_validation():
    with pytest.raises(ConfigError):
        small_spec(schemes=())
    with pytest.raises(ConfigError):
        small_spec(step=0.0)
    with pytest.raises(ConfigError):
        small_spec(start=5.0, stop=1.0)
    with pytest.raises(ConfigError):
        small_spec(sweep_var="nope")


def test_schemes_are_deduped_and_enum_ordered():
    spec = small_spec(
        schemes=(SchemeId.FD_SCP_SIC, SchemeId.HD_SCP, SchemeId.FD_SCP_SIC)
    )
    assert spec.schemes == (SchemeId.HD_SCP, SchemeId.FD_SCP_SIC)


def test_parse_config_minimal_and_overrides():
    text = """
    # comment line
    base.alpha = 0.2
    sweep.var = gamma_ud
    sweep.start = 0
    sweep.stop = 2
    sweep.step = 1
    schemes = hd_scp, fd_scp
    """
    spec = parse_config(text)
    assert spec.base.alpha == 0.2
    assert spec.base.beta_du == 0.4  # untouched default
    assert spec.sweep_var == "gamma_ud"
    assert spec.schemes == (SchemeId.HD_SCP, SchemeId.FD_SCP)
    assert spec.oracle is False  # only --verify turns the oracles on


def test_parse_config_scheme_shorthand_all():
    spec = parse_config("schemes = all\n")
    assert spec.schemes == tuple(SchemeId)


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("nonsense without equals", "key = value"),
        ("base.alpha = banana", "number"),
        ("base.alpha = -1", ">= 0"),
        ("unknown.key = 3", "unknown key"),
        ("schemes = warp_drive", "unknown scheme"),
        ("sweep.var = sideways", "unknown sweep variable"),
        ("sic = on", "unknown key"),
        ("numerics.panels = 4096", "unknown key"),
        ("numerics.grid = 16", "unknown key"),
        ("numerics.oracle = on", "unknown key"),
        ("base.alpha =", "missing value"),
        ("sweep.step = 0", "step must be > 0"),
        ("sweep.start = 20", "exceeds stop"),
        ("sweep.stop = -1", "exceeds stop"),
        ("sweep.stop = 1e308", "at most 1000000 sweep values"),
        ("schemes = ,", "must not be empty"),
    ],
)
def test_parse_config_errors_carry_line(line, fragment):
    with pytest.raises(ConfigError) as err:
        parse_config("base.alpha = 0.4\n" + line + "\n")
    assert fragment in str(err.value)
    assert err.value.line == 2


def test_parse_config_step_validation_flows_through():
    with pytest.raises(ConfigError):
        parse_config("sweep.step = 0\n")


@pytest.mark.parametrize(
    "sweep",
    [
        dict(start=0.0, step=1e-300),  # about 1e301 values
        dict(start=0.0, stop=1e308, step=1.0),
        dict(start=0.0, step=1e-310),  # subnormal: (stop - start) / step is inf
        dict(start=-1e308, stop=1e308),  # stop - start is inf
        dict(start=0.0, stop=float(MAX_SWEEP_VALUES), step=1.0),  # one value too many
    ],
)
def test_a_sweep_too_long_to_run_is_a_config_error(sweep):
    with pytest.raises(ConfigError) as err:
        small_spec(**sweep)
    assert err.value.field == "sweep.step"
    text = "".join(f"sweep.{key} = {value!r}\n" for key, value in sweep.items())
    with pytest.raises(ConfigError, match="at most 1000000 sweep values"):
        parse_config(text)


def test_the_longest_allowed_sweep_is_accepted():
    small_spec(start=0.0, stop=float(MAX_SWEEP_VALUES - 1), step=1.0)


def test_config_round_trip():
    spec = small_spec(
        base=SweepBase(alpha=0.35, beta_du=0.11, p_u_db=17.5, c_u=9.0),
        sweep_var="beta_ud",
        start=0.0,
        stop=0.1,
        step=0.025,
        schemes=(SchemeId.HD_CRAN, SchemeId.FD_CRAN_SIC),
    )
    assert parse_config(serialize_spec(spec)) == spec
    assert serialize_spec(replace(spec, oracle=True)) == serialize_spec(spec)


def test_preset_round_trip():
    for name in ("fig2", "fig3"):
        spec = preset_spec(name)
        assert parse_config(serialize_spec(spec)) == spec


def test_run_sweep_deterministic_rows():
    spec = small_spec()
    rows_a = run_sweep(spec)
    rows_b = run_sweep(spec)
    assert rows_a == rows_b
    assert len(rows_a) == 3 * 3  # 3 sweep values x 3 schemes
    # value-major, scheme enum order minor
    assert [(r.value, r.scheme) for r in rows_a[:3]] == [
        (2.0, SchemeId.HD_SCP),
        (2.0, SchemeId.HD_CRAN),
        (2.0, SchemeId.FD_SCP_SIC),
    ]


def test_row_diagnostics_follow_scheme():
    rows = run_sweep(small_spec())
    by_scheme = {r.scheme: r for r in rows[:3]}
    hd_scp_row = by_scheme[SchemeId.HD_SCP]
    assert hd_scp_row.sigma_u_sq is None and hd_scp_row.p_u_star is None
    assert hd_scp_row.f_star is not None
    cran_row = by_scheme[SchemeId.HD_CRAN]
    assert cran_row.sigma_u_sq is not None and cran_row.sigma_d_sq is not None
    fd_row = by_scheme[SchemeId.FD_SCP_SIC]
    assert fd_row.p_u_star is not None and fd_row.f_star is None


def test_emit_csv_header_and_na(tmp_path):
    rows = run_sweep(small_spec())
    out = tmp_path / "sweep.csv"
    emit_csv(rows, out)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[0] == (
        "sweep_var,value,scheme,r_u,r_d,r_eq,sigma_u_sq,sigma_d_sq,"
        "p_u_star,p_d_star,f_star"
    )
    assert len(lines) == 1 + len(rows)
    first = lines[1].split(",")
    assert first[0] == "c_u_c_d_joint" and first[2] == "hd_scp"
    assert first[6] == "NA"  # sigma_u_sq inapplicable to hd_scp


def test_emit_csv_empty_table(tmp_path):
    out = tmp_path / "empty.csv"
    emit_csv([], out)
    assert out.read_text(encoding="utf-8") == ",".join(CSV_COLUMNS) + "\n"


def test_emit_csv_synthetic_row_count(tmp_path):
    rows = [
        SweepRow("c_u_c_d_joint", float(v), s, 1.0, 2.0, 0.5)
        for v in range(25)
        for s in SchemeId
    ]
    out = tmp_path / "fig2_shape.csv"
    emit_csv(rows, out)
    assert len(out.read_text(encoding="utf-8").splitlines()) == 151


def test_csv_round_trip_bit_exact(tmp_path):
    rows = run_sweep(small_spec())
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    emit_csv(rows, first)
    emit_csv(load_csv(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_csv_non_finite_diagnostics_become_na(tmp_path):
    spec = small_spec(start=0.0, stop=0.0, step=1.0)  # c_u = c_d = 0
    rows = run_sweep(spec)
    cran = [r for r in rows if r.scheme is SchemeId.HD_CRAN][0]
    assert math.isinf(cran.sigma_u_sq)
    out = tmp_path / "zero.csv"
    emit_csv(rows, out)
    line = out.read_text(encoding="utf-8").splitlines()[2].split(",")
    assert line[6] == "NA"
    assert load_csv(out)[1].sigma_u_sq is None


def _reference_cell(v) -> str:
    return "NA" if v is None or not math.isfinite(float(v)) else f"{float(v):.9g}"


# None, and any float: NaN, both infinities, -0.0, subnormals, 1e308, as
# Python floats and as numpy float64
_cells = st.one_of(st.none(), st.floats(), st.floats().map(np.float64))


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.lists(_cells, min_size=11, max_size=11), st.sampled_from(SchemeId))
@example(
    [None, math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, np.float64(0.1),
     np.float64(-0.0), 2.2250738585072014e-308, np.float64(1e-310)],
    SchemeId.FD_CRAN,
)
def test_csv_cells_are_nine_digits_or_na(tmp_path_factory, numbers, scheme):
    row = SweepRow("alpha", numbers[0], scheme, *numbers[1:])
    out = tmp_path_factory.getbasetemp() / "cells.csv"
    emit_csv([row], out)
    with_oracle = row.oracle_r_u is not None or row.oracle_r_eq is not None
    columns = CSV_COLUMNS + (ORACLE_COLUMNS if with_oracle else ())
    cells = ["alpha", _reference_cell(numbers[0]), scheme.value]
    cells += [_reference_cell(getattr(row, name)) for name in columns[3:]]
    assert out.read_text(encoding="utf-8") == ",".join(columns) + "\n" + ",".join(cells) + "\n"
    assert [fdcran.sweep._fmt(v) for v in numbers] == [_reference_cell(v) for v in numbers]


def test_oracle_columns_and_verification(tmp_path):
    spec = small_spec(oracle=True, start=4.0, stop=6.0, step=2.0)
    rows = run_sweep(spec)
    cran_rows = [r for r in rows if r.scheme is SchemeId.HD_CRAN]
    fd_rows = [r for r in rows if r.scheme is SchemeId.FD_SCP_SIC]
    assert all(r.oracle_r_u is not None for r in cran_rows)
    assert all(r.oracle_r_eq is not None for r in fd_rows)
    assert verification_failures(rows) == []
    out = tmp_path / "verify.csv"
    emit_csv(rows, out)
    header = out.read_text(encoding="utf-8").splitlines()[0]
    assert header.endswith(",oracle_r_u,oracle_r_eq")


def test_verification_flags_disagreement():
    rows = [
        SweepRow(
            "c_u_c_d_joint", 1.0, SchemeId.HD_CRAN,
            r_u=2.0, r_d=2.0, r_eq=1.0, oracle_r_u=2.5,
        )
    ]
    failures = verification_failures(rows)
    assert len(failures) == 1 and "hd_cran" in failures[0]


def test_sweeps_reach_no_sampled_precoder_or_quadrature(monkeypatch):
    # every row computed from the parameters alone is exact: no precoder is
    # sampled, and nothing is integrated by _quad, the one quadrature path
    def sampled(*args, **kwargs):
        raise AssertionError("a sweep row reached the sampled path")

    for name in ("_quad", "zf_precoder", "h_tilde"):
        monkeypatch.setattr(fdcran.spectral, name, sampled)
    assert len(run_sweep(preset_spec("fig2"))) == 25 * 6
    alpha = SweepSpec(sweep_var="alpha", start=0.0, stop=0.45, step=0.05)
    assert len(run_sweep(alpha)) == 10 * 6


def test_zf_singularity_propagates_with_alpha():
    spec = small_spec(
        sweep_var="alpha", start=0.3, stop=0.6, step=0.3,
        schemes=(SchemeId.HD_CRAN,),
    )
    with pytest.raises(ZfSingularError) as err:
        run_sweep(spec)
    assert err.value.alpha == 0.6


def test_first_failing_row_decides_the_error(monkeypatch):
    # the full-duplex C-RAN batch fails too, but (0.6, hd_cran) comes first
    spec = small_spec(sweep_var="alpha", start=0.3, stop=0.6, step=0.3, schemes=tuple(SchemeId))
    with pytest.raises(ZfSingularError) as err:
        run_sweep(spec)
    assert err.value.alpha == 0.6

    def failing_search(*args):
        raise ValueError("power search failed")

    # a failing power search fails every full-duplex row: (0.3, fd_scp) is the
    # first
    monkeypatch.setattr(fdcran.rates, "_max_min_search", failing_search)
    with pytest.raises(ValueError, match="power search failed"):
        run_sweep(spec)
    # at 0.6 alone, the hd_cran row fails before the full-duplex ones
    with pytest.raises(ZfSingularError):
        run_sweep(replace(spec, start=0.6))
    # the 3070 dB row's sigma_u^2 overflows before the block's 3090 dB budget
    # is found past the float range
    base = replace(SweepBase(), c_u=0.001)
    spec = small_spec(
        base=base, sweep_var="p_db_joint", start=3070.0, stop=3090.0, step=10.0,
        schemes=(SchemeId.HD_CRAN,),
    )
    with pytest.raises(NumericDomainError, match="sigma_u_sq overflows"):
        run_sweep(spec)


def test_oracle_scores_the_reported_argmax():
    # fig3's fd_scp_sic row at gamma_ud = 0.5 peaks off the 512x512 grid
    spec = replace(
        preset_spec("fig3"), start=0.5, stop=0.5, schemes=(SchemeId.FD_SCP_SIC,), oracle=True
    )
    row = run_sweep(spec)[0]
    grid_only = exhaustive_power_opt(spec.params_at(0.5), SicMode.SIC, 512)[0]
    assert row.r_eq > grid_only + ORACLE_RATE_TOL  # the grid alone would flag it
    assert verification_failures([row]) == []
    # a rate misreported at the same argmax is still caught
    doctored = replace(row, r_eq=row.r_eq + 0.01)
    assert len(verification_failures([doctored])) == 1


def test_a_doctored_fd_cran_row_is_flagged():
    spec = replace(
        preset_spec("fig3"), start=3.5, stop=3.5, schemes=(SchemeId.FD_CRAN,), oracle=True
    )
    row = run_sweep(spec)[0]
    assert row.oracle_r_eq == pytest.approx(row.r_eq, abs=1e-9)
    assert verification_failures([row]) == []
    doctored = replace(row, r_eq=row.r_eq + 0.01)
    (failure,) = verification_failures([doctored])
    assert failure.startswith("fd_cran at gamma_ud=3.5: equal rate")


def test_a_failure_names_its_row_as_the_csv_does():
    # six significant digits would print alpha = 0.4999999 as 0.5, a value
    # outside the zero-forcing domain
    spec = SweepSpec(
        sweep_var="alpha", start=0.4999999, stop=0.4999999, schemes=(SchemeId.FD_CRAN,),
        oracle=True,
    )
    row = run_sweep(spec)[0]
    assert verification_failures([row]) == []
    (failure,) = verification_failures([replace(row, r_eq=row.r_eq + 0.01)])
    assert failure.startswith("fd_cran at alpha=0.4999999: equal rate")
    assert " at alpha=0.4999999; certified " in fdcran.sweep.oracle_gaps([row])[0]


def test_fig3_verify_builds_no_grid_and_certifies_once_per_block_and_scheme(
    fig3_verify_rows, monkeypatch
):
    calls = []
    certify = fdcran.oracle.certified_max_min

    def counted(family, sic, points, argmaxes):
        calls.append((family, sic, len(points)))
        return certify(family, sic, points, argmaxes)

    monkeypatch.setattr(fdcran.oracle, "certified_max_min", counted)
    probe = _SizeProbe()
    monkeypatch.setattr(fdcran.oracle, "np", probe)
    assert run_sweep(replace(preset_spec("fig3"), oracle=True)) == fig3_verify_rows
    # fig3's 33 values make one block
    assert calls == [("scp", SicMode.TREAT_AS_NOISE, 33), ("scp", SicMode.SIC, 33),
                     ("cran", SicMode.TREAT_AS_NOISE, 33), ("cran", SicMode.SIC, 33)]
    assert probe.calls["linspace"] == 0  # no power grid
    assert 0 < probe.largest <= fdcran.oracle._BLOCK_ELEMENTS


def test_each_schemes_oracle_values_are_its_own_across_a_block_boundary():
    # 112 alpha values make two blocks, 64 and 48: each scheme's rows of a
    # block are one stride of it, and every oracle value must be that row's
    spec = SweepSpec(sweep_var="alpha", start=0.0, stop=0.4995, step=0.0045, oracle=True)
    assert len(spec.values()) == 112
    rows = run_sweep(spec)
    assert len(rows) == 112 * len(SchemeId)
    for row in rows:
        family, receiver = SCHEMES[row.scheme]
        params = spec.params_at(row.value)
        if family == "cran":
            p_u = params.p_u_max if row.p_u_star is None else row.p_u_star
            # at the oracle's own sigma_u^2, not the row's
            [sigma] = fdcran.oracle.sigma_u_sq([params], [p_u], [row.p_d_star or 0.0])
            assert row.oracle_r_u == circulant_uplink_rate(params.alpha, p_u, sigma)
        else:
            assert row.oracle_r_u is None
        if receiver is not None:
            assert row.oracle_r_eq - 1e-9 <= row.r_eq <= row.oracle_r_eq + row.oracle_eps
            assert row.oracle_cells > 0
        else:
            assert row.oracle_r_eq is None
    assert verification_failures(rows) == []


@pytest.mark.parametrize(
    "schemes",
    [
        *[(scheme,) for scheme in SchemeId],
        (SchemeId.FD_SCP, SchemeId.FD_SCP_SIC),
        (SchemeId.HD_CRAN, SchemeId.FD_CRAN_SIC),
        (SchemeId.HD_SCP, SchemeId.HD_CRAN),
    ],
    ids=lambda schemes: "+".join(map(str, schemes)),
)
def test_a_receiver_verified_alone_gets_the_rows_of_the_full_run(fig3_verify_rows, schemes):
    # a family's receivers share one solve: any subset of the schemes,
    # alone or with part of its family, gets the full run's rows
    alone = run_sweep(replace(preset_spec("fig3"), schemes=schemes, oracle=True))
    assert all(r.oracle_r_eq is not None for r in alone if SCHEMES[r.scheme][1] is not None)
    # rows compare field by field, oracle_r_eq included
    assert alone == [r for r in fig3_verify_rows if r.scheme in schemes]


def test_a_swept_value_is_checked_as_its_systemparams_field():
    # half-duplex rates do not read gamma_ud, so only the check of each swept
    # value catches a negative one; the replay names the first
    spec = small_spec(
        sweep_var="gamma_ud", start=-0.5, stop=0.5, step=0.25,
        schemes=(SchemeId.HD_SCP, SchemeId.HD_CRAN),
    )
    with pytest.raises(ValueError, match=r"gamma_ud must be finite and >= 0, got -0\.5$"):
        run_sweep(spec)
    # a gain whose power gain overflows, past 9.5e153, in the middle of a
    # block: the check raises before the kernels' gamma_ud**2 would overflow
    spec = replace(spec, start=0.0, stop=2e154, step=1e152)
    first = next(v for v in spec.values() if math.isinf(2.0 * v * v))
    message = re.escape(f"gamma_ud={first:g} has a power gain")
    with pytest.raises(NumericDomainError, match=message):
        run_sweep(spec)


def test_a_half_duplex_block_reports_its_first_overflowing_row(tmp_path, capsys):
    # 101 joint budgets: sigma_u^2 first overflows at 3050.4 dB (row 56),
    # where hd_cran checks it at (P_u, 0), and the budget leaves the float
    # range in the second block; then 56 values, one block, where it
    # overflows at row 12 and the budget leaves the float range at row 48,
    # whose point the replay must not build before row 12 raises
    config = tmp_path / "over.cfg"
    argv = ["sweep", "--config", str(config), "--out", str(tmp_path / "over.csv")]
    for start, p_u_max in ((3000, "1.0964781961432367e+305"), (3040, "9.772372209558311e+304")):
        config.write_text(
            "schemes = hd_scp, hd_cran\nbase.c_u = 0.001\nsweep.var = p_db_joint\n"
            f"sweep.start = {start}\nsweep.stop = 3090\nsweep.step = 0.9\n"
        )
        assert fdcran.cli.main(argv) == 3
        assert capsys.readouterr().err == (
            f"numeric error: sigma_u_sq overflows a float at the budgets "
            f"p_u_max={p_u_max}, p_d_max=0.0\n"
        )


def test_a_long_half_duplex_verify_sweep_keeps_the_oracle_temporaries_bounded(monkeypatch):
    # 834 values in 14 blocks of at most 64: the circulant check rates each
    # block's hd_cran rows in one call, no temporary above _BLOCK_ELEMENTS
    spec = SweepSpec(
        sweep_var="alpha", start=0.0, stop=0.4995, step=0.4995 / 833,
        schemes=(SchemeId.HD_SCP, SchemeId.HD_CRAN), oracle=True,
    )
    plain = run_sweep(replace(spec, oracle=False))
    calls = []
    circulant = fdcran.sweep.circulant_uplink_rate

    def counted(alpha, *args):
        calls.append(alpha.size)
        return circulant(alpha, *args)

    monkeypatch.setattr(fdcran.sweep, "circulant_uplink_rate", counted)
    probe = _SizeProbe()
    monkeypatch.setattr(fdcran.oracle, "np", probe)
    rows = run_sweep(spec)
    assert 0 < probe.largest <= fdcran.oracle._BLOCK_ELEMENTS
    assert calls == [64] * 13 + [2]
    assert verification_failures(rows) == []
    assert [replace(r, oracle_r_u=None) for r in rows] == plain
