import json
import math
import re
import subprocess
import sys
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fdcran.oracle
import fdcran.rates
import fdcran.sweep
from fdcran.cli import _build_parser, main
from fdcran.config import ConfigError, SweepBase, parse_config
from fdcran.model import SchemeId
from fdcran.rates import SCHEMES, SicMode
from fdcran.spectral import zf_constants
from fdcran.sweep import ORACLE_RATE_TOL

from sweep_io import load_csv

TINY_CONFIG = """
base.alpha = 0.4
base.beta_du = 0.4
base.beta_ud = 0.04
base.gamma_ud = 4
sweep.var = c_u_c_d_joint
sweep.start = 4
sweep.stop = 8
sweep.step = 4
schemes = hd_scp, hd_cran, fd_scp_sic
"""


def test_compute_prints_json(capsys):
    code = main(
        [
            "compute", "--scheme", "hd_scp",
            "--alpha", "0", "--p-u-db", "4.771212547196624",
            "--p-d-db", "4.771212547196624", "--c-u", "10", "--c-d", "10",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["scheme"] == "hd_scp"
    assert payload["r_eq"] == pytest.approx(1.0, rel=1e-9)
    assert payload["diagnostics"]["f_star"] == pytest.approx(0.5, rel=1e-9)


def test_compute_full_power(capsys):
    for scheme in ("fd_scp", "fd_cran_sic"):
        common = ["compute", "--scheme", scheme]
        assert main(common + ["--full-power"]) == 0
        full = json.loads(capsys.readouterr().out)
        assert main(common) == 0
        optimized = json.loads(capsys.readouterr().out)
        diag = full["diagnostics"]
        assert (diag["p_u_star"], diag["p_d_star"]) == (100.0, 100.0)
        assert optimized["diagnostics"]["p_u_star"] < 100.0  # the default point backs off
        assert full["r_eq"] <= optimized["r_eq"]


def test_compute_zero_fronthaul_maps_inf_to_null(capsys):
    code = main(["compute", "--scheme", "hd_cran", "--c-u", "0"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["r_eq"] == 0.0
    assert payload["diagnostics"]["sigma_u_sq"] is None


@pytest.mark.parametrize("scheme", ["hd_cran", "fd_cran"])
def test_compute_huge_fronthaul_has_no_quantization_noise(scheme, capsys):
    code = main(["compute", "--scheme", scheme, "--c-u", "2000"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["diagnostics"]["sigma_u_sq"] == 0.0
    assert payload["r_eq"] > 0.0


@pytest.mark.parametrize("scheme", ["hd_cran", "fd_cran"])
def test_compute_vanishing_fronthaul_gives_the_model_rate(scheme, capsys):
    # at c_u = 1e-300 the uplink SNR s = p_u / (1 + sigma_u^2) is about 5e-301,
    # where the mean of log2(1 + s H(f)^2) is s (1 + 2 alpha^2) / ln 2 to
    # first order, about 9.9e-301
    code = main(["compute", "--scheme", scheme, "--c-u", "1e-300"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    diag = payload["diagnostics"]
    s = diag.get("p_u_star", 100.0) / (1.0 + diag["sigma_u_sq"])
    model = s * (1.0 + 2.0 * 0.4**2) / math.log(2.0)
    assert 0.0 < model < 1e-299
    assert payload["r_u"] == pytest.approx(model, rel=1e-9, abs=0.0)
    assert payload["r_eq"] <= payload["r_u"]


def _point_config(tmp_path, flags: dict, schemes: str):
    """A one-row sweep config at the operating point of the compute flags."""
    config = tmp_path / "point.cfg"
    base = "".join(f"base.{k.replace('-', '_')} = {v}\n" for k, v in flags.items())
    gamma_ud = flags.get("gamma-ud", 4)
    sweep = f"sweep.var = gamma_ud\nsweep.start = {gamma_ud}\nsweep.stop = {gamma_ud}\n"
    config.write_text(base + sweep + f"schemes = {schemes}\n", encoding="utf-8")
    return str(config)


@pytest.mark.filterwarnings("ignore:gamma_du=:UserWarning")
@pytest.mark.parametrize("field", fields(SweepBase), ids=lambda f: f.name)
def test_each_base_field_is_a_compute_flag_and_a_config_key(field, tmp_path, capsys):
    flag = field.name.replace("_", "-")
    args = _build_parser().parse_args(["compute", "--scheme=fd_cran_sic"])
    assert getattr(args, field.name) == field.default
    value = field.default / 2 + 0.05
    spec = parse_config(f"base.{field.name} = {value}\n")
    assert spec.base == replace(SweepBase(), **{field.name: value})
    # fd_cran_sic reads every field but the inert gamma_du
    assert main(["compute", "--scheme=fd_cran_sic", f"--{flag}={value}"]) == 0
    payload = json.loads(capsys.readouterr().out)
    config = _point_config(tmp_path, {flag: value}, "fd_cran_sic")
    out = tmp_path / "point.csv"
    assert main(["sweep", "--config", config, "--out", str(out)]) == 0
    (row,) = load_csv(out)
    for name in ("r_u", "r_d", "r_eq"):
        assert float(f"{payload[name]:.9g}") == getattr(row, name)


def test_a_negative_db_budget_in_a_config_gives_the_compute_rates(tmp_path, capsys):
    # budgets below the noise power are in the domain of compute and of a
    # p_db_joint sweep, so a config's base budgets take them too; a gain or a
    # capacity stays >= 0
    flags = {"p-u-db": "-10", "p-d-db": "-3"}
    out = tmp_path / "point.csv"
    config = _point_config(tmp_path, flags, "all")
    assert main(["sweep", "--config", config, "--out", str(out)]) == 0
    rows = load_csv(out)
    assert [row.scheme for row in rows] == list(SchemeId)
    for row in rows:
        argv = ["compute", f"--scheme={row.scheme.value}"]
        assert main(argv + [f"--{k}={v}" for k, v in flags.items()]) == 0
        payload = json.loads(capsys.readouterr().out)
        for name in ("r_u", "r_d", "r_eq"):
            assert float(f"{payload[name]:.9g}") == getattr(row, name)
    for key in ("base.c_u", "base.beta_ud"):
        with pytest.raises(ConfigError, match="must be >= 0"):
            parse_config(f"{key} = -1\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_overflowing_stream_power_still_gives_finite_rates(tmp_path, capsys):
    # a 3080 dB downlink budget is 1e308 in linear units, where 2 p_d alone
    # would overflow: each point's unit of power keeps r_d finite, with no
    # RuntimeWarning, as a NaN r_d would leave Python's min(r_u, nan) reporting r_u
    flags = {"p-u-db": "3000", "p-d-db": "3080", "c-u": "2000"}
    argv = ["compute", "--scheme=fd_cran"] + [f"--{k}={v}" for k, v in flags.items()]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["r_d"] is not None and payload["r_d"] > 0.0
    assert payload["r_eq"] == min(payload["r_u"], payload["r_d"])
    config = _point_config(tmp_path, flags, "fd_cran, fd_cran_sic")
    out = tmp_path / "huge.csv"
    assert main(["sweep", "--config", config, "--out", str(out)]) == 0
    rows = load_csv(out)
    assert len(rows) == 2
    for row in rows:
        assert math.isfinite(row.r_d) and row.r_eq == min(row.r_u, row.r_d)


# gamma_ud^2 P_u passes the float range from gamma_ud = 2 on
INTRA_CELL_OVERFLOW_CONFIG = """
base.p_u_db = 3080
base.p_d_db = 3000
base.c_u = 2000
sweep.var = gamma_ud
sweep.start = 0
sweep.stop = 3
sweep.step = 1
schemes = fd_scp_sic, fd_cran
"""


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_intra_cell_power_past_the_float_range_issues_no_warning(tmp_path):
    config = tmp_path / "intra.cfg"
    config.write_text(INTRA_CELL_OVERFLOW_CONFIG, encoding="utf-8")
    out = tmp_path / "intra.csv"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    rows = load_csv(out)
    assert len(rows) == 8 and all(math.isfinite(r.r_eq) for r in rows)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_verify_certifies_budgets_past_the_float_range(tmp_path):
    # the oracle scans each box in its point's unit of power, starting from
    # the two budget edges: all four full-duplex schemes certify every row to
    # CERTIFIED_EPS itself, well within _MAX_CELLS cells
    text = INTRA_CELL_OVERFLOW_CONFIG + "schemes = fd_scp, fd_scp_sic, fd_cran, fd_cran_sic\n"
    config = tmp_path / "intra.cfg"
    config.write_text(text, encoding="utf-8")
    out = tmp_path / "intra.csv"
    assert main(["sweep", "--config", str(config), "--verify", "--out", str(out)]) == 0
    assert all(r.oracle_r_eq is not None for r in load_csv(out))
    rows = fdcran.sweep.run_sweep(replace(parse_config(text), oracle=True))
    assert len(rows) == 16
    assert all(r.oracle_eps == fdcran.oracle.CERTIFIED_EPS for r in rows)
    assert all(0 < r.oracle_cells <= fdcran.oracle._MAX_CELLS for r in rows)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scheme", ["hd_cran", "fd_cran", "fd_cran_sic"])
def test_a_quantization_noise_near_the_float_range_keeps_a_finite_rate(tmp_path, capsys, scheme):
    # (1 + 2 alpha^2) P_u is past the float range at 3082 dB, but sigma_u^2 is
    # formed in the point's unit of power: the model's 2.04e-294 at c_u = 2000,
    # where 2**-c_u alone underflows, and its 7.57e306 at c_u = 5
    for c_u, sigma_u_sq in (("2000", 2.043285589e-294), ("5", 7.567609366e306)):
        flags = {"alpha": "0.49", "p-u-db": "3082", "c-u": c_u}
        argv = ["compute", f"--scheme={scheme}"] + [f"--{k}={v}" for k, v in flags.items()]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(math.isfinite(payload[r]) and payload[r] > 0 for r in ("r_u", "r_d", "r_eq"))
        if scheme == "hd_cran":  # at the budget P_u
            reported = payload["diagnostics"]["sigma_u_sq"]
            assert reported == pytest.approx(sigma_u_sq, rel=1e-9, abs=0)
        config = _point_config(tmp_path, flags, scheme)
        assert main(["sweep", "--config", config, "--out", str(tmp_path / "point.csv")]) == 0
        [row] = load_csv(tmp_path / "point.csv")
        assert (row.r_u, row.r_d, row.r_eq) == pytest.approx(
            (payload["r_u"], payload["r_d"], payload["r_eq"]), rel=1e-8
        )


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scheme", ["hd_cran", "fd_cran", "fd_cran_sic"])
def test_a_quantization_noise_that_overflows_is_a_numeric_error(tmp_path, capsys, scheme):
    # sigma_u^2 = (1 + (1 + 2 alpha^2) P_u + ...) / (2**0.01 - 1) is past the
    # float range at 3082 dB, yet the uplink SNR P_u / (1 + sigma_u^2) tends
    # to a positive limit as P_u grows, so a zero rate would be wrong
    flags = {"alpha": "0.49", "p-u-db": "3082", "c-u": "0.01"}
    argv = ["compute", f"--scheme={scheme}"] + [f"--{k}={v}" for k, v in flags.items()]
    assert main(argv) == 3
    message = "numeric error: sigma_u_sq overflows a float at the budgets p_u_max=1.58"
    assert message in capsys.readouterr().err
    config = _point_config(tmp_path, flags, scheme)
    assert main(["sweep", "--config", config, "--out", str(tmp_path / "inf.csv")]) == 3
    assert message in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scheme", ["hd_cran", "fd_cran", "fd_cran_sic"])
def test_a_subnormal_fronthaul_is_a_numeric_error(capsys, scheme):
    # below c_u = 8.9e-309, 1 / (2**c_u - 1) itself overflows a float: no
    # quantizer of the model passes nothing there, so no zero rate is right
    assert main(["compute", f"--scheme={scheme}", "--c-u=1e-320"]) == 3
    err = capsys.readouterr().err
    # the fronthaul is at fault, not the budgets
    assert "numeric error: sigma_u_sq overflows a float at c_u=1e-320" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_downlink_gain_past_the_float_range_leaves_half_duplex_as_it_is(tmp_path, capsys):
    # at beta_du = 9.4e153 C-RAN's 2 beta_du^2 (1 + R_g(2)) passes the float
    # range, but the half-duplex uplink carries no downlink (p_d = 0), so
    # hd_cran's rates are those of beta_du = 0, with or without --verify
    def rates(beta_du):
        assert main(["compute", "--scheme=hd_cran", f"--beta-du={beta_du}"]) == 0
        payload = json.loads(capsys.readouterr().out)
        return [payload[r] for r in ("r_u", "r_d", "r_eq")]

    want = rates("0")
    assert rates("9.4e153") == pytest.approx(want, rel=1e-12, abs=0)
    config = _point_config(tmp_path, {"beta-du": "9.4e153"}, "hd_cran")
    out = tmp_path / "point.csv"
    assert main(["sweep", "--config", config, "--verify", "--out", str(out)]) == 0
    [row] = load_csv(out)
    assert [row.r_u, row.r_d, row.r_eq] == pytest.approx(want, rel=1e-8, abs=0)
    assert row.oracle_r_u == pytest.approx(want[0], rel=1e-8, abs=0)
    # full duplex does interfere with the uplink, and its sigma_u^2 =
    # (1 + (1 + 2 alpha^2) p_u + 2 beta_du^2 (1 + R_g(2)) p_d) / (2**2000 - 1)
    # is about 2.39e-292 at c_u = 2000: a float, though the gain is not
    fronthaul = ["--c-u=2000", "--c-d=2000"]
    assert main(["compute", "--scheme=fd_cran", "--beta-du=9.4e153", *fronthaul]) == 0
    diag = json.loads(capsys.readouterr().out)["diagnostics"]
    rg2 = zf_constants(SweepBase().alpha)[1]
    want = 2.0 * (9.4e153 * 2.0**-1000) * (9.4e153 * 2.0**-1000) * (1.0 + rg2) * diag["p_d_star"]
    assert diag["sigma_u_sq"] == pytest.approx(want, rel=1e-12, abs=0)
    assert diag["sigma_u_sq"] == pytest.approx(2.39e-292, rel=0.01)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_verify_checks_the_uplink_past_c_u_1074(tmp_path, capsys):
    # 2**-1100 underflows, but sigma_u^2 = (received power) / (2**1100 - 1)
    # is about 2.28e177 here: the reported rates carry that noise, so the
    # ring oracle at the reported sigma_u^2 agrees with every row
    config = tmp_path / "q.cfg"
    config.write_text(
        "base.beta_du = 1e100\nbase.p_u_db = 3000\nbase.p_d_db = 3080\nbase.c_u = 1100\n"
        "sweep.var = gamma_ud\nsweep.start = 0\nsweep.stop = 1\nsweep.step = 1\n"
        "schemes = fd_cran, fd_cran_sic\n",
        encoding="utf-8",
    )
    out = tmp_path / "q.csv"
    assert main(["sweep", "--config", str(config), "--verify", "--out", str(out)]) == 0
    assert capsys.readouterr().err.count("verified ") == 2
    rows = load_csv(out)
    assert len(rows) == 4 and all(r.oracle_r_u == pytest.approx(r.r_u, abs=1e-9) for r in rows)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_finite_quantization_noise_at_a_huge_budget_keeps_its_rate(capsys):
    flags = ["--alpha=0.49", "--p-u-db=3000", "--c-u=5"]
    assert main(["compute", "--scheme=hd_cran"] + flags) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["r_u"] == pytest.approx(3.776, abs=1e-3)
    assert payload["diagnostics"]["sigma_u_sq"] > 1e298
    # c_u = 0 passes nothing at any budget: sigma_u^2 = inf and rate 0
    assert main(["compute", "--scheme=hd_cran", "--alpha=0.49", "--p-u-db=3082", "--c-u=0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["r_u"] == 0.0 and payload["diagnostics"]["sigma_u_sq"] is None


def test_compute_rejects_bad_gain(capsys):
    assert main(["compute", "--scheme", "hd_scp", "--alpha", "-1"]) == 2
    assert "config error" in capsys.readouterr().err


def test_compute_zf_singularity_is_numeric_error(capsys):
    assert main(["compute", "--scheme", "hd_cran", "--alpha", "0.6"]) == 3
    assert "numeric error" in capsys.readouterr().err


def test_sweep_writes_csv_and_svg(tmp_path):
    config = tmp_path / "sweep.cfg"
    config.write_text(TINY_CONFIG, encoding="utf-8")
    out = tmp_path / "rates.csv"
    svg = tmp_path / "rates.svg"
    code = main(
        ["sweep", "--config", str(config), "--out", str(out), "--svg", str(svg)]
    )
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + 2 * 3  # 2 sweep values x 3 schemes
    assert svg.read_text(encoding="utf-8").count("<polyline") == 3


def test_sweep_requires_config_or_preset(capsys):
    assert main(["sweep", "--out", "x.csv"]) == 2
    assert "config error" in capsys.readouterr().err


def test_sweep_rejects_bad_config(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("base.alpha = banana\n", encoding="utf-8")
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "x.csv")]) == 2
    assert "line 1" in capsys.readouterr().err


def test_sweep_rejects_the_removed_sic_key(tmp_path, capsys):
    # the *_sic scheme ids choose the receiver; a sweep-wide key no longer exists
    config = tmp_path / "sic.cfg"
    config.write_text(TINY_CONFIG + "sic = on\n", encoding="utf-8")
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "x.csv")]) == 2
    assert "unknown key 'sic'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["compute", "sweep"])
def test_grid_flag_is_an_unknown_argument(command, tmp_path, capsys):
    # the SIC search has no resolution to set, so neither command takes --grid
    out = tmp_path / "x.csv"
    argv = {
        "compute": ["compute", "--scheme", "fd_scp_sic"],
        "sweep": ["sweep", "--preset", "fig2", "--out", str(out)],
    }[command]
    with pytest.raises(SystemExit) as exited:
        main(argv + ["--grid", "16"])
    assert exited.value.code == 2
    assert "unrecognized arguments: --grid 16" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_missing_config_file(tmp_path):
    assert main(["sweep", "--config", str(tmp_path / "nope.cfg"), "--out", "x.csv"]) == 2


@pytest.mark.parametrize("flag", ["--out", "--svg"])
def test_sweep_output_that_cannot_be_written_is_a_config_error(flag, tmp_path, capsys):
    config = tmp_path / "sweep.cfg"
    config.write_text(TINY_CONFIG, encoding="utf-8")
    paths = {"--out": str(tmp_path / "rates.csv"), "--svg": str(tmp_path / "rates.svg")}
    paths[flag] = str(tmp_path / "nonexistent" / "x")
    argv = ["sweep", "--config", str(config)]
    for name, path in paths.items():
        argv += [name, path]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write output: ") and paths[flag] in err


def test_sweep_numeric_overrides(tmp_path):
    config = tmp_path / "sweep.cfg"
    config.write_text(TINY_CONFIG, encoding="utf-8")
    out = tmp_path / "rates.csv"
    code = main(["sweep", "--config", str(config), "--out", str(out)])
    assert code == 0


def test_sweep_verify_passes(tmp_path):
    config = tmp_path / "sweep.cfg"
    config.write_text(TINY_CONFIG, encoding="utf-8")
    out = tmp_path / "rates.csv"
    code = main(["sweep", "--config", str(config), "--out", str(out), "--verify"])
    assert code == 0
    header = out.read_text(encoding="utf-8").splitlines()[0]
    assert header.endswith(",oracle_r_u,oracle_r_eq")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_fig3_verify_passes(tmp_path, capsys):
    # the certified oracle bounds each full-duplex optimum by branch and bound
    # and also scores the reported argmax, so the honest rows pass
    out = tmp_path / "fig3.csv"
    assert main(["sweep", "--preset", "fig3", "--out", str(out), "--verify"]) == 0
    # a passing run names each checked scheme's worst oracle gap and its row
    lines = capsys.readouterr().err.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        f"verified {s}" for s in ("hd_cran", "fd_scp", "fd_scp_sic", "fd_cran", "fd_cran_sic")
    ]
    for line in lines:
        gap = float(line.split(" gap ")[1].split(" at ")[0])
        assert 0.0 <= gap <= ORACLE_RATE_TOL
        assert " at gamma_ud=" in line
    # all four full-duplex schemes are certified: each names its eps and the
    # cells its oracle bounded
    certified = [line for line in lines if "; certified to eps 1e-09 over " in line]
    assert [line.split(":")[0] for line in certified] == [
        f"verified {s}" for s in ("fd_scp", "fd_scp_sic", "fd_cran", "fd_cran_sic")
    ]
    for line in certified:
        assert int(line.split(" over ")[1].split(" cells")[0].replace(",", "")) > 0


@pytest.mark.parametrize("p_u_db", [150, 200])
def test_the_sic_search_reaches_the_certified_optimum_at_large_budgets(tmp_path, capsys, p_u_db):
    # the paper base with a huge uplink budget: the SIC optimum lies at p_u
    # of order 10-1000, far below the budget, on the edge p_d = P_d, where
    # the search and the certificate both find it
    text = (
        f"base.p_u_db = {p_u_db}\nsweep.var = gamma_ud\nsweep.start = 4\nsweep.stop = 4\n"
        "schemes = fd_scp_sic, fd_cran_sic\n"
    )
    config = tmp_path / "large.cfg"
    config.write_text(text, encoding="utf-8")
    out = tmp_path / "large.csv"
    assert main(["sweep", "--config", str(config), "--out", str(out), "--verify"]) == 0
    assert capsys.readouterr().err.startswith("verified fd_scp_sic: ")
    assert [r.r_eq for r in load_csv(out)] == [1.92381243, 4.22767118]
    scp, _ = fdcran.sweep.run_sweep(replace(parse_config(text), oracle=True))
    assert scp.oracle_r_eq <= scp.r_eq <= scp.oracle_r_eq + scp.oracle_eps


def test_fig2_verify_issues_no_runtime_warning(tmp_path):
    # fig2 starts at c_u = c_d = 0, where the uplink quantization noise is inf
    out = tmp_path / "fig2.csv"
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "fdcran", "sweep",
         "--preset", "fig2", "--verify", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 5 and all(line.startswith("verified ") for line in lines), lines
    rows = load_csv(out)
    zero = [r for r in rows if r.value == 0.0 and r.scheme is SchemeId.FD_CRAN]
    assert [(r.r_eq, r.oracle_r_eq) for r in zero] == [(0.0, 0.0)]


def test_sweep_verify_failure_exit_code(tmp_path, capsys, monkeypatch):
    # force a disagreement to exercise the failure path end to end: 99 for
    # each element, an array of alpha's shape as the oracle returns
    monkeypatch.setattr(
        fdcran.sweep, "circulant_uplink_rate", lambda alpha, *a, **k: np.full(alpha.shape, 99.0)
    )
    config = tmp_path / "sweep.cfg"
    config.write_text(TINY_CONFIG, encoding="utf-8")
    out = tmp_path / "rates.csv"
    code = main(["sweep", "--config", str(config), "--out", str(out), "--verify"])
    assert code == 4
    assert "verification failed" in capsys.readouterr().err
    assert out.exists()  # data still written for inspection


ALPHA_CONFIG = (
    "sweep.var = alpha\nsweep.start = 0\nsweep.stop = 0.4995\nsweep.step = 0.0045\nschemes = all\n"
)

# --verify configs at the edges of the domain, each run in process
VERIFY_CONFIGS = {
    # 112 values over two blocks, up to alpha = 0.4995
    "alpha": ALPHA_CONFIG,
    # alpha next to 1/2, where the zero-forcing constants grow
    "alpha_near_half": (
        "base.alpha = 0.49999\nsweep.var = alpha\nsweep.start = 0.4999\nsweep.stop = 0.49999\n"
        "sweep.step = 0.00003\nschemes = hd_cran, fd_cran, fd_cran_sic\n"
    ),
    # gamma_ud sweeps at 3000 dB next to the zero-forcing limit
    "zf_edge_a": (
        "base.alpha = 0.4999999\nbase.p_u_db = 3000\nbase.p_d_db = 3000\nbase.c_u = 2000\n"
        "base.c_d = 2000\nsweep.var = gamma_ud\nsweep.start = 0\nsweep.stop = 1\n"
        "sweep.step = 0.5\nschemes = hd_cran, fd_cran, fd_cran_sic\n"
    ),
    "zf_edge_b": (
        "base.alpha = 0.4999999989\nbase.p_u_db = 3000\nbase.p_d_db = 3000\nbase.c_u = 2000\n"
        "base.c_d = 2000\nsweep.var = gamma_ud\nsweep.start = 0\nsweep.stop = 1\n"
        "sweep.step = 1\nschemes = all\n"
    ),
    # the C-RAN schemes at 3080/3000 dB, s near 1e308 included
    "huge_cran": (
        "base.p_u_db = 3080\nbase.p_d_db = 3000\nbase.c_u = 2000\nsweep.var = gamma_ud\n"
        "sweep.start = 0\nsweep.stop = 3\nsweep.step = 1\nschemes = hd_cran, fd_cran, fd_cran_sic\n"
    ),
    # a t2 SINR past the float range
    "t2": (
        "base.alpha = 0\nbase.beta_ud = 0\nbase.gamma_ud = 1e100\nbase.p_u_db = 3000\n"
        "base.p_d_db = 3000\nbase.c_u = 2000\nbase.c_d = 2000\nsweep.var = beta_du\n"
        "sweep.start = 0\nsweep.stop = 0.4\nsweep.step = 0.2\n"
        "schemes = fd_scp, fd_scp_sic, fd_cran, fd_cran_sic\n"
    ),
    # 2 beta_du^2 (1 + R_g(2)) past the float range
    "beta_du_big": (
        "base.beta_du = 9.4e153\nbase.c_u = 2000\nbase.c_d = 2000\nsweep.var = gamma_ud\n"
        "sweep.start = 0\nsweep.stop = 4\nsweep.step = 1\nschemes = all\n"
    ),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("text", VERIFY_CONFIGS.values(), ids=VERIFY_CONFIGS)
def test_a_verify_config_at_the_domain_edge_certifies_finite_rates(text, tmp_path, capsys):
    # one line per scheme with an oracle (all but hd_scp), in enum order and
    # nothing else; each full-duplex scheme certified; every rate finite
    config, out = tmp_path / "edge.cfg", tmp_path / "edge.csv"
    config.write_text(text, encoding="utf-8")
    assert main(["sweep", "--config", str(config), "--verify", "--out", str(out)]) == 0
    lines = capsys.readouterr().err.splitlines()
    checked = [s.value for s in parse_config(text).schemes if s is not SchemeId.HD_SCP]
    assert [line.split(":")[0] for line in lines] == [f"verified {s}" for s in checked]
    for scheme, line in zip(checked, lines):
        if scheme.startswith("fd_"):
            assert re.search(r"; certified to eps 1e-09 over [0-9,]+ cells$", line), line
    rows = load_csv(out)
    assert all(v is not None and math.isfinite(v) for r in rows for v in (r.r_u, r.r_d, r.r_eq))


@pytest.mark.parametrize("config", [None, ALPHA_CONFIG], ids=["fig3", "alpha"])
def test_verify_catches_a_quantizer_that_divides_by_2_to_the_c_u(
    config, tmp_path, capsys, monkeypatch
):
    # the uplink quantization noise per unit of power is 1 / (2**c_u - 1);
    # this fault's 1 / 2**c_u moves fig3's and the 112-value alpha sweep's
    # rates by at most 2e-4, which --verify must still catch
    def faulty(c):
        if c <= 0.0:
            return math.inf, 0
        shift = min(max(math.floor(c) - 1000, 0), 1100)
        return 2.0 ** (shift - c), shift

    monkeypatch.setattr(fdcran.rates, "_per_unit_quantization", faulty)
    source = ["--preset", "fig3"]
    if config is not None:
        (tmp_path / "sweep.cfg").write_text(config, encoding="utf-8")
        source = ["--config", str(tmp_path / "sweep.cfg")]
    out = tmp_path / "rates.csv"
    assert main(["sweep", *source, "--out", str(out), "--verify"]) == 4
    assert "verification failed" in capsys.readouterr().err


@pytest.mark.parametrize("taken", list(SicMode), ids=lambda r: r.value)
def test_verify_catches_a_receiver_mix_up_in_the_family_search(
    taken, tmp_path, capsys, monkeypatch
):
    # one search serves both full-duplex receivers of a family: handing
    # every full-duplex row the treat-as-noise argmax, which loses the SIC
    # rows M's optimum, or the SIC argmax, off the treat-as-noise optimum,
    # fails fig3's --verify, and only on the other receiver's rows
    search = fdcran.rates._max_min_search

    def mixed_up(k, p_u_max, p_d_max, receivers):
        found = search(k, p_u_max, p_d_max, tuple(SicMode))
        return {r: found[taken] for r in receivers if r is not None}

    monkeypatch.setattr(fdcran.rates, "_max_min_search", mixed_up)
    out = tmp_path / "rates.csv"
    assert main(["sweep", "--preset", "fig3", "--out", str(out), "--verify"]) == 4
    header, *failures = capsys.readouterr().err.splitlines()
    assert header == "verification failed:" and failures
    wronged = {s.value for s, (_, r) in SCHEMES.items() if r not in (None, taken)}
    assert {line.split()[0] for line in failures} == wronged


def test_module_entry_point(tmp_path, capsys):
    # python -m fdcran exits with main's code, its standard streams flushed
    # with what main prints in-process
    config = tmp_path / "tiny.cfg"
    config.write_text(TINY_CONFIG, encoding="utf-8")
    cases = [
        (["compute", "--scheme", "hd_scp"], 0),
        (["sweep", "--config", str(config), "--verify", "--out", str(tmp_path / "{}.csv")], 0),
        (["compute", "--scheme", "hd_cran", "--p-u-db", "4000"], 2),
        (["sweep", "--config", str(tmp_path / "missing.cfg"), "--out", str(tmp_path / "x.csv")], 2),
        (["compute", "--scheme", "fd_scp", "--gamma-ud", "1e300"], 3),
    ]
    for argv, code in cases:
        proc = subprocess.run(
            [sys.executable, "-m", "fdcran", *(a.format("child") for a in argv)],
            capture_output=True,
            text=True,
        )
        assert main([a.format("main") for a in argv]) == code
        printed = capsys.readouterr()
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, printed.out, printed.err)
        assert proc.stdout or proc.stderr
    assert (tmp_path / "child.csv").read_bytes() == (tmp_path / "main.csv").read_bytes()


@pytest.mark.parametrize("flag", ["--p-u-db", "--p-d-db"])
def test_huge_db_budget_is_config_error(tmp_path, capsys, flag):
    # 10**(4000/10) overflows a float; the budget reads as inf and is rejected,
    # by compute naming its dB field, in a config at its line, also on a sweep
    # that sets the linear budgets
    field = flag[2:].replace("-", "_")
    assert main(["compute", "--scheme=hd_scp", f"{flag}=4000"]) == 2
    assert capsys.readouterr().err == (
        f"config error: field {field!r}: must be finite in linear units, got 4000.0 dB\n"
    )
    key = f"base.{field}"
    config = tmp_path / "huge.cfg"
    out = tmp_path / "rates.csv"
    for var in ("c_u_c_d_joint", "p_db_joint"):
        text = TINY_CONFIG + f"sweep.var = {var}\n{key} = 4000\n"
        config.write_text(text, encoding="utf-8")
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"line {text.count(chr(10))}, field {key!r}: must be finite" in err
        assert not out.exists()


@pytest.mark.parametrize("flag", ["--alpha", "--beta-du", "--beta-ud", "--gamma-ud"])
def test_compute_gain_overflow_is_numeric_error(tmp_path, capsys, flag):
    # the power gain 1e300**2 overflows a Python float
    assert main(["compute", "--scheme=fd_scp", f"{flag}=1e300"]) == 3
    assert "numeric error: float overflow" in capsys.readouterr().err
    field = flag[2:].replace("-", "_")
    config = tmp_path / "overflow.cfg"
    config.write_text(TINY_CONFIG + f"base.{field} = 1e300\n", encoding="utf-8")
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "rates.csv")]) == 3
    assert f"numeric error: float overflow: {field}=1e+300" in capsys.readouterr().err


# each draw sets some flags inside the paper's domain and one or two to an
# extreme: a huge, tiny, negative, nan or infinite value, or alpha >= 0.5
_IN_DOMAIN = {
    "--alpha": st.floats(0.0, 0.499),
    "--beta-du": st.floats(0.0, 1.0),
    "--beta-ud": st.floats(0.0, 0.3),
    "--gamma-du": st.just(0.0),
    "--gamma-ud": st.floats(0.0, 8.0),
    "--p-u-db": st.floats(-30.0, 40.0),
    "--p-d-db": st.floats(-30.0, 40.0),
    "--c-u": st.floats(0.0, 12.0),
    "--c-d": st.floats(0.0, 12.0),
}
_EXTREME = st.one_of(
    st.sampled_from([0.0, 1e-300, 0.5, 1000.0, 3083.0, 4000.0, 1e300, -1.0, -4000.0]),
    st.sampled_from([math.inf, -math.inf, math.nan]),
    st.floats(0.5, 2.0),
    st.floats(allow_nan=True, allow_infinity=True),
)


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(
    scheme=st.sampled_from([s.value for s in SchemeId]),
    in_domain=st.fixed_dictionaries({}, optional=_IN_DOMAIN),
    extreme=st.dictionaries(st.sampled_from(sorted(_IN_DOMAIN)), _EXTREME, min_size=1, max_size=2),
)
def test_compute_exits_with_a_documented_code(scheme, in_domain, extreme):
    flags = {**in_domain, **extreme}
    # flag=value keeps argparse from reading a negative number as an option
    argv = ["compute", f"--scheme={scheme}"] + [f"{k}={v!r}" for k, v in flags.items()]
    assert main(argv) in (0, 2, 3)


def test_a_sweep_whose_x_span_underflows_a_tick_step_still_gets_its_chart(tmp_path):
    # the span 5e-324 divided by six ticks underflows to 0, where the chart
    # took log10(0) and the run exited 2 ("config error: math domain error")
    # after the CSV was written
    config = tmp_path / "tiny.cfg"
    config.write_text(
        "sweep.var = c_u_c_d_joint\nsweep.start = 0\nsweep.stop = 5e-324\n"
        "sweep.step = 5e-324\nschemes = hd_scp\n"
    )
    out, chart = tmp_path / "tiny.csv", tmp_path / "tiny.svg"
    assert main(["sweep", "--config", str(config), "--out", str(out), "--svg", str(chart)]) == 0
    assert [row.value for row in load_csv(out)] == [0.0, 5e-324]
    text = chart.read_text(encoding="utf-8")
    assert text.count("<circle") == 2 and text.count("<polyline") == 1
