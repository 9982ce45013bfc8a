"""compute_batch, the one row path of every scheme: every point of a batch
gets exactly the result it gets alone, a sweep's rows are those results, a
failing block reports its first failing row, and no kernel call of the
search outgrows a block's edge search.  Nothing splits a kernel call: the
sweep's block size is what bounds it, for every sweep alike, and a
half-duplex sweep's blocks need no numpy."""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest

import fdcran.rates as rates
import fdcran.sweep as sweep
from fdcran.config import SWEEP_VARS, SweepSpec, preset_spec
from fdcran.model import NumericDomainError, PowerAllocation, SchemeId, ZfSingularError
from fdcran.rates import compute_batch, compute_scheme, fd_cran_uplink, hd_cran_uplink
from fdcran.spectral import zf_precoder
from fdcran.sweep import run_sweep
from test_solver_properties import DOMAIN

# the domain points, the budget and fronthaul edges of SystemParams, and
# rounding traps: numpy's vector loops can round alpha**2 at these alphas, and
# 2.0**-c or expm1(-c ln 2) at these capacities, otherwise than CPython does,
# and sigma_u^2's 2.0**(n - c_u) past c_u = 1001 otherwise than numpy's scalars
MIXED = DOMAIN + [
    replace(DOMAIN[0], p_u_max=0.0, c_u=0.0),
    replace(DOMAIN[1], p_d_max=0.0, c_u=2000.0, c_d=1e-300),
    replace(DOMAIN[2], p_u_max=0.0, p_d_max=0.0),
    replace(DOMAIN[3], c_u=1e-300, c_d=0.0),
    replace(DOMAIN[4], alpha=0.1977088984502399, c_u=0.3, c_d=0.65),
    replace(DOMAIN[5], alpha=0.28344031331834535, c_u=0.6, c_d=1.1),
    replace(DOMAIN[6], alpha=0.1977088984502399, c_u=0.65, c_d=1.4),
    replace(DOMAIN[7], alpha=0.28344031331834535, c_u=1.1, c_d=0.3),
    replace(DOMAIN[8], c_u=1.4, c_d=0.6),
    replace(DOMAIN[9], c_u=1001.1),
]


@pytest.mark.parametrize("scheme", SchemeId, ids=lambda s: s.value)
def test_batch_equals_each_point_alone(scheme):
    batch = compute_batch(scheme, MIXED)
    alone = [compute_scheme(scheme, p) for p in MIXED]
    for got, want in zip(batch, alone):
        assert (got.r_u, got.r_d, got.r_eq) == (want.r_u, want.r_d, want.r_eq)
        assert got.diagnostics == want.diagnostics


def test_hd_cran_sigma_d_sq_keeps_cpython_rounding():
    # 2.0**-c_d of each point as CPython rounds it, where numpy's power or
    # exp2 loops round 0.3, 0.65 or 1.1 otherwise
    points = [replace(DOMAIN[0], c_d=c) for c in (0.3, 0.65, 1.1)]
    for params, result in zip(points, compute_batch(SchemeId.HD_CRAN, points)):
        assert result.diagnostics["sigma_d_sq"] == params.p_d_max * 2.0**-params.c_d


def test_the_public_cran_uplinks_report_the_rows_sigma_u_sq():
    # sigma_u^2's 2.0**(n - c_u) is taken per point past c_u = 1001, in the
    # public uplink functions as in a batch
    for params, result in zip(MIXED, compute_batch(SchemeId.HD_CRAN, MIXED)):
        assert hd_cran_uplink(params) == (result.r_u, result.diagnostics["sigma_u_sq"])
    for params in MIXED:
        result = compute_scheme(SchemeId.FD_CRAN, params, full_power=True)
        budgets = PowerAllocation(params.p_u_max, params.p_d_max)
        got = fd_cran_uplink(params, budgets, zf_precoder(params.alpha))
        assert got == (result.r_u, result.diagnostics["sigma_u_sq"])


@pytest.mark.parametrize("sweep_var", SWEEP_VARS)
def test_sweep_rows_equal_compute_scheme(sweep_var):
    # the swept field is the block's one varying column, and every other
    # field a float the block's points share
    spec = SweepSpec(sweep_var=sweep_var, start=0.0, stop=0.45, step=0.15)
    rows = run_sweep(spec)
    assert len({r.value for r in rows}) == 4
    for row in rows:
        want = compute_scheme(row.scheme, spec.params_at(row.value))
        diag = want.diagnostics
        assert (row.r_u, row.r_d, row.r_eq) == (want.r_u, want.r_d, want.r_eq)
        assert (row.sigma_u_sq, row.sigma_d_sq, row.p_u_star, row.p_d_star, row.f_star) == (
            diag.get("sigma_u_sq"),
            diag.get("sigma_d_sq"),
            diag.get("p_u_star"),
            diag.get("p_d_star"),
            diag.get("f_star"),
        )


def test_the_replay_reports_a_half_duplex_row_that_fails_first():
    # at 3082 dB sigma_u^2 overflows for every C-RAN row; hd_cran, first in
    # (value, scheme) order, checks it at (P_u, 0), where the full-duplex
    # C-RAN rows check both budgets
    base = replace(SweepSpec().base, alpha=0.49, c_u=0.01)
    spec = SweepSpec(base=base, sweep_var="p_db_joint", start=3000.0, stop=3082.0, step=82.0)
    with pytest.raises(NumericDomainError, match="p_d_max=0.0$"):
        run_sweep(spec)


def test_sweeps_longer_than_a_block_keep_every_row():
    spec = SweepSpec(
        sweep_var="gamma_ud", start=0.0, stop=8.0, step=0.1,
        schemes=(SchemeId.HD_SCP, SchemeId.FD_SCP),
    )
    rows = run_sweep(spec)
    assert [(r.value, r.scheme) for r in rows] == [
        (v, s) for v in spec.values() for s in spec.schemes
    ]
    assert len(spec.values()) > 64
    for row in rows[-4:]:
        assert row.r_eq == compute_scheme(row.scheme, spec.params_at(row.value)).r_eq


def _recording(monkeypatch):
    # record the size of every numpy call of the uplink kernel, which serves
    # both families; every objective evaluation of the search calls it once
    kernel = rates._uplink
    sizes = []

    def recording(xp, k, p_u, p_d):
        if xp is not rates._MATH:
            sizes.append(np.broadcast(p_u, p_d).size)
        return kernel(xp, k, p_u, p_d)

    monkeypatch.setattr(rates, "_uplink", recording)
    return sizes


@pytest.mark.parametrize(
    "scheme", [SchemeId.FD_SCP_SIC, SchemeId.FD_CRAN_SIC], ids=lambda s: s.value
)
def test_a_full_block_calls_no_kernel_above_a_one_point_scan(scheme, monkeypatch):
    # a sweep of one full block: its largest call is its edge search, which
    # stacks the block's one-point edge scans (both edges of every point at
    # len(_WINDOW) samples), and no call outgrows that stack
    sizes = _recording(monkeypatch)
    fig3 = preset_spec("fig3")
    stop = fig3.start + (sweep._BLOCK - 1) * fig3.step
    run_sweep(replace(fig3, stop=stop, schemes=(scheme,)))
    block_max = max(sizes)
    sizes.clear()
    compute_scheme(scheme, fig3.params_at(stop))
    assert max(sizes) == 2 * len(rates._WINDOW)
    assert block_max == sweep._BLOCK * max(sizes)


def test_kernel_calls_stay_within_a_one_point_search(monkeypatch):
    # a batch makes the calls of one point's search, each stacked over its
    # points: no call outgrows len(points) times the one-point search's
    # largest, and the batch makes fewer than a quarter of the calls of
    # separate solves
    sizes = _recording(monkeypatch)
    compute_scheme(SchemeId.FD_SCP_SIC, DOMAIN[5])
    one_point = (len(sizes), max(sizes))
    sizes.clear()
    compute_batch(SchemeId.FD_SCP_SIC, DOMAIN)
    assert one_point[1] == 2 * len(rates._WINDOW)
    assert max(sizes) == len(DOMAIN) * one_point[1]
    assert len(sizes) < len(DOMAIN) * one_point[0] / 4  # the batch shares its calls


# (start, stop, step) of a half-duplex sweep of each variable, each longer than
# a block, so its rows span blocks; the joint fronthaul sweep starts at 0,
# where f_star has no split and hd_cran's sigma_u^2 is inf
_HD_SWEEPS = {
    "c_u_c_d_joint": (0.0, 12.0, 0.1),
    "gamma_ud": (0.0, 8.0, 0.1),
    "alpha": (0.0, 0.495, 0.005),
    "beta_du": (0.0, 1.0, 0.01),
    "beta_ud": (0.0, 1.0, 0.01),
    "p_db_joint": (-10.0, 90.0, 1.0),
}


def _bits(*numbers) -> list:
    return [x if x is None else float(x).hex() for x in numbers]


@pytest.mark.parametrize("sweep_var", SWEEP_VARS)
def test_a_half_duplex_sweep_in_one_block_gives_each_row_its_lone_result(sweep_var):
    start, stop, step = _HD_SWEEPS[sweep_var]
    spec = SweepSpec(
        sweep_var=sweep_var, start=start, stop=stop, step=step,
        schemes=(SchemeId.HD_SCP, SchemeId.HD_CRAN),
    )
    assert len(spec.values()) > sweep._BLOCK
    rows = run_sweep(spec)
    assert [(r.value, r.scheme) for r in rows] == [
        (v, s) for v in spec.values() for s in spec.schemes
    ]
    for row in rows:
        want = compute_scheme(row.scheme, spec.params_at(row.value))
        diag = want.diagnostics
        assert _bits(row.r_u, row.r_d, row.r_eq, row.sigma_u_sq, row.sigma_d_sq, row.f_star) == (
            _bits(
                want.r_u, want.r_d, want.r_eq, diag.get("sigma_u_sq"), diag.get("sigma_d_sq"),
                diag.get("f_star"),
            )
        )
        assert row.p_u_star is None and row.p_d_star is None
    if sweep_var == "c_u_c_d_joint":
        scp, cran = rows[:2]
        assert scp.f_star is None and cran.f_star is None
        assert cran.sigma_u_sq == math.inf


def test_a_long_half_duplex_sweep_runs_without_numpy(monkeypatch):
    # hd_domain's sweep length: 834 values in 14 blocks, each scheme's rows
    # of a block from one solve, every row in floats; with numpy's import
    # blocked, no row reaches for it
    spec = SweepSpec(
        sweep_var="alpha", start=0.0, stop=0.4995, step=0.4995 / 833,
        schemes=(SchemeId.HD_SCP, SchemeId.HD_CRAN),
    )
    assert len(spec.values()) == 834
    sizes = {}
    solve = sweep._solve

    def counted(family, sic, points):
        sizes.setdefault(family, []).append(len(points))
        return solve(family, sic, points)

    monkeypatch.setattr(sweep, "_solve", counted)
    monkeypatch.setitem(sys.modules, "numpy", None)
    with pytest.raises(ImportError):
        import numpy  # noqa: F401
    rows = run_sweep(spec)
    assert [(r.value, r.scheme) for r in rows] == [
        (v, s) for v in spec.values() for s in spec.schemes
    ]
    assert sizes == {"scp": [64] * 13 + [2], "cran": [64] * 13 + [2]}


def test_a_half_duplex_block_reports_its_first_singular_alpha():
    # 101 values in two blocks: alpha = 0.501, row 67 and in the second, is
    # the first at or above 1/2
    spec = SweepSpec(
        sweep_var="alpha", start=0.3, stop=0.6, step=0.003, schemes=(SchemeId.HD_CRAN,)
    )
    values = spec.values()
    assert len(values) == 101 and values[67] == 0.501 and max(values[:67]) < 0.5
    with pytest.raises(ZfSingularError) as err:
        run_sweep(spec)
    assert err.value.alpha == 0.501


@pytest.mark.parametrize("scheme", SchemeId, ids=lambda s: s.value)
def test_an_empty_batch_gives_no_results(scheme):
    assert compute_batch(scheme, []) == []
