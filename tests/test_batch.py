"""compute_batch, the one row path of every scheme: every point of a batch
gets exactly the result it gets alone, a sweep's rows are those results, the
replay of a failing block reports its first failing row, and no kernel call
outgrows a one-point search.  Nothing splits a kernel call: the sweep's block
size and the search's one-point curve scans are what bound it."""

from dataclasses import replace

import numpy as np
import pytest

import fdcran.rates as rates
import fdcran.sweep as sweep
from fdcran.model import NumericDomainError, SchemeId
from fdcran.rates import DEFAULT_GRID, compute_batch, compute_scheme
from fdcran.sweep import SweepSpec, preset_spec, run_sweep
from test_solver_properties import DOMAIN

# the domain points plus the budget and fronthaul edges of SystemParams
MIXED = DOMAIN + [
    replace(DOMAIN[0], p_u_max=0.0, c_u=0.0),
    replace(DOMAIN[1], p_d_max=0.0, c_u=2000.0, c_d=1e-300),
    replace(DOMAIN[2], p_u_max=0.0, p_d_max=0.0),
    replace(DOMAIN[3], c_u=1e-300, c_d=0.0),
]


@pytest.mark.parametrize("scheme", SchemeId, ids=lambda s: s.value)
def test_batch_equals_each_point_alone(scheme):
    batch = compute_batch(scheme, MIXED)
    alone = [compute_scheme(scheme, p) for p in MIXED]
    for got, want in zip(batch, alone):
        assert (got.r_u, got.r_d, got.r_eq) == (want.r_u, want.r_d, want.r_eq)
        assert got.diagnostics == want.diagnostics


def test_alpha_sweep_rows_equal_compute_scheme():
    spec = SweepSpec(sweep_var="alpha", start=0.0, stop=0.45, step=0.15)
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


def test_kernel_calls_stay_within_a_one_point_search(monkeypatch):
    # every objective evaluation of the search calls the family's uplink kernel
    # once (a point of Gamma twice); DOMAIN[5] is one of the points whose
    # decode-first bound is not attained, so its search falls back to the
    # scans of the budget edges and Gamma
    sizes = []
    kernel = rates._scp_uplink

    def recording(k, p_u, p_d):
        sizes.append(np.broadcast(p_u, p_d).size)
        return kernel(k, p_u, p_d)

    monkeypatch.setattr(rates, "_scp_uplink", recording)
    compute_scheme(SchemeId.FD_SCP_SIC, DOMAIN[5])
    one_point = (len(sizes), max(sizes))
    sizes.clear()
    compute_batch(SchemeId.FD_SCP_SIC, DOMAIN)
    assert one_point[1] == DEFAULT_GRID**2
    assert max(sizes) == one_point[1]
    assert len(sizes) < len(DOMAIN) * one_point[0] / 4  # the batch shares its calls


@pytest.mark.parametrize(
    "scheme", [SchemeId.FD_SCP_SIC, SchemeId.FD_CRAN_SIC], ids=lambda s: s.value
)
def test_a_full_block_calls_no_kernel_above_a_one_point_scan(scheme, monkeypatch):
    # a sweep of one full block: its edge searches evaluate every point on
    # both edges at len(_WINDOW) samples in one call, and points of it fall
    # back to the scans of DEFAULT_GRID**2 values, taken one point at a time
    name = f"_{rates.SCHEMES[scheme][0]}_uplink"
    kernel = getattr(rates, name)
    sizes = []

    def recording(k, p_u, p_d):
        sizes.append(np.broadcast(p_u, p_d).size)
        return kernel(k, p_u, p_d)

    monkeypatch.setattr(rates, name, recording)
    fig3 = preset_spec("fig3")
    stop = fig3.start + (sweep._BLOCK - 1) * fig3.step
    run_sweep(replace(fig3, stop=stop, schemes=(scheme,)))
    assert sweep._BLOCK * 2 * rates._WINDOW.size in sizes
    assert max(sizes) == DEFAULT_GRID**2  # the fallback ran
