"""Seeded properties of the full-duplex max-min power solver over the paper's
parameter domain, each checked against a dense grid that shares no code with
the solver's search objective, and of the bound that the SIC search solves
first: it does not fall as both powers scale up, and solving it loses
nothing against the fallback search of the budget edges and Gamma alone,
whose premise, lines of constant uplink SINR, holds for both families."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fdcran.rates as rates
from fdcran.model import NumericDomainError, SchemeId, SystemParams, db_to_linear
from fdcran.oracle import exhaustive_power_opt
from fdcran.rates import SicMode, compute_batch, fd_cran, fd_scp
from fdcran.spectral import h_tilde, rate_closed_form, rate_integral, rg, zf_precoder
from fdcran.sweep import preset_spec
from test_domain_properties import EXAMPLES, domain, huge_db

TAN = SicMode.TREAT_AS_NOISE
SIC = SicMode.SIC
POINTS = 20
SCP_GRID = 512  # exhaustive_power_opt resolution
CRAN_GRID = 256
CRAN_PANELS = 128  # quadrature converges to ~1e-14 here for alpha < 0.45


def _domain_points():
    rng = np.random.default_rng(2014)

    def capacity():
        return 1000.0 if rng.random() < 0.2 else float(rng.uniform(0.0, 12.0))

    return [
        SystemParams(
            alpha=float(rng.uniform(0.0, 0.45)),
            beta_du=float(rng.uniform(0.0, 1.0)),
            beta_ud=float(rng.uniform(0.0, 0.3)),
            gamma_du=0.0,
            gamma_ud=float(rng.uniform(0.0, 8.0)),
            p_u_max=db_to_linear(float(rng.uniform(0.0, 30.0))),
            p_d_max=db_to_linear(float(rng.uniform(0.0, 30.0))),
            c_u=capacity(),
            c_d=capacity(),
        )
        for _ in range(POINTS)
    ]


DOMAIN = _domain_points()


def _fd_cran_grid_max(params, precoder) -> tuple[float, float]:
    """(treat-as-noise, SIC) max-min of FD-C-RAN on a dense power grid, with
    the uplink integral by quadrature and the model's formulas written out."""
    a2 = params.alpha**2
    pu = np.linspace(0.0, params.p_u_max, CRAN_GRID)[:, None]
    pd = np.linspace(0.0, params.p_d_max, CRAN_GRID)[None, :]
    sigma_u = (
        1.0 + (1.0 + 2.0 * a2) * pu + 2.0 * params.beta_du**2 * (1.0 + rg(precoder, 2)) * pd
    ) / (2.0**params.c_u - 1.0)
    snr = np.broadcast_to(pu / (1.0 + sigma_u), (CRAN_GRID, CRAN_GRID))
    r_u = rate_integral(snr, params.alpha, CRAN_PANELS)
    signal = pd * (1.0 - 2.0**-params.c_d) * h_tilde(precoder, params.alpha, 0) ** 2
    den = 1.0 + pd * 2.0**-params.c_d * (1.0 + 2.0 * a2) + 2.0 * params.beta_ud**2 * pu
    g2pu = params.gamma_ud**2 * pu
    t1 = np.log2(1.0 + signal / den)
    t2 = np.log2(1.0 + (signal + g2pu) / den)
    t3 = np.log2(1.0 + signal / (den + g2pu))
    r_d_sic = np.minimum(t1, np.maximum(t2 - r_u, t3))
    return float(np.minimum(r_u, t3).max()), float(np.minimum(r_u, r_d_sic).max())


@pytest.mark.parametrize("index", range(POINTS))
def test_fd_scp_never_loses_to_the_exhaustive_grid(index):
    params = DOMAIN[index]
    tan, sic = fd_scp(params, TAN).r_eq, fd_scp(params, SIC).r_eq
    assert tan >= exhaustive_power_opt(params, TAN, SCP_GRID)[0] - 1e-6
    assert sic >= exhaustive_power_opt(params, SIC, SCP_GRID)[0] - 1e-6
    assert sic >= tan


@pytest.mark.parametrize("index", range(POINTS))
def test_fd_cran_never_loses_to_a_quadrature_grid(index):
    params = DOMAIN[index]
    precoder = zf_precoder(params.alpha)
    tan, sic = fd_cran(params, precoder, TAN).r_eq, fd_cran(params, precoder, SIC).r_eq
    grid_tan, grid_sic = _fd_cran_grid_max(params, precoder)
    assert tan >= grid_tan - 1e-6
    assert sic >= grid_sic - 1e-6
    assert sic >= tan


def test_fd_cran_sic_interior_optimum():
    # fig3 at gamma_ud = 3.5: the SIC optimum lies inside the power box, above
    # every point of both budget edges
    params = preset_spec("fig3").params_at(3.5)
    res = fd_cran(params, zf_precoder(params.alpha), SIC)
    assert res.r_eq >= 3.98323
    assert 0.0 < res.diagnostics["p_u_star"] < params.p_u_max
    assert 0.0 < res.diagnostics["p_d_star"] < params.p_d_max


@pytest.mark.parametrize("alpha", [0.0, 0.1, 0.25, 0.4, 0.45, 0.49, 0.49999])
def test_rate_closed_form_matches_quadrature(alpha):
    s = np.concatenate([[0.0], np.logspace(-8.0, 8.0, 161)])
    assert np.abs(rate_closed_form(s, alpha) - rate_integral(s, alpha, 4096)).max() <= 1e-12
    scalar = rate_closed_form(7.0, alpha)
    assert isinstance(scalar, float)
    assert scalar == pytest.approx(rate_integral(7.0, alpha, 4096), abs=1e-12)


# ----------------------------------------------------------------------------
# the decode-first bound M = min(r_u, t1, t2/2) of the SIC search


def _bound(family: str, params, p_u: float, p_d: float) -> float:
    """M at the powers (p_u, p_d), from the family's kernels in the point's unit."""
    of, _ = rates._consts(family, SIC, [params])
    k = of([0])  # the point's constants in plain floats
    uplink, downlink = rates._kernels(family)
    r_u = rates._at(uplink, k, p_u, p_d)
    return float(min(r_u, *rates._at(downlink, k, p_u, p_d, r_u, rates._BOUND)))


@settings(derandomize=True, max_examples=EXAMPLES, deadline=None, database=None)
@given(domain, huge_db, huge_db, st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_the_bound_does_not_fall_as_both_powers_scale_up(params, u_db, d_db, u, d, scale):
    # the premise that puts M's maximum on the budget edges; (u P_u, d P_d)
    # stays in the box, and scale <= 1 shrinks it towards the origin
    point = replace(params, p_u_max=db_to_linear(u_db), p_d_max=db_to_linear(d_db))
    p_u, p_d = u * point.p_u_max, d * point.p_d_max
    for family in ("scp", "cran"):
        try:
            high = _bound(family, point, p_u, p_d)
        except NumericDomainError:  # sigma_u^2 past the float range: no rates
            continue
        low = _bound(family, point, scale * p_u, scale * p_d)
        assert high >= low - 1e-12 * abs(low), family


@settings(derandomize=True, max_examples=EXAMPLES, deadline=None, database=None)
@given(
    domain, huge_db, huge_db, st.floats(0.0, 1.0),
    st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
)
def test_lines_of_constant_uplink_sinr_order_t1_and_t2_and_cross_gamma(params, u_db, d_db, u, f):
    # the premise that puts the decode-first optimum on the budget edges or on
    # Gamma: along p_u = x0 (1 + h p_d) the uplink kernel is constant and t1
    # and t2 are each monotone, and Gamma's point there has t2 - t1 = r_u;
    # SCP's downlink cap, which only flattens t1 and t2, is lifted
    point = replace(params, p_u_max=db_to_linear(u_db), p_d_max=db_to_linear(d_db))
    for family in ("scp", "cran"):
        at_point = replace(point, c_d=2000.0) if family == "scp" else point
        try:
            of, _ = rates._consts(family, SIC, [at_point])
        except NumericDomainError:  # sigma_u^2 past the float range: no rates
            continue
        k = of([0])
        if family == "cran" and k.quant == math.inf:  # c_u = 0: no uplink signal, no lines
            continue
        uplink, downlink = rates._kernels(family)
        h = (rates._scp_line if family == "scp" else rates._cran_line)(k)[0]
        u_max, d_max = at_point.p_u_max * k[-1], at_point.p_d_max * k[-1]  # kernel powers
        x0 = u * u_max
        end = d_max if x0 == 0.0 or h == 0.0 else min(d_max, (u_max / x0 - 1.0) / h)
        p_d = np.sort(f) * end  # three points of the line in the box
        p_u = x0 * (1.0 + h * p_d)
        r_u = uplink(k, p_u, p_d)
        assert np.ptp(r_u) <= 1e-12 * r_u.max(), family
        for t in downlink(k, p_u, p_d, r_u, rates._BOUND):  # t1, t2/2
            step = np.diff(t)
            tol = 1e-12 * np.abs(t).max()
            assert (step >= -tol).all() or (step <= tol).all(), family
        g_u, g_d = rates._crossing(family, k, u_max * np.logspace(-300.0, 0.0, 61))
        scored = (0.0 < g_d) & (g_d <= d_max) & (g_u <= u_max)  # as the search does
        g_u, g_d = g_u[scored], g_d[scored]
        r_u = uplink(k, g_u, g_d)
        t1, half = downlink(k, g_u, g_d, r_u, rates._BOUND)
        assert (np.abs(2.0 * half - t1 - r_u) <= 1e-9).all(), family


def _searched_by_curves_alone(monkeypatch) -> None:
    """Give every point an infinite decode-first bound, which no point
    attains, so that every SIC point goes through the search of the budget
    edges and Gamma."""
    edge_optimum = rates._edge_optimum

    def unbounded(evaluate, p_u_max, p_d_max):
        if len(evaluate(p_u_max[:, None, None], p_d_max[:, None, None])) == 3:  # M's terms
            return np.full(p_u_max.shape, np.inf), p_u_max, p_d_max
        return edge_optimum(evaluate, p_u_max, p_d_max)

    monkeypatch.setattr(rates, "_edge_optimum", unbounded)


SIC_SCHEMES = (SchemeId.FD_SCP_SIC, SchemeId.FD_CRAN_SIC)


@pytest.mark.parametrize("raise_db", [0.0, 20.0, 50.0])
@pytest.mark.parametrize("scheme", SIC_SCHEMES, ids=lambda s: s.value)
def test_the_bound_loses_nothing_against_the_row_scans_alone(monkeypatch, scheme, raise_db):
    gain = db_to_linear(raise_db)
    points = [replace(p, p_u_max=p.p_u_max * gain, p_d_max=p.p_d_max * gain) for p in DOMAIN]
    solved = [r.r_eq for r in compute_batch(scheme, points)]
    with monkeypatch.context() as patch:
        _searched_by_curves_alone(patch)
        scanned = [r.r_eq for r in compute_batch(scheme, points)]
    assert all(a >= b for a, b in zip(solved, scanned)), list(zip(solved, scanned))


def test_points_whose_bound_is_not_attained_still_reach_the_row_scans(monkeypatch):
    searched = []
    decode_first_search = rates._decode_first_search

    def counted(rates_of, crossing, p_u_max, p_d_max):
        searched.append(len(p_u_max))
        return decode_first_search(rates_of, crossing, p_u_max, p_d_max)

    monkeypatch.setattr(rates, "_decode_first_search", counted)
    fig3 = preset_spec("fig3")
    for scheme, point in (
        (SchemeId.FD_CRAN_SIC, fig3.params_at(3.5)),
        (SchemeId.FD_SCP_SIC, DOMAIN[5]),
        (SchemeId.FD_SCP_SIC, DOMAIN[17]),
    ):
        searched.clear()
        compute_batch(scheme, [point])
        assert searched == [1], (scheme, point)
    # fig2's SIC points all attain their bound or are settled by it
    fig2 = preset_spec("fig2")
    searched.clear()
    for scheme in SIC_SCHEMES:
        compute_batch(scheme, [fig2.params_at(v) for v in fig2.values()])
    assert searched == []
