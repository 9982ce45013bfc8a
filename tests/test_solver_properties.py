"""Seeded properties of the full-duplex max-min power solver over the paper's
parameter domain, each checked against a dense grid that shares no code with
the solver's search objective, and of the bound M = min(r_u, t1, t2/2) that
the SIC search solves on the budget edges: it does not fall as both powers
scale up, and solving it loses nothing against scans of the whole box."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fdcran.rates as rates
from fdcran.model import NumericDomainError, SchemeId, SystemParams, db_to_linear
from fdcran.oracle import (
    _zero_forcing,
    certified_max_min,
    circulant_uplink_rate,
    exhaustive_power_opt,
)
from fdcran.rates import SicMode, compute_batch, fd_cran, fd_scp
from fdcran.spectral import h_tilde, rate_closed_form, zf_precoder
from fdcran.sweep import preset_spec
from test_domain_properties import EXAMPLES, domain, huge_db

TAN = SicMode.TREAT_AS_NOISE
SIC = SicMode.SIC
POINTS = 20
SCP_GRID = 512  # exhaustive_power_opt resolution
CRAN_GRID = 256
CRAN_PANELS = 128  # ring cells: the ring converges to ~1e-14 here for alpha < 0.45


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
    the uplink integral and R_g(2) from rings of cells and the model's
    formulas written out."""
    a2, rg2 = params.alpha**2, _zero_forcing(params.alpha)[1]
    pu = np.linspace(0.0, params.p_u_max, CRAN_GRID)[:, None]
    pd = np.linspace(0.0, params.p_d_max, CRAN_GRID)[None, :]
    sigma_u = (
        1.0 + (1.0 + 2.0 * a2) * pu + 2.0 * params.beta_du**2 * (1.0 + rg2) * pd
    ) / (2.0**params.c_u - 1.0)
    snr = np.broadcast_to(pu / (1.0 + sigma_u), (CRAN_GRID, CRAN_GRID))
    r_u = circulant_uplink_rate(params.alpha, snr, 0.0, CRAN_PANELS)
    signal = pd * (1.0 - 2.0**-params.c_d) * h_tilde(precoder, params.alpha, 0) ** 2
    den = 1.0 + pd * 2.0**-params.c_d * (1.0 + 2.0 * a2) + 2.0 * params.beta_ud**2 * pu
    g2pu = params.gamma_ud**2 * pu
    t1 = np.log2(1.0 + signal / den)
    t2 = np.log2(1.0 + (signal + g2pu) / den)
    t3 = np.log2(1.0 + signal / (den + g2pu))
    # SIC at the best carried rate R <= r_u of max(t3, min(t1, t2 - R))
    sic = np.maximum(np.minimum(r_u, t3), np.minimum(np.minimum(r_u, t1), t2 / 2.0))
    return float(np.minimum(r_u, t3).max()), float(sic.max())


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


def test_fd_cran_sic_optimum_at_fig3_lies_on_a_budget_edge():
    # fig3 at gamma_ud = 3.5: decoding the uplink at its capacity peaked
    # inside the power box at 3.98323; at its best carried rate the uplink
    # backs off below its capacity, and the optimum, on p_d = P_d, is certified
    params = preset_spec("fig3").params_at(3.5)
    res = fd_cran(params, zf_precoder(params.alpha), SIC)
    assert res.r_eq >= 3.98323
    assert res.r_eq == res.r_d < res.r_u
    argmax = (res.diagnostics["p_u_star"], res.diagnostics["p_d_star"])
    assert argmax[1] == params.p_d_max
    (found,) = certified_max_min("cran", SIC, [params], [argmax])
    assert found.r_eq <= res.r_eq <= found.r_eq + found.eps


@pytest.mark.parametrize("alpha", [0.0, 0.1, 0.25, 0.4, 0.45, 0.49, 0.49999])
def test_rate_closed_form_matches_quadrature(alpha):
    # the 4096-cell ring's mean is the trapezoid rule on the periodic integrand
    s = np.concatenate([[0.0], np.logspace(-8.0, 8.0, 161)])
    ring = circulant_uplink_rate(alpha, s, 0.0, 4096)
    assert np.abs(rate_closed_form(s, alpha) - ring).max() <= 1e-12
    scalar = rate_closed_form(7.0, alpha)
    assert isinstance(scalar, float)
    assert scalar == pytest.approx(circulant_uplink_rate(alpha, 7.0, 0.0, 4096), abs=1e-12)


# ----------------------------------------------------------------------------
# the bound M = min(r_u, t1, t2/2) of the SIC search


def _bound(family: str, params, p_u: float, p_d: float) -> float:
    """M at the powers (p_u, p_d), from the family's kernels in the point's
    unit, in numpy, where the search forms it."""
    k = rates._consts(family, SIC, params)  # the point's constants in plain floats
    u, d = p_u * k.unit, p_d * k.unit
    r_u = rates._uplink(np, k, u, d)
    return float(min(r_u, *rates._downlink(np, k, u, d, r_u, rates._BOUND)))


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


def _row_scans(family: str, params) -> float:
    """The SIC objective's max over 33 rows p_u = i P_u / 32 of the power box
    and the edge p_d = P_d, each scanned at 2,049 powers, from the kernels."""
    k = rates._consts(family, SIC, params)  # the point's constants in plain floats
    u_max, d_max = params.p_u_max * k.unit, params.p_d_max * k.unit  # kernel powers
    rows = np.linspace(0.0, u_max, 33)[:, None], np.linspace(0.0, d_max, 2049)
    edge = np.linspace(0.0, u_max, 2049), d_max
    return max(float(np.minimum(*rates._rates(np, k, *at, SIC)).max()) for at in (rows, edge))


SIC_SCHEMES = (SchemeId.FD_SCP_SIC, SchemeId.FD_CRAN_SIC)


@pytest.mark.parametrize("raise_db", [0.0, 20.0, 50.0])
@pytest.mark.parametrize("scheme", SIC_SCHEMES, ids=lambda s: s.value)
def test_the_bound_loses_nothing_against_the_row_scans_alone(scheme, raise_db):
    # the better of the treat-as-noise optimum and M's, both on the budget
    # edges, against scans of the whole box at the best carried rate
    gain = db_to_linear(raise_db)
    points = [replace(p, p_u_max=p.p_u_max * gain, p_d_max=p.p_d_max * gain) for p in DOMAIN]
    family = rates.SCHEMES[scheme][0]
    solved = [r.r_eq for r in compute_batch(scheme, points)]
    scanned = [_row_scans(family, p) for p in points]
    assert all(a >= b - 1e-12 for a, b in zip(solved, scanned)), list(zip(solved, scanned))
