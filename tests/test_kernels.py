"""The public scalar rate functions call the kernels of the power search: at
each full-duplex result's argmax they return its rates exactly, given the
zero-forcing precoder at any sampling they give compute_scheme's results, and
they check their inputs explicitly."""

import math
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import pytest

from fdcran.model import NumericDomainError, PowerAllocation, SchemeId, db_to_linear
from fdcran.rates import (
    SCHEMES,
    SicMode,
    compute_scheme,
    fd_cran,
    fd_cran_downlink,
    fd_cran_uplink,
    fd_scp_downlink_rate,
    fd_scp_uplink_rate,
    hd_cran,
)
from fdcran.spectral import zf_precoder
from test_solver_properties import DOMAIN

from conftest import make_params

PANELS = 1024
SIC = SicMode.SIC
FD_SCHEMES = (SchemeId.FD_SCP, SchemeId.FD_SCP_SIC, SchemeId.FD_CRAN, SchemeId.FD_CRAN_SIC)
PARAMS = DOMAIN[0]
PRECODER = zf_precoder(PARAMS.alpha, PANELS)


@pytest.mark.parametrize("scheme", FD_SCHEMES, ids=lambda s: s.value)
def test_scalar_functions_reproduce_the_reported_rates(scheme):
    family, sic = SCHEMES[scheme]
    for params in DOMAIN:
        result = compute_scheme(scheme, params)
        p_u, p_d = result.diagnostics["p_u_star"], result.diagnostics["p_d_star"]
        if family == "scp":
            r_u = fd_scp_uplink_rate(params, p_u, p_d)
            r_d = fd_scp_downlink_rate(params, p_u, p_d, sic, r_u)
        else:
            precoder = zf_precoder(params.alpha, PANELS)
            powers = PowerAllocation(p_u, p_d)
            r_u, sigma_u = fd_cran_uplink(params, powers, precoder)
            r_d = fd_cran_downlink(params, powers, precoder, sic, r_u)
            assert sigma_u == result.diagnostics["sigma_u_sq"]
        assert (r_u, r_d, min(r_u, r_d)) == (result.r_u, result.r_d, result.r_eq)


@pytest.mark.parametrize("panels", [512, PANELS, 4096])
def test_the_zero_forcing_precoder_gives_compute_scheme_results(panels):
    # a zero-forcing precoder built for the point's alpha enters through the
    # exact constants, so its sampling changes nothing
    for params in DOMAIN[:4]:
        precoder = zf_precoder(params.alpha, panels)
        assert hd_cran(params, precoder) == compute_scheme(SchemeId.HD_CRAN, params)
        for scheme in (SchemeId.FD_CRAN, SchemeId.FD_CRAN_SIC):
            got = fd_cran(params, precoder, SCHEMES[scheme][1])
            assert got == compute_scheme(scheme, params)


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
def test_a_bad_power_is_a_numeric_domain_error(bad):
    for p_u, p_d in ((bad, 1.0), (1.0, bad)):
        with pytest.raises(NumericDomainError):
            fd_scp_uplink_rate(PARAMS, p_u, p_d)
        with pytest.raises(NumericDomainError):
            fd_scp_downlink_rate(PARAMS, p_u, p_d)
        with pytest.raises(NumericDomainError):
            PowerAllocation(p_u, p_d)
        powers = SimpleNamespace(p_u=p_u, p_d=p_d)  # a pair that bypasses PowerAllocation
        with pytest.raises(NumericDomainError):
            fd_cran_uplink(PARAMS, powers, PRECODER)
        with pytest.raises(NumericDomainError):
            fd_cran_downlink(PARAMS, powers, PRECODER)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sic_needs_a_finite_uplink_rate(bad):
    powers = PowerAllocation(1.0, 1.0)
    with pytest.raises(NumericDomainError):
        fd_scp_downlink_rate(PARAMS, 1.0, 1.0, SIC, bad)
    with pytest.raises(NumericDomainError):
        fd_cran_downlink(PARAMS, powers, PRECODER, SIC, bad)
    with pytest.raises(ValueError, match="r_u is required"):
        fd_scp_downlink_rate(PARAMS, 1.0, 1.0, SIC)
    with pytest.raises(ValueError, match="r_u is required"):
        fd_cran_downlink(PARAMS, powers, PRECODER, SIC)
    # treat-as-noise does not read r_u
    assert fd_scp_downlink_rate(PARAMS, 1.0, 1.0, r_u=bad) == fd_scp_downlink_rate(PARAMS, 1.0, 1.0)


def test_budgets_are_checked():
    over = PowerAllocation(PARAMS.p_u_max, 2.0 * PARAMS.p_d_max + 1.0)
    with pytest.raises(ValueError, match="exceed budgets"):
        fd_cran_uplink(PARAMS, over, PRECODER)
    with pytest.raises(ValueError, match="exceed budgets"):
        fd_cran_downlink(PARAMS, over, PRECODER)


@pytest.mark.parametrize("grid", [1, 2.5, "64"])
def test_compute_scheme_rejects_a_grid_that_is_not_an_integer_of_at_least_2(grid):
    with pytest.raises(ValueError, match="grid"):
        compute_scheme(SchemeId.FD_SCP_SIC, PARAMS, grid=grid)


def test_a_valid_grid_changes_no_result():
    # the search, exact on the budget edges, has no grid: grid is only checked
    assert compute_scheme(SchemeId.FD_SCP_SIC, PARAMS, grid=2) == compute_scheme(
        SchemeId.FD_SCP_SIC, PARAMS
    )


def test_an_overflowing_quantization_noise_is_a_numeric_domain_error():
    # sigma_u^2 = (1 + (1 + 2 alpha^2) P_u + ...) / (2**0.01 - 1) overflows at 3082 dB,
    # where a zero uplink rate would be wrong: the SNR tends to (2**c_u - 1)/(1 + 2 alpha^2)
    params = make_params(alpha=0.49, p_u_max=db_to_linear(3082.0), c_u=0.01)
    precoder = zf_precoder(params.alpha)
    top = PowerAllocation(params.p_u_max, 100.0)
    with pytest.raises(NumericDomainError, match="sigma_u_sq overflows"):
        fd_cran_uplink(params, top, precoder)
    with pytest.raises(NumericDomainError, match="sigma_u_sq overflows"):
        compute_scheme(SchemeId.FD_CRAN, params)
    rate, sigma = fd_cran_uplink(params, PowerAllocation(1.0, 100.0), precoder)
    assert rate > 0.0 and math.isfinite(sigma)
    # at c_u = 0 the quantizer passes nothing: sigma_u^2 is inf and the rate 0
    assert fd_cran_uplink(replace(params, c_u=0.0), top, precoder) == (0.0, math.inf)


def test_an_intra_cell_power_past_the_float_range_keeps_the_model_rate():
    # gamma_ud^2 P_u = 9e308 overflows a float, yet the treat-as-noise SINR
    # P_d / (1 + 2 alpha^2 P_d + (2 beta_ud^2 + gamma_ud^2) P_u) is about 1.1e-9
    params = replace(PARAMS, alpha=0.4, beta_ud=0.04, gamma_ud=3.0, c_d=10.0,
                     p_u_max=db_to_linear(3080.0), p_d_max=db_to_linear(3000.0))
    p_u, p_d = (Fraction(x) for x in (params.p_u_max, params.p_d_max))
    den = 1 + 2 * Fraction(params.alpha**2) * p_d + 2 * Fraction(params.beta_ud**2) * p_u
    sinr = float(p_d / (den + Fraction(params.gamma_ud**2) * p_u))
    model = math.log1p(sinr) / math.log(2.0)
    rate = fd_scp_downlink_rate(params, params.p_u_max, params.p_d_max)
    assert rate == pytest.approx(model, rel=1e-6) and model > 1e-9
