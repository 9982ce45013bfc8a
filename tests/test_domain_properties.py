"""Invariants of every scheme over the whole accepted input domain, drawn by
Hypothesis (derandomized, so every run checks the same examples): finite
rates within [0, c] of their link, SIC never below treat-as-noise, exact
half-duplex reductions, equal rates that do not fall as the fronthaul grows
or as either power budget grows, and finite rates or NumericDomainError,
without a numpy warning, at budgets up to the top of the float range."""

import math
import sys
import warnings
from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fdcran.model import NumericDomainError, PowerAllocation, SchemeId, SystemParams, db_to_linear
from fdcran.rates import (
    SicMode,
    compute_scheme,
    fd_cran_downlink,
    fd_cran_uplink,
    fd_scp_downlink_rate,
    fd_scp_uplink_rate,
    hd_cran_downlink,
    hd_cran_uplink,
    hd_scp,
)
from fdcran.spectral import zf_precoder

EXAMPLES = 50
BUDGET_EXAMPLES = 15  # each draw solves all six schemes three times

budgets = st.floats(0.0, 30.0).map(db_to_linear)
capacities = st.one_of(st.floats(0.0, 12.0), st.sampled_from([0.0, 1000.0, 2000.0]))
domain = st.builds(
    SystemParams,
    # zero forcing is singular from 0.5 on; half the draws come close to it
    alpha=st.one_of(st.floats(0.0, 0.499), st.floats(0.45, 0.499)),
    beta_du=st.floats(0.0, 1.0),
    beta_ud=st.floats(0.0, 0.3),
    gamma_du=st.just(0.0),
    gamma_ud=st.floats(0.0, 8.0),
    p_u_max=budgets,
    p_d_max=budgets,
    c_u=capacities,
    c_d=capacities,
)


@settings(derandomize=True, max_examples=EXAMPLES, deadline=None, database=None)
@given(domain)
def test_rates_are_finite_and_within_the_fronthaul(params):
    r_eq = {}
    for scheme in SchemeId:
        result = compute_scheme(scheme, params)
        assert all(math.isfinite(r) for r in (result.r_u, result.r_d, result.r_eq))
        assert 0.0 <= result.r_u <= params.c_u
        assert 0.0 <= result.r_d <= params.c_d
        assert 0.0 <= result.r_eq <= max(result.r_u, result.r_d)
        r_eq[scheme] = result.r_eq
    assert r_eq[SchemeId.FD_SCP_SIC] >= r_eq[SchemeId.FD_SCP]
    assert r_eq[SchemeId.FD_CRAN_SIC] >= r_eq[SchemeId.FD_CRAN]


@settings(derandomize=True, max_examples=EXAMPLES, deadline=None, database=None)
@given(domain, st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_half_duplex_reductions_are_exact(params, u, d):
    # criterion 6 at every draw: without the cross-duplex gains, a full-duplex
    # rate at (p_u, p_d) is the half-duplex rate at that direction's power
    p_u, p_d = u * params.p_u_max, d * params.p_d_max
    powers = PowerAllocation(p_u, p_d)
    precoder = zf_precoder(params.alpha)
    fd_u = replace(params, beta_du=0.0)
    fd_d = replace(params, beta_ud=0.0, gamma_ud=0.0)
    hd_u = replace(fd_u, p_u_max=p_u)
    hd_d = replace(params, p_d_max=p_d)
    assert fd_scp_uplink_rate(fd_u, p_u, p_d) == hd_scp(hd_u).r_u
    assert fd_cran_uplink(fd_u, powers, precoder) == hd_cran_uplink(hd_u)
    r_u = fd_scp_uplink_rate(params, p_u, p_d)
    for sic in SicMode:
        assert fd_scp_downlink_rate(fd_d, p_u, p_d, sic, r_u) == hd_scp(hd_d).r_d
        assert fd_cran_downlink(fd_d, powers, precoder, sic, r_u) == hd_cran_downlink(
            hd_d, precoder
        )[0]


@settings(derandomize=True, max_examples=EXAMPLES, deadline=None, database=None)
@given(domain, st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_the_sic_downlink_takes_the_uplink_capacity_and_reports_the_carried_rate(params, u, d):
    # the recompute contract: given the uplink capacity r_u at (p_u, p_d),
    # the SIC downlink backs off to the carried rate R* and reports
    # max(t3, min(t1, t2 - R*)) under the c_d cap, so min(r_u, r_d) is R*
    p_u, p_d = u * params.p_u_max, d * params.p_d_max
    r_u = fd_scp_uplink_rate(params, p_u, p_d)
    r_d = fd_scp_downlink_rate(params, p_u, p_d, SicMode.SIC, r_u)
    den = 1.0 + 2.0 * params.alpha**2 * p_d + 2.0 * params.beta_ud**2 * p_u
    intra = params.gamma_ud**2 * p_u
    t1 = math.log2(1.0 + p_d / den)
    t2 = math.log2(1.0 + (p_d + intra) / den)
    t3 = math.log2(1.0 + p_d / (den + intra))
    carried = max(min(r_u, t3), min(r_u, t1, t2 / 2.0))
    tol = 1e-12 * max(1.0, t2)
    assert abs(r_d - min(params.c_d, max(t3, min(t1, t2 - carried)))) <= tol
    assert abs(min(r_u, r_d) - min(params.c_d, carried)) <= tol


# fd_scp_sic fell from 0.82611 to 0.70769 here while the uplink was decoded
# at its full capacity
FRONTHAUL_DIP = SystemParams(
    alpha=0.3161, beta_du=0.1296, beta_ud=0.2445, gamma_du=0.0, gamma_ud=0.9407,
    p_u_max=35.3284, p_d_max=1.2754, c_u=1.0, c_d=1.0,
)


@settings(derandomize=True, max_examples=EXAMPLES, deadline=None, database=None)
@given(domain, capacities, st.floats(0.0, 12.0))
@example(FRONTHAUL_DIP, 1.0, 2.2911)
def test_equal_rate_does_not_fall_as_the_fronthaul_grows(params, c, more):
    # every term of each objective, the SIC one at its best carried rate
    # included, is non-decreasing in c_u and c_d
    for scheme in SchemeId:
        low = compute_scheme(scheme, replace(params, c_u=c, c_d=c)).r_eq
        high = compute_scheme(scheme, replace(params, c_u=c + more, c_d=c + more)).r_eq
        assert high >= low - 1e-9, scheme


@settings(derandomize=True, max_examples=BUDGET_EXAMPLES, deadline=None, database=None)
@given(domain, st.floats(0.0, 10.0), st.floats(0.0, 10.0))
def test_equal_rate_does_not_fall_as_a_budget_grows(params, more_u_db, more_d_db):
    """r_eq of every scheme does not fall as P_u grows, or as P_d grows.

    For the full-duplex schemes a larger budget only enlarges the box the
    search maximizes over.  The half-duplex C-RAN uplink's quantization noise
    grows with P_u, so there it is tested, not assumed.  Budgets here reach
    40 dB; the SIC optimum at 150-200 dB is checked against its certificate
    in test_cli.
    """
    more_u = replace(params, p_u_max=params.p_u_max * db_to_linear(more_u_db))
    more_d = replace(params, p_d_max=params.p_d_max * db_to_linear(more_d_db))
    for scheme in SchemeId:
        r_eq = compute_scheme(scheme, params).r_eq
        assert compute_scheme(scheme, more_u).r_eq >= r_eq - 1e-9, (scheme, "P_u")
        assert compute_scheme(scheme, more_d).r_eq >= r_eq - 1e-9, (scheme, "P_d")


# the largest budget in dB whose linear value is a finite float
DB_LIMIT = 10.0 * math.log10(sys.float_info.max)
while not math.isfinite(db_to_linear(DB_LIMIT)):
    DB_LIMIT = math.nextafter(DB_LIMIT, 0.0)
# half the draws lie in the top 40 dB, where gains times budgets overflow
huge_db = st.one_of(st.floats(0.0, DB_LIMIT), st.floats(DB_LIMIT - 40.0, DB_LIMIT))


@settings(derandomize=True, max_examples=EXAMPLES, deadline=None, database=None)
@given(domain, huge_db, huge_db)
def test_budgets_up_to_the_float_range_give_finite_rates_or_exit_3(params, u_db, d_db):
    # products such as gamma_ud^2 P_u leave the float range long before the
    # budgets do: no numpy warning may show it, and every scheme either gives
    # finite rates or raises NumericDomainError, the compute command's exit 3
    point = replace(params, p_u_max=db_to_linear(u_db), p_d_max=db_to_linear(d_db))
    for scheme in SchemeId:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                result = compute_scheme(scheme, point)
            except NumericDomainError:
                continue
        assert all(math.isfinite(r) for r in (result.r_u, result.r_d, result.r_eq)), scheme
