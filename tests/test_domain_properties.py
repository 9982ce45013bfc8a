"""Invariants of every scheme over the whole accepted input domain, drawn by
Hypothesis (derandomized, so every run checks the same examples): finite
rates within [0, c] of their link, and SIC never below treat-as-noise."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from fdcran.model import SchemeId, SystemParams, db_to_linear
from fdcran.rates import compute_scheme

EXAMPLES = 50

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
