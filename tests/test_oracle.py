import collections
import math
import warnings
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fdcran.oracle
import fdcran.rates as rates
import fdcran.spectral
from fdcran.config import SweepBase, SweepSpec, preset_spec
from fdcran.model import SchemeId, SystemParams, db_to_linear
from fdcran.oracle import (
    CERTIFIED_EPS,
    DEFAULT_CELLS,
    certified_max_min,
    circulant_uplink_rate,
    exhaustive_power_opt,
)
from fdcran.model import PowerAllocation
from fdcran.rates import SCHEMES, SicMode, compute_batch, fd_cran_uplink, fd_scp
from fdcran.spectral import rate_closed_form, zf_constants, zf_precoder
from fdcran.sweep import run_sweep, verification_failures

from conftest import make_params
from dense_ring import circulant_uplink_rate_dense
from test_batch import MIXED
from test_domain_properties import EXAMPLES, domain, huge_db
from test_solver_properties import DOMAIN

TAN = SicMode.TREAT_AS_NOISE
SIC = SicMode.SIC


def test_identity_channel_rate():
    # alpha = 0: every eigenvalue is 1, so the mean collapses exactly
    for n in (8, 64, 512):
        rate = circulant_uplink_rate(0.0, 5.0, 0.25, n)
        assert rate == pytest.approx(math.log2(1.0 + 5.0 / 1.25), abs=1e-12)


@pytest.mark.parametrize("n", [8, 16, 64])
@pytest.mark.parametrize("alpha", [0.1, 0.4])
def test_eigenvalue_and_dense_logdet_agree(alpha, n):
    fast = circulant_uplink_rate(alpha, 50.0, 0.3, n)
    dense = circulant_uplink_rate_dense(alpha, 50.0, 0.3, n)
    assert abs(fast - dense) < 1e-10


@pytest.mark.parametrize("alpha", [0.1, 0.25, 0.4])
def test_finite_ring_converges_to_spectral_integral(alpha):
    sigma = 0.13
    limit = rate_closed_form(100.0 / (1.0 + sigma), alpha)
    gap_64 = abs(circulant_uplink_rate(alpha, 100.0, sigma, 64) - limit)
    gap_512 = abs(circulant_uplink_rate(alpha, 100.0, sigma, 512) - limit)
    assert gap_512 < 1e-3
    # convergence is exponential; by n = 64 both gaps sit at float noise, so
    # the ordering is asserted only up to rounding slack
    assert gap_512 <= gap_64 + 1e-12


def test_finite_ring_convergence_direction_is_measurable_at_small_n():
    limit = rate_closed_form(100.0, 0.4)
    gap_8 = abs(circulant_uplink_rate(0.4, 100.0, 0.0, 8) - limit)
    gap_512 = abs(circulant_uplink_rate(0.4, 100.0, 0.0, 512) - limit)
    assert gap_8 > 1e-6 > gap_512


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_the_ring_keeps_an_sinr_scale_near_the_float_range():
    # s lam^2 passes the float range at s = 1.7e308 (lam^2 up to 3.24); the
    # ring still gives the closed form's finite rate, with no overflow warning
    want = rate_closed_form(1.7e308, 0.4)
    assert abs(circulant_uplink_rate(0.4, 1.7e308, 0.0) - want) <= np.spacing(want)


def test_the_ring_rate_of_arrays_is_that_of_each_element_alone():
    # floats give a float; arrays broadcast, each element bit for bit its own rate
    alpha, p_u, sigma = np.array([0.0, 0.1, 0.4, 0.49]), np.array([[5.0], [1.7e308]]), 0.3
    rates = circulant_uplink_rate(alpha, p_u, sigma)
    assert rates.shape == (2, 4)
    for (i, j), rate in np.ndenumerate(rates):
        alone = circulant_uplink_rate(float(alpha[j]), float(p_u[i, 0]), sigma)
        assert isinstance(alone, float) and rate == alone
    # no element, as where every row of a --verify block has c_u = 0
    assert circulant_uplink_rate(np.zeros(0), np.zeros(0), 0.0).shape == (0,)


def test_circulant_rate_input_validation():
    with pytest.raises(ValueError):
        circulant_uplink_rate(0.4, -1.0, 0.0, 512)
    with pytest.raises(ValueError):
        circulant_uplink_rate(0.4, np.array([1.0, 2.0]), np.array([0.0, -1.0]))
    with pytest.raises(ValueError):
        circulant_uplink_rate(0.4, 1.0, 0.0, 4)


def test_exhaustive_full_power_when_decoupled():
    params = make_params(
        alpha=0.0, beta_du=0.0, beta_ud=0.0, gamma_ud=0.0,
        p_u_max=3.0, p_d_max=3.0, c_u=10.0, c_d=10.0,
    )
    value, p_u, p_d = exhaustive_power_opt(params, TAN, 64)
    assert (p_u, p_d) == (3.0, 3.0)
    assert value == pytest.approx(2.0, abs=1e-12)


def test_exhaustive_tie_break_on_flat_objective():
    value, p_u, p_d = exhaustive_power_opt(make_params(c_d=0.0), SIC, 64)
    assert value == 0.0
    assert p_u == 0.0 and p_d == 0.0


def test_exhaustive_resolution_floor():
    with pytest.raises(ValueError):
        exhaustive_power_opt(make_params(), TAN, 32)


def test_refined_search_never_loses_to_dense_grid():
    rng = np.random.default_rng(42)
    for _ in range(20):
        params = make_params(
            alpha=float(rng.uniform(0.0, 0.45)),
            beta_du=float(rng.uniform(0.0, 0.6)),
            beta_ud=float(rng.uniform(0.0, 0.15)),
            gamma_ud=float(rng.uniform(0.0, 6.0)),
            p_u_max=float(10.0 ** rng.uniform(0.0, 2.3)),
            p_d_max=float(10.0 ** rng.uniform(0.0, 2.3)),
            c_u=float(rng.uniform(1.0, 12.0)),
            c_d=float(rng.uniform(1.0, 12.0)),
        )
        sic = SIC if rng.integers(2) else TAN
        refined = fd_scp(params, sic).r_eq
        brute = exhaustive_power_opt(params, sic, 512)[0]
        assert refined >= brute - 1e-6


def _full_grid_reference(params, sic, resolution=512, candidate=None):
    """exhaustive_power_opt as it was before blocked evaluation: the whole
    resolution x resolution grid as one array."""
    a2 = params.alpha**2
    bdu2 = params.beta_du**2
    bud2 = params.beta_ud**2
    g2 = params.gamma_ud**2

    def value(pu, pd):
        r_u = np.minimum(
            np.log2(1.0 + pu / (1.0 + 2.0 * a2 * pu + 2.0 * bdu2 * pd)), params.c_u
        )
        den = 1.0 + 2.0 * a2 * pd + 2.0 * bud2 * pu
        if sic is SicMode.TREAT_AS_NOISE:
            r_d = np.log2(1.0 + pd / (den + g2 * pu))
        else:  # at the best carried rate
            t1 = np.log2(1.0 + pd / den)
            t2 = np.log2(1.0 + (pd + g2 * pu) / den)
            t3 = np.log2(1.0 + pd / (den + g2 * pu))
            r_d = np.maximum(t3, np.minimum(t1, t2 / 2.0))
        return np.minimum(r_u, np.minimum(r_d, params.c_d))

    pu_grid = np.linspace(0.0, params.p_u_max, resolution)
    pd_grid = np.linspace(0.0, params.p_d_max, resolution)
    grid_value = value(pu_grid[:, None], pd_grid[None, :])
    vmax = float(grid_value.max())
    if candidate is not None:
        off_grid = float(value(*candidate))
        if off_grid > vmax + 1e-9:
            return off_grid, float(candidate[0]), float(candidate[1])
    tied = grid_value >= vmax - 1e-9
    i = int(np.argmax(tied.any(axis=1)))
    j = int(np.argmax(tied[i]))
    return float(grid_value[i, j]), float(pu_grid[i]), float(pd_grid[j])


def _assert_exact(params, resolution=512, candidate=None):
    """Each receiver gives the full grid's result."""
    for sic in (TAN, SIC):
        expected = _full_grid_reference(params, sic, resolution, candidate)
        assert exhaustive_power_opt(params, sic, resolution, candidate) == expected


@pytest.mark.parametrize("index", range(len(DOMAIN)))
def test_blocked_grid_equals_full_grid_on_the_domain(index):
    _assert_exact(DOMAIN[index])


@pytest.mark.parametrize("resolution", [64, 100, 512, 513])
def test_blocked_grid_equals_full_grid_at_edge_cases(resolution):
    # plateau: every grid point ties at 0, so the origin wins
    for sic in (TAN, SIC):
        plateau = make_params(c_u=0.0, c_d=0.0)
        assert exhaustive_power_opt(plateau, sic, resolution) == (0.0, 0.0, 0.0)
    _assert_exact(make_params(c_u=0.0, c_d=0.0), resolution)
    _assert_exact(make_params(p_u_max=0.0), resolution)
    _assert_exact(make_params(c_u=1000.0, c_d=1000.0), resolution)
    _assert_exact(make_params(gamma_ud=0.5, p_u_max=3.0, p_d_max=250.0), resolution)
    # interference-limited at huge budgets: many rows come within 1e-9 of the
    # maximum without reaching it, so the tie tolerance picks the row
    _assert_exact(make_params(p_u_max=1e9, p_d_max=1e9), resolution)


def test_blocked_grid_scores_a_candidate_like_the_full_grid():
    params = preset_spec("fig3").params_at(0.5)
    on_grid = _full_grid_reference(params, SIC)[1:]
    _assert_exact(params, candidate=on_grid)
    # fd_scp_sic at gamma_ud = 0.5 peaks between grid points, so the solver's
    # argmax beats the grid and is returned as given
    diag = fd_scp(params, SIC).diagnostics
    off_grid = (diag["p_u_star"], diag["p_d_star"])
    assert exhaustive_power_opt(params, SIC, 512, off_grid)[1:] == off_grid
    _assert_exact(params, candidate=off_grid)


class _SizeProbe:
    """Stands in for numpy inside the oracle, recording the largest array that
    any numpy function returns there (the elementwise functions that every
    evaluation goes through, and any stacking or joining of blocks) and how
    often each function is called."""

    def __init__(self):
        self.largest = 0
        self.calls = collections.Counter()

    def __getattr__(self, name):
        fn = getattr(np, name)
        if not callable(fn) or isinstance(fn, type):
            return fn

        def probed(*args, **kwargs):
            self.calls[name] += 1
            out = fn(*args, **kwargs)
            if isinstance(out, np.ndarray):
                self.largest = max(self.largest, out.size)
            return out

        if isinstance(fn, np.ufunc):
            probed.at = fn.at  # in place: returns no array
        return probed


def test_a_full_blocks_ring_call_keeps_its_temporaries_to_the_block_size(monkeypatch):
    # one call for the 3 x 64 C-RAN rows of a full sweep block: the elements
    # are sampled in groups, so no temporary holds 192 x 512 samples, and each
    # element is bit for bit its own scalar call
    alpha = np.linspace(0.0, 0.49, 192)
    p_u = np.geomspace(1e-3, 1e6, 192)
    p_u[-1] = 1.7e308  # past the float range once times lam^2
    sigma = np.linspace(0.0, 3.0, 192)
    monkeypatch.setattr(fdcran.oracle, "np", _SizeProbe())
    found = circulant_uplink_rate(alpha, p_u, sigma, DEFAULT_CELLS)
    assert 0 < fdcran.oracle.np.largest <= fdcran.oracle._BLOCK_ELEMENTS
    monkeypatch.undo()
    alone = [
        circulant_uplink_rate(a, u, s, DEFAULT_CELLS)
        for a, u, s in zip(alpha.tolist(), p_u.tolist(), sigma.tolist())
    ]
    assert found.shape == (192,) and found.tolist() == alone


def test_a_default_ring_next_to_one_half_keeps_its_temporaries_to_the_block_size(monkeypatch):
    # next to alpha = 1/2 the default ring, 512 cells less its exact
    # aliasing, reaches the integral with no temporary past the block size
    alpha = np.array([0.4, 0.4999, 0.5 - 2e-9])
    monkeypatch.setattr(fdcran.oracle, "np", _SizeProbe())
    found = circulant_uplink_rate(alpha, 1e300, 0.0)
    assert 0 < fdcran.oracle.np.largest <= fdcran.oracle._BLOCK_ELEMENTS
    monkeypatch.undo()
    assert np.abs(found - rate_closed_form(np.full(3, 1e300), alpha)).max() <= 1e-9


def test_a_two_block_ring_rates_each_point_alone_and_keeps_its_temporaries_to_the_block_size(
    monkeypatch,
):
    # a 20,000-cell ring has 10,001 frequencies, two blocks: one point's
    # samples of the first fill a group, and the second takes four points
    alpha = np.array([0.0, 0.3, 0.45, 0.499, 0.0, 0.3, 0.45, 0.499])
    s = np.array([0.0, 5.0, 1e8, 1.7e308, 3.0, 1e-6, 1e300, 40.0])
    monkeypatch.setattr(fdcran.oracle, "np", _SizeProbe())
    found = circulant_uplink_rate(alpha, s, 0.0, 20000)
    assert 0 < fdcran.oracle.np.largest <= fdcran.oracle._BLOCK_ELEMENTS
    monkeypatch.undo()
    assert [block[0].size for block in fdcran.oracle._half_ring(20000)] == [8192, 1809]
    for a, x, rate in zip(alpha.tolist(), s.tolist(), found.tolist()):
        assert rate == circulant_uplink_rate(a, x, 0.0, 20000)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("alpha", [0.4999, 0.4999999, 0.4999999989])
def test_the_default_ring_reaches_the_integral_next_to_one_half(alpha):
    # the 512-cell ring alone misses it here, by 0.03 at 0.4999999 and
    # s = 1e300; less its exact aliasing, the default ring does not
    s = np.concatenate([[0.0], np.logspace(-8.0, 300.0, 78)])
    assert np.abs(circulant_uplink_rate(alpha, s, 0.0) - rate_closed_form(s, alpha)).max() <= 1e-9


def test_the_default_ring_is_the_512_cell_ring_up_to_alpha_0_4995():
    alpha = np.linspace(0.0, 0.4995, 64)
    found = circulant_uplink_rate(alpha, 100.0, 0.3)
    assert found.tolist() == circulant_uplink_rate(alpha, 100.0, 0.3, DEFAULT_CELLS).tolist()
    assert fdcran.oracle._depth(0.4995) <= DEFAULT_CELLS < fdcran.oracle._depth(0.4996)


def test_a_verify_sweep_next_to_the_zero_forcing_limit_has_no_false_alarm():
    # every reported r_u is the exact closed form; the 512-cell ring's own
    # error once failed all 9 rows with |delta| = 0.0145
    spec = SweepSpec(
        base=SweepBase(alpha=0.4999999, p_u_db=3000.0, p_d_db=3000.0, c_u=2000.0, c_d=2000.0),
        sweep_var="gamma_ud", start=0.0, stop=1.0, step=0.5,
        schemes=(SchemeId.HD_CRAN, SchemeId.FD_CRAN, SchemeId.FD_CRAN_SIC), oracle=True,
    )
    rows = run_sweep(spec)
    assert len(rows) == 9 and all(row.oracle_r_u is not None for row in rows)
    assert verification_failures(rows) == []


@pytest.mark.parametrize("resolution", [64, 513, 1000])
def test_blocked_grid_memory_bound(monkeypatch, resolution):
    monkeypatch.setattr(fdcran.oracle, "np", _SizeProbe())
    exhaustive_power_opt(make_params(), SIC, resolution)
    assert 0 < fdcran.oracle.np.largest <= max(8192, resolution)


# ----------------------------------------------------------------------------
# the certified max-min

FAMILIES = [("scp", TAN), ("scp", SIC), ("cran", TAN), ("cran", SIC)]


def _rings(family: str, params):
    """The certified oracle's uplink ring of the point params, by its cells."""
    n = fdcran.oracle._form(family, params).cells
    return {n: tuple(fdcran.oracle._half_ring(n))}


# the domain's budgets, or any up to 3000 dB, near the top of the float range
any_budgets = st.one_of(st.floats(0.0, 30.0), st.floats(0.0, 3000.0)).map(db_to_linear)
cuts = st.lists(st.floats(0.0, 1.0), min_size=2, max_size=7)
# where each cell, a segment of a budget edge, is checked: its ends, its
# centre and points inside
INSIDE = [0.0, 1.0, 0.5, 0.1, 0.9, 0.3, 0.7]


# an FD-C-RAN point whose SIC t2 peaks at the top end of the cell
# [0.7 P_u, 0.8 P_u] x {P_d} only
T2_AT_THE_TOP = SystemParams(
    alpha=0.37808318644757777, beta_du=0.5902154124085758, beta_ud=0.03104109059991339,
    gamma_du=0.0, gamma_ud=0.795048701429768, p_u_max=9.824393364829563,
    p_d_max=2.2530516077382288, c_u=4.277003174014664, c_d=1000.0,
)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(domain, any_budgets, any_budgets, cuts, cuts)
@example(T2_AT_THE_TOP, T2_AT_THE_TOP.p_u_max, T2_AT_THE_TOP.p_d_max, [0.7, 0.8], [0.0, 1.0])
def test_a_cells_bound_is_at_least_the_objective_inside_it(params, p_u, p_d, cuts_u, cuts_d):
    params = replace(params, p_u_max=p_u, p_d_max=p_d)
    # the cells of both upper budget edges between the drawn cuts of the
    # budgets: [u0, u1] x {p_d} and {p_u} x [d0, d1]
    us, ds = np.sort(cuts_u) * p_u, np.sort(cuts_d) * p_d
    on_u, on_d = np.full(ds.size - 1, p_u), np.full(us.size - 1, p_d)
    u0, u1 = np.concatenate([us[:-1], on_u]), np.concatenate([us[1:], on_u])
    d0, d1 = np.concatenate([on_d, ds[:-1]]), np.concatenate([on_d, ds[1:]])
    row = np.zeros(u0.size, dtype=int)
    # the program rejects a quantization noise that overflows at the budgets
    cols = fdcran.oracle._columns("cran", [params])
    quant, base, f, h = (float(cols[n][0]) for n in (1, 2, 3, 4))
    quantized = params.c_u == 0.0 or math.isfinite(quant * (base + f * p_u + 2.0 * h * p_d))
    for family, sic in FAMILIES if quantized else FAMILIES[:2]:
        cols = fdcran.oracle._columns(family, [params])
        rings = _rings(family, params)
        k = fdcran.oracle._Form(*(c[row] for c in cols))
        # as the search bounds a cell: r_u at its corner (u1, d0), t2 at its ends
        r_u = fdcran.oracle._uplink(k, rings, u1, d0)
        t2 = np.stack([fdcran.oracle._t2(k, u0, d0), fdcran.oracle._t2(k, u1, d1)])
        bound = fdcran.oracle._bound(sic, k, r_u, t2, u0, d1)
        assert np.isfinite(bound).all()
        for t in INSIDE:
            pu = np.minimum(u1, u0 + t * (u1 - u0))
            pd = np.minimum(d1, d0 + t * (d1 - d0))
            value = fdcran.oracle._value(sic, k, rings, pu, pd)
            assert (value <= bound + 1e-12 * np.maximum(1.0, bound)).all(), (family, sic, t)


@pytest.mark.parametrize("sic", [TAN, SIC])
def test_the_exhaustive_grid_never_beats_the_certified_maximum(sic):
    certified = certified_max_min("scp", sic, DOMAIN, [(0.0, 0.0)] * len(DOMAIN))
    for params, found in zip(DOMAIN, certified):
        assert found.eps == CERTIFIED_EPS
        assert exhaustive_power_opt(params, sic, 512)[0] <= found.r_eq + found.eps
    # the CI's 3080/3000 dB config: scored in _form's unit of power, no
    # product of the grid overflows a float
    base = SweepBase(p_u_db=3080.0, p_d_db=3000.0, c_u=2000.0)
    huge = SweepSpec(base=base, sweep_var="gamma_ud", start=0.0, stop=3.0, step=1.0)
    points = [huge.params_at(gamma_ud) for gamma_ud in (2.0, 3.0)]
    for params, found in zip(points, certified_max_min("scp", sic, points, [(0.0, 0.0)] * 2)):
        assert found.eps == CERTIFIED_EPS
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            grid = exhaustive_power_opt(params, sic, 512)[0]
        assert math.isfinite(grid) and grid <= found.r_eq + found.eps


@pytest.mark.parametrize("family", ["scp", "cran"])
def test_the_solvers_constants_are_the_oracles_form(family):
    # the solver writes both families in the oracle's one form, under its
    # names: each unit-free constant of a batch's columns (MIXED holds
    # DOMAIN) is that point's _form constant, built by the oracle's own
    # formulas, to rounding
    k = rates._stacked([rates._consts(family, None, p) for p in MIXED])
    for i, params in enumerate(MIXED):
        want = fdcran.oracle._form(family, params)
        for name in ("f", "h", "a", "b", "c", "g", "quant", "shift", "cap_u", "cap_d"):
            got = float(np.broadcast_to(getattr(k, name), (len(MIXED), 1, 1))[i, 0, 0])
            expected = getattr(want, name)
            assert got == expected or abs(got - expected) <= 1e-15 * abs(expected), (i, name)


@pytest.mark.parametrize("family, sic", FAMILIES)
def test_a_point_is_certified_alike_alone_and_in_a_batch(family, sic):
    points = [preset_spec("fig3").params_at(g) for g in (0.5, 2.0, 6.0)]
    argmaxes = [(p.p_u_max, p.p_d_max) for p in points]
    batch = certified_max_min(family, sic, points, argmaxes)
    assert batch == [certified_max_min(family, sic, [p], [a])[0] for p, a in zip(points, argmaxes)]
    assert all(found.cells > 0 for found in batch)


@pytest.mark.parametrize("family, sic", FAMILIES)
def test_no_points_are_certified_to_no_results(family, sic):
    assert certified_max_min(family, sic, [], []) == []


@pytest.mark.parametrize("sic", [TAN, SIC])
def test_a_point_is_certified_on_its_own_ring_whatever_shares_its_call(sic):
    # fig2's base point at c = 10: alpha = 0.1 takes a 10-cell ring and
    # alpha = 0.45 a 45-cell one, and a mixed call rates each on its own,
    # bit for bit as alone, in any order
    base = preset_spec("fig2").params_at(10.0)
    points = [replace(base, alpha=a) for a in (0.1, 0.45, 0.3, 0.1)]
    argmaxes = [(p.p_u_max, p.p_d_max) for p in points]
    mixed = certified_max_min("cran", sic, points, argmaxes)
    alone = [certified_max_min("cran", sic, [p], [a])[0] for p, a in zip(points, argmaxes)]
    assert mixed == alone and mixed[0] == mixed[3]
    assert fdcran.oracle._columns("cran", points).cells.tolist() == [10, 45, 20, 10]


@pytest.mark.parametrize(
    "scheme, uplink_and_t2, cells",
    [
        (SchemeId.FD_SCP, (25, 0), 1362),
        (SchemeId.FD_SCP_SIC, (23, 35), 1262),
        (SchemeId.FD_CRAN, (29, 0), 1666),
        (SchemeId.FD_CRAN_SIC, (25, 38), 1166),
    ],
    ids=["fd_scp", "fd_scp_sic", "fd_cran", "fd_cran_sic"],
)
def test_a_certified_search_rates_each_group_once_a_round(
    monkeypatch, scheme, uplink_and_t2, cells
):
    # fig3's 33 points take one group to start and one _quarters call per
    # group and round; each group's _uplink and (for SIC) _t2 ratings score
    # its points and bound its cells at once, in at most half the calls
    # (uplink_and_t2) of a search that rates each cell's bound apart from its
    # scores, and the two initial edges take no ratings of their own
    calls = collections.Counter()

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)

        return call

    for name in ("_uplink", "_t2", "_quarters"):
        monkeypatch.setattr(fdcran.oracle, name, counted(name, getattr(fdcran.oracle, name)))
    spec = preset_spec("fig3")
    points = [spec.params_at(v) for v in spec.values()]
    results = compute_batch(scheme, points)
    argmaxes = [(r.diagnostics["p_u_star"], r.diagnostics["p_d_star"]) for r in results]
    found = certified_max_min(*SCHEMES[scheme], points, argmaxes)
    groups = calls["_quarters"] + 1
    sic = SCHEMES[scheme][1] is SIC
    assert (calls["_uplink"], calls["_t2"]) == (groups, groups if sic else 0)
    assert 2 * calls["_uplink"] <= uplink_and_t2[0] and 2 * calls["_t2"] <= uplink_and_t2[1]
    assert sum(f.cells for f in found) == cells


def test_a_capped_point_next_to_one_half_certifies_to_certified_eps():
    # alpha = 0.4997 asks for 21 / acosh(1 / 0.9994) = 606 cells: capped at
    # 512, its uplink takes off the ring's exact aliasing, and it certifies
    # to CERTIFIED_EPS itself, as alpha = 0.4 does on its own ring of
    # 21 / acosh(1.25) = 30.3 cells, in the same call
    near = [make_params(alpha=0.4), make_params(alpha=0.4997, p_u_max=1e8, c_u=40.0)]
    cols = fdcran.oracle._columns("cran", near)
    assert cols.cells.tolist() == [31, DEFAULT_CELLS] and cols.alias.tolist() == [0, DEFAULT_CELLS]
    found = certified_max_min("cran", TAN, near, [(1.0, 1.0)] * 2)
    assert [f.eps for f in found] == [CERTIFIED_EPS, CERTIFIED_EPS]
    # at alpha = 0.4999999 and 3000 dB budgets the 512-cell ring alone misses
    # the uplink by 0.0145 bits; less its aliasing, the certificate holds the
    # solver's optimum to the ring's 1e-9
    huge = db_to_linear(3000.0)
    edge = make_params(alpha=0.4999999, p_u_max=huge, p_d_max=huge, c_u=2000.0, c_d=2000.0)
    [result] = compute_batch(SchemeId.FD_CRAN, [edge])
    argmax = (result.diagnostics["p_u_star"], result.diagnostics["p_d_star"])
    [found] = certified_max_min("cran", TAN, [edge], [argmax])
    assert found.eps == CERTIFIED_EPS
    assert found.r_eq - 1e-9 <= result.r_eq <= found.r_eq + found.eps


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.floats(0.0, 0.5, exclude_max=True), st.floats(0.0, 1e300), st.integers(8, 512))
@example(0.49, 1e8, 128)
@example(0.49999, 1e8, 512)
@example(0.5 - 2**-54, 1e300, 8)  # the largest alpha below 1/2, the ring at its worst
def test_the_ring_less_its_aliasing_is_the_integral(alpha, s, n):
    # the n-cell ring's mean of log2(1 + s lam^2) less its exact aliasing is
    # the integral, to 1e-10 of the rate, or to 1e-15 below a rate of 1e-5,
    # where the ring rounds 1 + s lam^2 before its log
    rate = rate_closed_form(s, alpha)
    ring = circulant_uplink_rate(alpha, s, 0.0, n)
    found = ring - float(fdcran.oracle._alias_term(n, np.array([2.0 * alpha]), np.array([s]))[0])
    assert abs(found - rate) <= max(1e-10 * rate, 1e-15)


def test_a_points_circulant_rate_does_not_depend_on_the_other_rows_of_its_call(monkeypatch):
    # the default ring is 512 cells whatever the call's largest alpha: a row
    # next to 1/2 neither changes a row at 0.4 nor deepens its ring
    s, sigma = 1e300, 0.3
    found = circulant_uplink_rate(np.array([0.4, 0.5 - 2e-9]), s, sigma)
    assert found[0] == circulant_uplink_rate(0.4, s, sigma)
    want = float(rate_closed_form(s / (1.0 + sigma), 0.5 - 2e-9))
    assert abs(found[1] - want) <= 1e-10 * want
    half_ring, sampled = fdcran.oracle._half_ring, []

    def recorded(n):
        for block in half_ring(n):
            sampled.append(block[0].size)
            yield block

    monkeypatch.setattr(fdcran.oracle, "_half_ring", recorded)
    circulant_uplink_rate(0.5 - 2e-9, s, sigma)
    assert sum(sampled) == DEFAULT_CELLS // 2 + 1


def _closed_form(alpha: float) -> tuple[float, float]:
    """(h~_0^2, R_g(2)) = (d^3, r^2 (1 + 2d)) in 50 significant digits."""
    with localcontext() as digits:
        digits.prec = 50
        a = Decimal(alpha)
        d = (1 - 4 * a * a).sqrt()
        r = 2 * a / (1 + d)
        return float(d**3), float(r * r * (1 + 2 * d))


@pytest.mark.parametrize(
    "alpha",
    sorted({p.alpha for p in DOMAIN} | {0.0, 1e-4, 0.1, 0.4, 0.49, 0.499, 0.49999, 0.5 - 2e-9}),
)
def test_the_oracles_zero_forcing_ring_gives_the_closed_forms(alpha):
    # sampled on the oracle's own ring (about 5e5 cells at 0.5 - 2e-9),
    # h~_0^2 and R_g(2) are spectral's closed forms, h~_0^2 to 1e-13 beyond
    # the closed form's own rounding of 1 - 4 alpha^2, and the closed forms
    # taken in 50 digits to 1e-12, where the float ones are 3e-9 off at 0.5 - 2e-9
    h0sq, rg2 = fdcran.oracle._zero_forcing(alpha)
    closed = zf_constants(alpha)
    assert h0sq == pytest.approx(closed[0], rel=1e-13 + 2.0**-52 / (1.0 - 4.0 * alpha**2), abs=0)
    assert abs(rg2 - closed[1]) <= 1e-15
    exact = _closed_form(alpha)
    assert h0sq == pytest.approx(exact[0], rel=1e-12, abs=0) and abs(rg2 - exact[1]) <= 1e-15


def test_the_oracles_sigma_u_sq_is_the_solvers():
    # the circulant check takes sigma_u^2 from the oracle's own form: over
    # MIXED it is the reported sigma_u^2 to rounding, and inf where c_u = 0
    results = compute_batch(SchemeId.HD_CRAN, MIXED)
    found = fdcran.oracle.sigma_u_sq(MIXED, [p.p_u_max for p in MIXED], [0.0] * len(MIXED))
    for params, result, sigma in zip(MIXED, results, found.tolist()):
        reported = result.diagnostics["sigma_u_sq"]
        assert (sigma == math.inf) == (params.c_u == 0.0)
        assert sigma == reported or sigma == pytest.approx(reported, rel=1e-15, abs=0)


def test_a_zero_forcing_mistake_in_the_solver_fails_verify(monkeypatch):
    # the oracle samples its own ring, so zf_constants' R_g(2) with 1 + d for
    # 1 + 2d fails fig3's --verify instead of passing both copies
    def doctored(alpha):
        d = math.sqrt(1.0 - 4.0 * alpha * alpha)
        r = 2.0 * alpha / (1.0 + d)
        return d * d * d, r * r * (1.0 + d)

    monkeypatch.setattr(fdcran.spectral, "zf_constants", doctored)
    monkeypatch.setattr(rates, "zf_constants", doctored)
    assert verification_failures(run_sweep(replace(preset_spec("fig3"), oracle=True)))


def _certifies_on_the_budget_edges(scheme, raise_db) -> None:
    """DOMAIN raised by raise_db certifies to CERTIFIED_EPS below _MAX_CELLS,
    each solved r_eq in its interval to within the ring's 1e-9 (_RING_DEPTH)."""
    gain = db_to_linear(raise_db)
    points = [replace(p, p_u_max=p.p_u_max * gain, p_d_max=p.p_d_max * gain) for p in DOMAIN]
    results = compute_batch(scheme, points)
    argmaxes = [(r.diagnostics["p_u_star"], r.diagnostics["p_d_star"]) for r in results]
    for result, found in zip(results, certified_max_min(*SCHEMES[scheme], points, argmaxes)):
        assert found.eps == CERTIFIED_EPS and found.cells < fdcran.oracle._MAX_CELLS, found
        assert found.r_eq - 1e-9 <= result.r_eq <= found.r_eq + found.eps, (result, found)


@pytest.mark.parametrize("raise_db", [0.0, 20.0, 50.0])
@pytest.mark.parametrize("scheme", [SchemeId.FD_SCP, SchemeId.FD_CRAN], ids=lambda s: s.value)
def test_treat_as_noise_certifies_on_the_budget_edges_at_raised_budgets(scheme, raise_db):
    # from the whole box, up to 17 of these 20 points stopped at _MAX_CELLS
    # with eps widened to 4.1
    _certifies_on_the_budget_edges(scheme, raise_db)


@pytest.mark.parametrize("raise_db", [0.0, 20.0, 50.0, 100.0])
@pytest.mark.parametrize(
    "scheme", [SchemeId.FD_SCP_SIC, SchemeId.FD_CRAN_SIC], ids=lambda s: s.value
)
def test_sic_certifies_on_the_budget_edges_at_raised_budgets(scheme, raise_db):
    # at its best carried rate the SIC objective peaks on the budget edges too
    _certifies_on_the_budget_edges(scheme, raise_db)


def _does_not_fall_as_both_powers_scale_up(sic, params, u_db, d_db, u, d, scale) -> None:
    """The oracle's own objective of receiver sic at (u P_u, d P_d), in the
    box, is no lower than at scale <= 1 times those powers."""
    point = replace(params, p_u_max=db_to_linear(u_db), p_d_max=db_to_linear(d_db))
    for family in ("scp", "cran"):
        k = fdcran.oracle._columns(family, [point])
        rings = _rings(family, point)
        p_u, p_d = u * point.p_u_max * k.unit, d * point.p_d_max * k.unit
        with np.errstate(over="ignore"):
            noise = k.quant * (k.base + k.f * p_u + 2.0 * (k.h * p_d))
        if point.c_u > 0.0 and not np.isfinite(noise).all():
            continue  # sigma_u^2 past the float range: the program gives no rates
        high = fdcran.oracle._value(sic, k, rings, p_u, p_d)
        low = fdcran.oracle._value(sic, k, rings, scale * p_u, scale * p_d)
        assert (high >= low - 1e-12 * abs(low)).all(), family


@settings(derandomize=True, max_examples=EXAMPLES, deadline=None, database=None)
@given(domain, huge_db, huge_db, st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_the_treat_as_noise_objective_does_not_fall_as_both_powers_scale_up(
    params, u_db, d_db, u, d, scale
):
    # the premise that puts the treat-as-noise maximum on the budget edges
    _does_not_fall_as_both_powers_scale_up(TAN, params, u_db, d_db, u, d, scale)


@settings(derandomize=True, max_examples=EXAMPLES, deadline=None, database=None)
@given(domain, huge_db, huge_db, st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
# fig3 at gamma_ud = 3.5: decoding the uplink at its full capacity peaked
# inside the box at 0.9 times these powers
@example(preset_spec("fig3").params_at(3.5), 20.0, 20.0, 0.40058060634505543, 0.9334620169965505, 0.9)
def test_the_sic_objective_does_not_fall_as_both_powers_scale_up(
    params, u_db, d_db, u, d, scale
):
    # the premise that puts the SIC maximum, at its best carried rate, on
    # the budget edges
    _does_not_fall_as_both_powers_scale_up(SIC, params, u_db, d_db, u, d, scale)


@pytest.mark.parametrize("family, sic", FAMILIES)
def test_certified_memory_bound(monkeypatch, family, sic):
    # near alpha = 1/2 the uplink ring has DEFAULT_CELLS cells: the fewest
    # cells per group; at alpha = 0.5 - 2e-9 the zero-forcing ring has about
    # 5e5 cells, sampled afresh here
    points = [
        make_params(alpha=a, gamma_ud=g) for a in (0.1, 0.4999, 0.5 - 2e-9) for g in (0.5, 4.0)
    ]
    fdcran.oracle._zero_forcing.cache_clear()
    monkeypatch.setattr(fdcran.oracle, "np", _SizeProbe())
    certified_max_min(family, sic, points, [(1.0, 1.0)] * len(points))
    assert 0 < fdcran.oracle.np.largest <= fdcran.oracle._BLOCK_ELEMENTS


# beta_du = 1e100 and budgets of 3000/3080 dB: sigma_u^2 is about 2**688 at
# c_u = 1000 and stays far above the noise up to c_u = 1200
QUANTIZED = make_params(beta_du=1e100, p_u_max=1e300, p_d_max=1e308)


def test_the_uplink_gains_a_bit_per_fronthaul_bit_where_2_to_the_minus_c_u_underflows():
    # past c_u = 1074, 2**-c_u alone underflows, but sigma_u^2 = P / (2**c_u
    # - 1) does not: r_u rises by c_u - 1000 over its value at c_u = 1000, as
    # the model's log2(P_u / sigma_u^2) does, and is the ring's rate at the
    # reported sigma_u^2
    precoder = zf_precoder(QUANTIZED.alpha)
    powers = PowerAllocation(QUANTIZED.p_u_max, QUANTIZED.p_d_max)
    r_1000, _ = fd_cran_uplink(replace(QUANTIZED, c_u=1000.0), powers, precoder)
    for c_u in (1050.0, 1074.0, 1080.0, 1100.0, 1200.0):
        r_u, sigma_u_sq = fd_cran_uplink(replace(QUANTIZED, c_u=c_u), powers, precoder)
        assert r_u - r_1000 == pytest.approx(c_u - 1000.0, abs=1e-9), c_u
        ring = circulant_uplink_rate(QUANTIZED.alpha, powers.p_u, sigma_u_sq)
        assert r_u == pytest.approx(ring, abs=1e-9), c_u


# gamma_ud^2 P_u = 1e500 passes the float range, and so does t2's SINR
T2_PAST_THE_FLOAT_RANGE = make_params(
    alpha=0.0, beta_du=0.0, beta_ud=0.0, gamma_ud=1e100, p_u_max=1e300, p_d_max=1e300,
    c_u=2000.0, c_d=2000.0,
)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "scheme", [SchemeId.FD_SCP_SIC, SchemeId.FD_CRAN_SIC], ids=lambda s: s.value
)
def test_sic_is_certified_where_t2s_sinr_passes_the_float_range(scheme):
    # r_u = t1 = log2(1 + 1e300) > t2 / 2 = log2(1e500) / 2 = 250 log2 10:
    # t2 bounds the equal rate, for the solver and the certificate alike
    [result] = compute_batch(scheme, [T2_PAST_THE_FLOAT_RANGE])
    assert result.r_eq == pytest.approx(250.0 * math.log2(10.0), rel=1e-12, abs=0)
    argmax = (result.diagnostics["p_u_star"], result.diagnostics["p_d_star"])
    [found] = certified_max_min(*SCHEMES[scheme], [T2_PAST_THE_FLOAT_RANGE], [argmax])
    assert abs(result.r_eq - found.r_eq) <= found.eps, found


@pytest.mark.parametrize(
    "scheme", [s for s, (_, sic) in SCHEMES.items() if sic is not None], ids=lambda s: s.value
)
def test_a_point_stopped_at_max_cells_widens_its_eps_to_its_largest_bound_left(
    monkeypatch, scheme
):
    # fig3's points take more than 16 cells each with no argmax to start
    # from; capped at 16, a point that would pass them stops with eps
    # widened, and one that would not gets its full result
    spec = preset_spec("fig3")
    points = [spec.params_at(v) for v in spec.values()]
    argmaxes = [(0.0, 0.0)] * len(points)
    full = certified_max_min(*SCHEMES[scheme], points, argmaxes)
    monkeypatch.setattr(fdcran.oracle, "_MAX_CELLS", 16)
    capped = certified_max_min(*SCHEMES[scheme], points, argmaxes)
    assert any(f.cells > 16 for f in full)
    for result, whole, found in zip(compute_batch(scheme, points), full, capped):
        assert found.cells <= 16, found
        if whole.cells > 16:
            assert found.eps > CERTIFIED_EPS, found
        else:
            assert found == whole
        assert found.r_eq - 1e-9 <= result.r_eq <= found.r_eq + found.eps, (result, found)
