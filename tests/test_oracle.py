import math

import numpy as np
import pytest

import fdcran.oracle
from fdcran.oracle import (
    CirculantChannel,
    circulant_uplink_rate,
    circulant_uplink_rate_dense,
    exhaustive_power_opt,
    exhaustive_power_opts,
)
from fdcran.rates import SicMode, fd_scp
from fdcran.spectral import rate_integral
from fdcran.sweep import preset_spec

from conftest import make_params
from test_solver_properties import DOMAIN

TAN = SicMode.TREAT_AS_NOISE
SIC = SicMode.SIC


def test_wyner_channel_structure():
    ch = CirculantChannel.wyner(0.4, 8)
    assert list(ch.first_row) == [1.0, 0.4, 0.0, 0.0, 0.0, 0.0, 0.0, 0.4]
    m = ch.matrix()
    for k in range(8):
        assert np.array_equal(m[k], np.roll(ch.first_row, k))
    with pytest.raises(ValueError):
        CirculantChannel.wyner(0.4, 4)


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


def test_dense_logdet_size_cap():
    with pytest.raises(ValueError):
        circulant_uplink_rate_dense(0.4, 1.0, 0.0, 128)


@pytest.mark.parametrize("alpha", [0.1, 0.25, 0.4])
def test_finite_ring_converges_to_spectral_integral(alpha):
    sigma = 0.13
    limit = float(rate_integral(100.0 / (1.0 + sigma), alpha, 4096))
    gap_64 = abs(circulant_uplink_rate(alpha, 100.0, sigma, 64) - limit)
    gap_512 = abs(circulant_uplink_rate(alpha, 100.0, sigma, 512) - limit)
    assert gap_512 < 1e-3
    # convergence is exponential; by n = 64 both gaps sit at float noise, so
    # the ordering is asserted only up to rounding slack
    assert gap_512 <= gap_64 + 1e-12


def test_finite_ring_convergence_direction_is_measurable_at_small_n():
    limit = float(rate_integral(100.0, 0.4, 4096))
    gap_8 = abs(circulant_uplink_rate(0.4, 100.0, 0.0, 8) - limit)
    gap_512 = abs(circulant_uplink_rate(0.4, 100.0, 0.0, 512) - limit)
    assert gap_8 > 1e-6 > gap_512


def test_circulant_rate_input_validation():
    with pytest.raises(ValueError):
        circulant_uplink_rate(0.4, -1.0, 0.0, 512)
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
        else:
            t1 = np.log2(1.0 + pd / den)
            t2 = np.log2(1.0 + (pd + g2 * pu) / den)
            t3 = np.log2(1.0 + pd / (den + g2 * pu))
            r_d = np.minimum(t1, np.maximum(t2 - r_u, t3))
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
    """Each receiver alone, and one pass for each list of receivers, give the
    full grid's result for every receiver."""
    expected = {sic: _full_grid_reference(params, sic, resolution, candidate) for sic in (TAN, SIC)}
    for sic in (TAN, SIC):
        assert exhaustive_power_opt(params, sic, resolution, candidate) == expected[sic]
    for sics in ((TAN,), (SIC,), (TAN, SIC), (SIC, TAN)):
        got = exhaustive_power_opts(params, [(sic, candidate) for sic in sics], resolution)
        assert got == [expected[sic] for sic in sics]


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
    # one pass with a candidate of each receiver's own, as a --verify sweep asks
    tan_diag = fd_scp(params, TAN).diagnostics
    tan_argmax = (tan_diag["p_u_star"], tan_diag["p_d_star"])
    for receivers in (((TAN, tan_argmax), (SIC, off_grid)), ((SIC, off_grid), (TAN, None))):
        assert exhaustive_power_opts(params, receivers) == [
            _full_grid_reference(params, sic, 512, candidate) for sic, candidate in receivers
        ]


class _SizeProbe:
    """Stands in for numpy inside the oracle, recording the largest array that
    any numpy function returns there: the elementwise functions that every
    grid evaluation goes through, and any stacking or joining of blocks."""

    def __init__(self):
        self.largest = 0

    def __getattr__(self, name):
        fn = getattr(np, name)
        if not callable(fn):
            return fn

        def probed(*args, **kwargs):
            out = fn(*args, **kwargs)
            if isinstance(out, np.ndarray):
                self.largest = max(self.largest, out.size)
            return out

        return probed


@pytest.mark.parametrize("resolution", [64, 513, 1000])
def test_blocked_grid_memory_bound(monkeypatch, resolution):
    monkeypatch.setattr(fdcran.oracle, "np", _SizeProbe())
    exhaustive_power_opt(make_params(), SIC, resolution)
    assert 0 < fdcran.oracle.np.largest <= max(8192, resolution)
    # scoring both receivers in one pass keeps the same bound per temporary
    monkeypatch.setattr(fdcran.oracle, "np", _SizeProbe())
    exhaustive_power_opts(make_params(), [(TAN, None), (SIC, None)], resolution)
    assert 0 < fdcran.oracle.np.largest <= max(8192, resolution)
