import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import fdcran.rates as rates
from fdcran.model import PowerAllocation, SystemParams, db_to_linear
from fdcran.oracle import circulant_uplink_rate, exhaustive_power_opt
from fdcran.rates import (
    SicMode,
    compute_scheme,
    fd_cran,
    fd_cran_downlink,
    fd_cran_uplink,
    fd_scp,
    fd_scp_downlink_rate,
    fd_scp_uplink_rate,
    hd_cran,
    hd_cran_downlink,
    hd_cran_uplink,
    hd_scp,
)
from fdcran.model import SchemeId
from fdcran.spectral import zf_precoder
from fdcran.sweep import preset_spec, run_sweep

from conftest import make_params

TAN = SicMode.TREAT_AS_NOISE
SIC = SicMode.SIC


def test_fd_scp_decoupled_links():
    params = make_params(
        alpha=0.0, beta_du=0.0, beta_ud=0.0, gamma_ud=0.0,
        p_u_max=3.0, p_d_max=3.0, c_u=10.0, c_d=10.0,
    )
    for sic in (TAN, SIC):
        res = fd_scp(params, sic)
        assert res.r_eq == pytest.approx(2.0, abs=1e-12)
        assert res.diagnostics["p_u_star"] == 3.0
        assert res.diagnostics["p_d_star"] == 3.0


def test_fd_scp_sic_degenerates_without_intra_cell_interference():
    params = make_params(gamma_ud=0.0)
    assert fd_scp(params, SIC) == fd_scp(params, TAN)


def test_fd_scp_agrees_with_exhaustive_oracle(fig2_params):
    refined = fd_scp(fig2_params, SIC)
    brute, pu, pd = exhaustive_power_opt(fig2_params, SIC, 512)
    assert abs(refined.r_eq - brute) < 1e-3
    assert refined.r_eq >= brute - 1e-6  # refinement may only help


def test_fd_scp_regression_dense_small_cell_point(fig2_params):
    # optimum at (100, 18.8076); the oracle formulas give 1.8330483 on a
    # 2,000,001-point p_u = P_u edge and 1.8330450 on a 2048x2048 grid
    assert fd_scp(fig2_params, SIC).r_eq == pytest.approx(1.833048379670351, abs=1e-6)


def test_fd_scp_argmax_reproduces_value(fig2_params):
    for sic in (TAN, SIC):
        res = fd_scp(fig2_params, sic)
        p_u, p_d = res.diagnostics["p_u_star"], res.diagnostics["p_d_star"]
        r_u = fd_scp_uplink_rate(fig2_params, p_u, p_d)
        r_d = fd_scp_downlink_rate(fig2_params, p_u, p_d, sic, r_u)
        assert abs(min(r_u, r_d) - res.r_eq) <= 1e-12


@pytest.mark.parametrize("gamma_ud", [1.0, 2.0, 3.0])
def test_fd_scp_sic_search_beats_treat_as_noise_at_the_top_of_the_float_range(gamma_ud):
    # at the top of the float range the SIC search issues no warning and
    # finds an optimum far above treat-as-noise's
    params = make_params(
        p_u_max=db_to_linear(3000.0), p_d_max=db_to_linear(3080.0), c_u=2000.0, gamma_ud=gamma_ud
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = fd_scp(params, SIC)
    assert [w for w in caught if w.filename.endswith("rates.py")] == []
    assert res.r_eq > fd_scp(params, TAN).r_eq + 0.5
    # the oracle's own formulas give the same value at the reported argmax
    candidate = (res.diagnostics["p_u_star"], res.diagnostics["p_d_star"])
    scored = exhaustive_power_opt(params, SIC, 512, candidate)[0]
    assert scored == pytest.approx(res.r_eq, abs=1e-12)


# --- reduction identities: zero cross-duplex gains recover the HD formulas ---


def test_fd_scp_uplink_reduces_to_hd_exactly():
    fd_params = make_params(beta_du=0.0)
    for p_u, p_d in [(100.0, 37.0), (3.0, 100.0), (0.0, 50.0)]:
        hd = hd_scp(make_params(beta_du=0.0, p_u_max=p_u)).r_u
        assert fd_scp_uplink_rate(fd_params, p_u, p_d) == hd


def test_fd_scp_downlink_reduces_to_hd_exactly():
    fd_params = make_params(beta_ud=0.0, gamma_ud=0.0)
    for p_u, p_d in [(100.0, 37.0), (3.0, 100.0)]:
        hd = hd_scp(make_params(p_d_max=p_d)).r_d
        assert fd_scp_downlink_rate(fd_params, p_u, p_d, TAN) == hd
        r_u = fd_scp_uplink_rate(fd_params, p_u, p_d)
        assert fd_scp_downlink_rate(fd_params, p_u, p_d, SIC, r_u) == hd


def test_fd_cran_uplink_reduces_to_hd_exactly():
    pre = zf_precoder(0.4)
    fd_params = make_params(beta_du=0.0)
    for p_u, p_d in [(100.0, 42.0), (17.5, 99.0)]:
        rate, sigma = fd_cran_uplink(fd_params, PowerAllocation(p_u, p_d), pre)
        hd_rate, hd_sigma = hd_cran_uplink(make_params(beta_du=0.0, p_u_max=p_u))
        assert rate == hd_rate and sigma == hd_sigma


def test_fd_cran_downlink_reduces_to_hd_exactly():
    pre = zf_precoder(0.4)
    fd_params = make_params(beta_ud=0.0, gamma_ud=0.0)
    for p_u, p_d in [(100.0, 42.0), (17.5, 99.0)]:
        rate = fd_cran_downlink(fd_params, PowerAllocation(p_u, p_d), pre, TAN)
        hd_rate, _, _ = hd_cran_downlink(make_params(p_d_max=p_d), pre)
        assert rate == hd_rate
        assert fd_cran_downlink(fd_params, PowerAllocation(p_u, p_d), pre, SIC, 2.0) == hd_rate


def test_fd_cran_uplink_impulse_precoder_sigma():
    # alpha = 0 makes the ZF filter a unit impulse: R_g(2) = 0 and the
    # quantization noise reduces to (1 + p_u + 2 beta_du^2 p_d) / (2^c_u - 1)
    pre = zf_precoder(0.0)
    params = make_params(alpha=0.0, beta_du=0.5, c_u=3.0)
    _, sigma = fd_cran_uplink(params, PowerAllocation(40.0, 60.0), pre)
    assert sigma == pytest.approx((1.0 + 40.0 + 2.0 * 0.25 * 60.0) / 7.0, rel=1e-12)


def test_fd_cran_downlink_sic_requires_uplink_rate(fig2_params):
    pre = zf_precoder(0.4)
    with pytest.raises(ValueError):
        fd_cran_downlink(fig2_params, PowerAllocation(1.0, 1.0), pre, SIC)


def test_fd_cran_budget_enforced(fig2_params):
    pre = zf_precoder(0.4)
    with pytest.raises(ValueError):
        fd_cran_uplink(fig2_params, PowerAllocation(100.1, 1.0), pre)


def test_fd_cran_downlink_recovers_at_large_intra_cell_gain():
    # with SIC, the rate dips at moderate gamma_ud and then climbs back to t1
    # (the interference-free clamp) once the uplink message is easy to decode
    pre = zf_precoder(0.4)
    powers = PowerAllocation(50.0, 80.0)
    r_u = 2.0
    gammas = np.concatenate([np.linspace(0.05, 8.0, 80), np.linspace(9.0, 100.0, 40)])
    vals = [
        fd_cran_downlink(make_params(gamma_ud=float(g)), powers, pre, SIC, r_u)
        for g in gammas
    ]
    dip = int(np.argmin(vals))
    assert all(b >= a - 1e-12 for a, b in zip(vals[dip:], vals[dip + 1 :]))
    t1 = fd_cran_downlink(make_params(gamma_ud=0.0), powers, pre, TAN)
    assert vals[-1] == pytest.approx(t1, abs=1e-12)
    assert vals[dip] < t1 - 0.5  # the dip is real


def test_fd_cran_sic_degenerates_without_intra_cell_interference():
    params = make_params(gamma_ud=0.0)
    pre = zf_precoder(0.4)
    assert fd_cran(params, pre, SIC) == fd_cran(params, pre, TAN)


def test_fd_cran_argmax_reproduces_value(fig2_params):
    pre = zf_precoder(0.4)
    for sic in (TAN, SIC):
        res = fd_cran(fig2_params, pre, sic)
        powers = PowerAllocation(
            res.diagnostics["p_u_star"], res.diagnostics["p_d_star"]
        )
        r_u, _ = fd_cran_uplink(fig2_params, powers, pre)
        r_d = fd_cran_downlink(fig2_params, powers, pre, sic, r_u)
        assert abs(min(r_u, r_d) - res.r_eq) <= 1e-12


def test_fd_cran_sic_finds_an_optimum_off_the_budget_edges_at_a_large_budget():
    # decoding the uplink at its capacity peaked at 2.4716045 near p_u = 5.59,
    # p_d = 169.5, tiny against both budgets; at its best carried rate the
    # optimum lies on the edge p_d = P_d
    params = SystemParams(
        alpha=0.36578493843872995, beta_du=0.4110929869045731, beta_ud=0.23499225631812276,
        gamma_du=0.0, gamma_ud=7.134233390360064, p_u_max=94622531.7406011,
        p_d_max=628239.9283185953, c_u=11.313351282761829, c_d=4.47448611447474,
    )
    pre = zf_precoder(params.alpha)
    res = fd_cran(params, pre, SIC)
    assert res.r_eq >= 2.4716045
    powers = PowerAllocation(res.diagnostics["p_u_star"], res.diagnostics["p_d_star"])
    r_u, _ = fd_cran_uplink(params, powers, pre)
    assert abs(r_u - res.r_u) <= 1e-12
    assert abs(fd_cran_downlink(params, powers, pre, SIC, r_u) - res.r_d) <= 1e-12


def test_fd_cran_uplink_argmax_matches_circulant_oracle(fig2_params):
    pre = zf_precoder(0.4)
    res = fd_cran(fig2_params, pre, SIC)
    oracle = circulant_uplink_rate(
        0.4, res.diagnostics["p_u_star"], res.diagnostics["sigma_u_sq"], 512
    )
    assert abs(res.r_u - oracle) < 1e-3


def test_fd_cran_uplink_full_power_independent_oracle(fig2_params):
    # assemble the oracle without touching the implementation's spectral path:
    # lag-2 filter correlation from time-domain taps, quantization noise from
    # the D-U covariance formula, rate from the finite-ring log-det
    alpha, n = 0.4, 4096
    pre = zf_precoder(alpha, n)
    f = np.arange(n) / n
    g_freq = pre.g_of_f[0] * (1.0 + 2 * alpha) / (1.0 + 2 * alpha * np.cos(2 * np.pi * f))
    taps = np.fft.ifft(g_freq).real
    window = np.concatenate([taps[-64:], taps[: 64 + 1]])
    rg2_td = float(sum(window[i] * window[i - 2] for i in range(2, window.size)))

    sigma_oracle = (
        1.0 + (1.0 + 2 * 0.16) * 100.0 + 2 * 0.16 * (1.0 + rg2_td) * 100.0
    ) / (2.0**10 - 1.0)
    rate_oracle = circulant_uplink_rate(alpha, 100.0, sigma_oracle, 512)

    rate, sigma = fd_cran_uplink(fig2_params, PowerAllocation(100.0, 100.0), pre)
    assert sigma == pytest.approx(sigma_oracle, abs=1e-6)
    assert abs(rate - rate_oracle) < 1e-3


def test_fd_cran_regression_dense_small_cell_point(fig2_params):
    # optimum at (27.4465, 100); 4096-panel quadrature gives 4.2276710 on a
    # 200,001-point p_d = P_d edge and 4.2274450 on a 1025x1025 grid (512 panels)
    res = fd_cran(fig2_params, zf_precoder(0.4), SIC)
    assert res.r_eq == pytest.approx(4.227671180719804, abs=1e-6)


def test_fd_cran_full_power_flag(fig2_params):
    res = compute_scheme(SchemeId.FD_CRAN_SIC, fig2_params, full_power=True)
    assert res.diagnostics["p_u_star"] == 100.0
    assert res.diagnostics["p_d_star"] == 100.0
    assert res.r_eq <= compute_scheme(SchemeId.FD_CRAN_SIC, fig2_params).r_eq + 1e-12


@pytest.mark.parametrize("scheme", [SchemeId.FD_SCP, SchemeId.FD_CRAN], ids=lambda s: s.value)
def test_treat_as_noise_equal_rate_never_falls_with_the_uplink_budget(scheme):
    # a larger power box never lowers the max-min; at P_u = 3000 dB the
    # optimum sits at p_u / P_u below 1e-298, which the edge search still resolves
    r_eq = [
        compute_scheme(scheme, make_params(p_u_max=db_to_linear(db))).r_eq
        for db in (20.0, 100.0, 150.0, 200.0, 250.0, 3000.0)
    ]
    assert all(later >= earlier - 1e-12 for earlier, later in zip(r_eq, r_eq[1:]))
    assert r_eq[3] == pytest.approx(r_eq[0], rel=0.0, abs=1e-12)


def test_sic_never_hurts():
    rng = np.random.default_rng(3)
    pre_cache = {}
    for _ in range(8):
        params = make_params(
            alpha=float(rng.uniform(0.0, 0.45)),
            beta_du=float(rng.uniform(0.0, 0.6)),
            beta_ud=float(rng.uniform(0.0, 0.15)),
            gamma_ud=float(rng.uniform(0.0, 6.0)),
            c_u=float(rng.uniform(1.0, 12.0)),
            c_d=float(rng.uniform(1.0, 12.0)),
        )
        assert fd_scp(params, SIC).r_eq >= fd_scp(params, TAN).r_eq - 1e-9
        pre = pre_cache.setdefault(params.alpha, zf_precoder(params.alpha, 1024))
        sic = fd_cran(params, pre, SIC).r_eq
        tan = fd_cran(params, pre, TAN).r_eq
        assert sic >= tan - 1e-9


def test_equal_rate_non_decreasing_in_fronthaul():
    for scheme in SchemeId:
        last = -1.0
        for c in np.linspace(0.0, 12.0, 20):
            params = make_params(c_u=float(c), c_d=float(c))
            r_eq = compute_scheme(scheme, params).r_eq
            assert r_eq >= last - 1e-9, f"{scheme} not monotone at c={c}"
            last = r_eq


def test_duplex_gain_single_cell_processing():
    for alpha in (0.0, 0.3):
        params = make_params(
            alpha=alpha, beta_du=0.0, beta_ud=0.0, gamma_ud=0.0,
            p_u_max=3.0, p_d_max=3.0, c_u=1000.0, c_d=1000.0,
        )
        ratio = fd_scp(params, TAN).r_eq / hd_scp(params).r_eq
        assert ratio == pytest.approx(2.0, abs=1e-12)


def test_duplex_gain_cran():
    params = make_params(
        alpha=0.0, beta_du=0.0, beta_ud=0.0, gamma_ud=0.0,
        p_u_max=100.0, p_d_max=100.0, c_u=1000.0, c_d=1000.0,
    )
    pre = zf_precoder(0.0)
    ratio = fd_cran(params, pre, TAN).r_eq / hd_cran(params, pre).r_eq
    assert 1.99 <= ratio <= 2.0 + 1e-9


@pytest.mark.parametrize("preset, calls", [("fig2", 81), ("fig3", 63)])
def test_a_sweep_rates_each_search_point_once(monkeypatch, preset, calls):
    # the edge search takes each free term's direction from its first pass
    # and its bracket ends' values from its last: a separate probe of each
    # edge's ends and a second rating of the final bracket ends would make
    # two more kernel calls in each of the sweep's four edge searches; the
    # reported rates, one float call a row, are not the search's
    kernel, counted = rates._rates, []

    def counting(xp, *args):
        counted.append(xp is not rates._MATH)
        return kernel(xp, *args)

    monkeypatch.setattr(rates, "_rates", counting)
    run_sweep(preset_spec(preset))
    assert sum(counted) == calls


@pytest.mark.parametrize(
    "preset, schemes, searches, builds",
    [
        ("fig2", tuple(SchemeId), 4, 50),
        ("fig3", tuple(SchemeId), 4, 66),
        ("fig3", (SchemeId.FD_SCP_SIC,), 2, 33),
    ],
)
def test_a_family_builds_its_constants_and_searches_treat_as_noise_once(
    monkeypatch, preset, schemes, searches, builds
):
    # each family's schemes of a block share one solve: each point's
    # constants once, one treat-as-noise edge search for both full-duplex
    # receivers, and SIC's bound search where a SIC receiver is swept;
    # fig2's 25 values and fig3's 33 make one block each
    counted = {"_edge_optimum": 0, "_form": 0}
    for name in counted:
        original = getattr(rates, name)

        def counting(*args, name=name, original=original):
            counted[name] += 1
            return original(*args)

        monkeypatch.setattr(rates, name, counting)
    run_sweep(replace(preset_spec(preset), schemes=schemes))
    assert counted == {"_edge_optimum": searches, "_form": builds}
