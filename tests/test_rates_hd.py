import math

import numpy as np
import pytest

from fdcran.model import SchemeId, ZfSingularError
from fdcran.oracle import circulant_uplink_rate
from fdcran.rates import (
    compute_scheme,
    equal_rate_split,
    fd_cran,
    fd_cran_downlink,
    fd_cran_uplink,
    hd_cran,
    hd_cran_downlink,
    hd_cran_uplink,
    hd_scp,
)
from fdcran.model import PowerAllocation
from fdcran.spectral import zf_precoder

from conftest import make_params


def numeric_equal_rate(r_u: float, r_d: float) -> float:
    """Independent check of the time-split optimum: maximize
    min(f*r_u, (1-f)*r_d) on the 1e-4 grid, then zoom twice."""
    f = np.linspace(0.0, 1.0, 10001)
    best = 0.0
    for _ in range(3):
        vals = np.minimum(f * r_u, (1.0 - f) * r_d)
        i = int(np.argmax(vals))
        best = max(best, float(vals[i]))
        span = f[1] - f[0]
        f = np.linspace(max(0.0, f[i] - span), min(1.0, f[i] + span), 1001)
    vals = np.minimum(f * r_u, (1.0 - f) * r_d)
    return max(best, float(vals.max()))


def test_hd_scp_no_interference():
    params = make_params(alpha=0.0, p_u_max=3.0, p_d_max=3.0, c_u=10.0, c_d=10.0)
    res = hd_scp(params)
    assert res.r_u == pytest.approx(2.0, abs=1e-15)
    assert res.r_d == pytest.approx(2.0, abs=1e-15)
    assert res.r_eq == pytest.approx(1.0, abs=1e-15)
    assert res.diagnostics["f_star"] == pytest.approx(0.5, abs=1e-15)


def test_hd_scp_interference_limited_uplink():
    params = make_params(alpha=0.4, p_u_max=100.0, c_u=10.0)
    # direct evaluation: C(100 / (1 + 2*0.16*100)) = log2(1 + 100/33)
    assert hd_scp(params).r_u == pytest.approx(2.010888316142736, abs=1e-12)


def test_hd_scp_fronthaul_cap_applies_before_split():
    params = make_params(alpha=0.0, p_u_max=3.0, p_d_max=3.0, c_u=1.25, c_d=10.0)
    res = hd_scp(params)
    assert res.r_u == 1.25  # capped below C(3) = 2
    assert res.r_eq == pytest.approx(1.25 * 2.0 / 3.25, abs=1e-12)


def test_hd_scp_zero_fronthaul():
    res = hd_scp(make_params(c_u=0.0))
    assert res.r_u == 0.0 and res.r_eq == 0.0
    assert res.diagnostics["f_star"] == 1.0  # all time to the dead direction's peer


def test_equal_rate_split_conventions():
    assert equal_rate_split(0.0, 0.0) == (0.0, None)
    assert equal_rate_split(2.0, 0.0) == (0.0, 0.0)
    r_eq, f_star = equal_rate_split(3.0, 3.0)
    assert r_eq == pytest.approx(1.5, abs=1e-15)
    assert f_star == 0.5


def test_equal_rate_split_matches_numeric_maximization():
    rng = np.random.default_rng(11)
    for r_u, r_d in rng.uniform(0.05, 8.0, size=(20, 2)):
        closed, _ = equal_rate_split(float(r_u), float(r_d))
        assert abs(closed - numeric_equal_rate(float(r_u), float(r_d))) < 1e-6


def test_hd_cran_uplink_flat_channel():
    params = make_params(alpha=0.0, p_u_max=1.0, c_u=1.0)
    rate, sigma = hd_cran_uplink(params)
    assert sigma == pytest.approx(2.0, abs=1e-15)
    assert rate == pytest.approx(math.log2(4.0 / 3.0), abs=1e-12)


def test_hd_cran_uplink_ample_fronthaul():
    params = make_params(alpha=0.0, p_u_max=100.0, c_u=30.0)
    rate, sigma = hd_cran_uplink(params)
    assert sigma == pytest.approx(101.0 / (2.0**30 - 1.0), rel=1e-12)
    assert rate == pytest.approx(math.log2(101.0), abs=1e-6)


def test_hd_cran_uplink_matches_circulant_oracle():
    params = make_params(alpha=0.4, p_u_max=100.0, c_u=10.0)
    rate, sigma = hd_cran_uplink(params, 4096)
    oracle = circulant_uplink_rate(0.4, 100.0, sigma, 512)
    assert abs(rate - oracle) < 1e-3


def test_hd_cran_uplink_zero_fronthaul():
    rate, sigma = hd_cran_uplink(make_params(c_u=0.0))
    assert rate == 0.0
    assert math.isinf(sigma)


@pytest.mark.parametrize("alpha", [0.0, 0.4, 0.5 - 1.5e-9, 0.5 - 5e-10, 0.5, 0.6, 1.0])
def test_hd_cran_uplink_takes_the_alphas_of_hd_cran(alpha):
    # one alpha domain for every C-RAN rate: the uplink alone gives hd_cran's
    # r_u and sigma_u^2, or both reject alpha past the zero-forcing limit
    params = make_params(alpha=alpha)
    try:
        result = compute_scheme(SchemeId.HD_CRAN, params)
    except ZfSingularError:
        with pytest.raises(ZfSingularError):
            hd_cran_uplink(params)
        return
    assert hd_cran_uplink(params) == (result.r_u, result.diagnostics["sigma_u_sq"])


def test_hd_cran_downlink_flat_channel():
    params = make_params(alpha=0.0, p_d_max=3.0, c_d=2.0)
    rate, sigma, p_s = hd_cran_downlink(params, zf_precoder(0.0))
    assert p_s == pytest.approx(2.25, abs=1e-15)
    assert sigma == pytest.approx(0.75, abs=1e-15)
    assert rate == pytest.approx(math.log2(1.0 + 2.25 / 1.75), abs=1e-12)


def test_hd_cran_downlink_ample_fronthaul_hits_zf_closed_form():
    params = make_params(alpha=0.4, p_d_max=100.0, c_d=1000.0)
    rate, sigma, p_s = hd_cran_downlink(params, zf_precoder(0.4))
    assert sigma < 1e-290 and p_s == pytest.approx(100.0, abs=1e-12)
    assert rate == pytest.approx(math.log2(1.0 + 100.0 * 0.216), abs=1e-9)


def test_hd_cran_downlink_zero_fronthaul():
    params = make_params(p_d_max=100.0, c_d=0.0)
    rate, sigma, p_s = hd_cran_downlink(params, zf_precoder(0.4))
    assert rate == 0.0 and p_s == 0.0
    assert sigma == 100.0  # everything the RU radiates is quantization noise


# every public function that takes a precoder, applied to params and a precoder
_TAKING_A_PRECODER = {
    "hd_cran": hd_cran,
    "hd_cran_downlink": hd_cran_downlink,
    "fd_cran": fd_cran,
    "fd_cran_uplink": lambda params, pre: fd_cran_uplink(params, PowerAllocation(1.0, 1.0), pre),
    "fd_cran_downlink": lambda params, pre: fd_cran_downlink(params, PowerAllocation(1.0, 1.0), pre),
}


@pytest.mark.parametrize("name", _TAKING_A_PRECODER)
def test_a_precoder_for_another_alpha_is_rejected(name):
    # only the zero-forcing precoder of the point's own alpha is modelled
    call = _TAKING_A_PRECODER[name]
    params = make_params(alpha=0.4)
    with pytest.raises(ValueError, match="precoder is for alpha=0.3, not 0.4"):
        call(params, zf_precoder(0.3))
    call(params, zf_precoder(0.4))


def test_hd_cran_combines_directions(fig2_params):
    pre = zf_precoder(0.4)
    res = hd_cran(fig2_params, pre)
    r_u, sigma_u = hd_cran_uplink(fig2_params)
    r_d, sigma_d, p_s = hd_cran_downlink(fig2_params, pre)
    assert res.r_u == r_u and res.r_d == r_d
    assert res.r_eq == pytest.approx(r_u * r_d / (r_u + r_d), abs=1e-14)
    assert res.diagnostics["f_star"] == pytest.approx(r_d / (r_u + r_d), abs=1e-14)
    assert res.diagnostics["sigma_u_sq"] == sigma_u
    assert res.diagnostics["sigma_d_sq"] == sigma_d
    assert res.diagnostics["p_s"] == p_s


def test_hd_cran_zero_uplink_fronthaul_kills_equal_rate():
    res = hd_cran(make_params(c_u=0.0), zf_precoder(0.4))
    assert res.r_eq == 0.0 and res.r_u == 0.0 and res.r_d > 0.0


def test_hd_cran_regression_dense_small_cell_point(fig2_params):
    # frozen after oracle-verified first computation (uplink checked against
    # the n=512 circulant ring, downlink against the ZF closed form)
    res = hd_cran(fig2_params, zf_precoder(0.4))
    assert res.r_eq == pytest.approx(2.4961608688035133, abs=1e-6)
    assert abs(
        circulant_uplink_rate(0.4, 100.0, res.diagnostics["sigma_u_sq"], 512) - res.r_u
    ) < 1e-3
