import math

import numpy as np
import pytest

from fdcran.model import NumericDomainError, ZfSingularError
from fdcran.spectral import (
    DEFAULT_PANELS,
    _quad,
    channel_response,
    h_tilde,
    rate_integral,
    rg,
    simpson_weights,
    unit_grid,
    zf_constants,
    zf_precoder,
)

ALPHA_GRID = [round(0.05 * i, 2) for i in range(10)]  # 0.00 .. 0.45


def integrate_unit(fn, panels: int = DEFAULT_PANELS) -> float:
    """The integral of fn over [0, 1] by _quad, every quadrature's one path."""
    return _quad(fn(unit_grid(panels)), panels)


@pytest.mark.parametrize(
    "alpha,f,expected",
    [(0.0, 0.37, 1.0), (0.4, 0.0, 1.8), (0.4, 0.5, 0.2)],
)
def test_channel_response(alpha, f, expected):
    assert channel_response(alpha, f) == pytest.approx(expected, abs=1e-12)


def test_integrate_constant():
    assert integrate_unit(np.ones_like) == pytest.approx(1.0, abs=1e-12)


def test_integrate_full_period_cosine():
    assert abs(integrate_unit(lambda f: np.cos(2 * np.pi * f), 4096)) < 1e-12


def test_integrate_channel_power():
    # analytic value of the three-tap channel's power: 1 + 2*alpha^2
    val = integrate_unit(lambda f: channel_response(0.4, f) ** 2, 4096)
    assert val == pytest.approx(1.32, abs=1e-9)
    # brute-force Riemann cross-check
    f = np.arange(200_000) / 200_000
    riemann = float(np.mean(channel_response(0.4, f) ** 2))
    assert val == pytest.approx(riemann, abs=1e-6)


@pytest.mark.parametrize("panels", [3, 0, -2, 7])
def test_integrate_rejects_bad_panels(panels):
    with pytest.raises(ValueError):
        integrate_unit(np.ones_like, panels)


def test_zf_identity_channel():
    pre = zf_precoder(0.0)
    assert np.allclose(pre.g_of_f, 1.0, atol=1e-12)
    assert h_tilde(pre, 0.0, 0) == pytest.approx(1.0, abs=1e-12)


def test_zf_closed_form_alpha_04():
    pre = zf_precoder(0.4)
    h0 = h_tilde(pre, 0.4, 0)
    assert h0 * h0 == pytest.approx(0.216, abs=1e-9)
    assert h0 == pytest.approx(0.216**0.5, abs=1e-9)
    # d = 0.6 and r = 0.5: R_g(2) = 0.25 * 2.2
    assert zf_constants(0.4) == pytest.approx((0.216, 0.55), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("alpha", [0.5, 0.7, 0.5 - 1e-12])
def test_zf_singular(alpha):
    for build in (zf_precoder, zf_constants):
        with pytest.raises(ZfSingularError) as err:
            build(alpha)
        assert err.value.alpha == alpha


def test_zf_rejects_negative_alpha():
    for build in (zf_precoder, zf_constants):
        for bad in (-0.1, math.nan, math.inf, "0.3"):
            with pytest.raises(ValueError, match="alpha must be finite"):
                build(bad)


@pytest.mark.parametrize("alpha", ALPHA_GRID)
def test_zf_closed_form_grid(alpha):
    pre = zf_precoder(alpha, 4096)
    h0sq = h_tilde(pre, alpha, 0) ** 2
    assert abs(h0sq - (1.0 - 4.0 * alpha**2) ** 1.5) < 1e-9
    assert zf_constants(alpha)[0] == pytest.approx(h0sq, rel=1e-12, abs=0.0)


def test_zf_constants_match_the_sampled_precoder():
    # up to the edge of the zero-forcing domain, where r -> 1 and d -> 0
    for alpha in np.linspace(0.0, 0.4999, 1001).tolist():
        pre = zf_precoder(alpha, 4096)
        h0sq, rg2 = zf_constants(alpha)
        assert h0sq == pytest.approx(h_tilde(pre, alpha, 0) ** 2, rel=1e-12, abs=0.0), alpha
        assert rg2 == pytest.approx(rg(pre, 2), rel=0.0, abs=1e-14), alpha
    assert zf_constants(0.0) == (1.0, 0.0)


@pytest.mark.parametrize("alpha", ALPHA_GRID)
def test_zf_nulls_off_center_taps(alpha):
    pre = zf_precoder(alpha, 4096)
    for k in (1, 2, 3):
        assert abs(h_tilde(pre, alpha, k)) < 1e-8


@pytest.mark.parametrize("alpha", ALPHA_GRID)
def test_unit_energy(alpha):
    assert abs(zf_precoder(alpha).energy() - 1.0) < 1e-10


def test_rg_trivial_cases():
    impulse = zf_precoder(0.0)
    assert abs(rg(impulse, 2)) < 1e-12
    assert rg(impulse, 0) == pytest.approx(1.0, abs=1e-10)
    assert rg(zf_precoder(0.4), 0) == pytest.approx(1.0, abs=1e-10)


def test_rg_matches_time_domain_taps():
    # independent oracle: sample G on a uniform DFT grid, transform to taps,
    # truncate, and correlate directly
    alpha, n = 0.4, 4096
    pre = zf_precoder(alpha, n)
    f = np.arange(n) / n
    g_freq = pre.g_of_f[0] * channel_response(alpha, 0.0) / channel_response(alpha, f)
    taps = np.fft.ifft(g_freq).real
    window = np.concatenate([taps[-64:], taps[: 64 + 1]])  # k = -64 .. 64
    acf2 = float(sum(window[i] * window[i - 2] for i in range(2, window.size)))
    assert abs(rg(pre, 2) - acf2) < 1e-6


def test_symmetry_fold_is_exact():
    # for integrands even about f = 1/2, the [0,1] integral equals twice the
    # [0,1/2] integral (evaluated by mapping [0,1/2] back onto the unit grid)
    pre = zf_precoder(0.4, 4096)

    def fold(fn):
        return 2.0 * 0.5 * integrate_unit(lambda u: fn(u / 2.0), 2048)

    for fn in (
        lambda f: channel_response(0.4, f) ** 2,
        lambda f: np.interp(f, unit_grid(4096), pre.g_of_f) ** 2,
        lambda f: channel_response(0.4, f) * np.cos(2 * np.pi * 2 * f),
    ):
        assert abs(integrate_unit(fn, 4096) - fold(fn)) < 1e-12


def test_rate_integral_flat_channel():
    # alpha = 0 collapses the integral to log2(1 + s)
    for s in (0.0, 1.0, 42.0):
        assert rate_integral(s, 0.0, 4096) == pytest.approx(math.log2(1 + s), abs=1e-12)


def test_rate_integral_rejects_negative():
    with pytest.raises(NumericDomainError):
        rate_integral(-1.0, 0.4)


def test_simpson_weights_sum_to_one():
    for panels in (2, 64, 4096):
        assert abs(float(np.sum(simpson_weights(panels))) - 1.0) < 1e-12
