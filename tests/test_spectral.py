import math
import random
from decimal import Decimal, localcontext

import numpy as np
import pytest

from fdcran.model import ZfSingularError
from fdcran.oracle import _zero_forcing
from fdcran.spectral import (
    DEFAULT_PANELS,
    _quad,
    channel_response,
    h_tilde,
    rate_closed_form,
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
    # up to the edge of the zero-forcing domain, where r -> 1 and d -> 0:
    # h~_0^2 from the sampled precoder, R_g(2) from the oracle's ring
    for alpha in np.linspace(0.0, 0.4999, 1001).tolist():
        pre = zf_precoder(alpha, 4096)
        h0sq, rg2 = zf_constants(alpha)
        assert h0sq == pytest.approx(h_tilde(pre, alpha, 0) ** 2, rel=1e-12, abs=0.0), alpha
        assert rg2 == pytest.approx(_zero_forcing(alpha)[1], rel=0.0, abs=1e-14), alpha
    assert zf_constants(0.0) == (1.0, 0.0)


def _zf_constants_60_digits(alpha: float) -> tuple[Decimal, Decimal]:
    # (d^3, r^2 (1 + 2d)) of the float alpha, exactly as given, to 60 digits
    with localcontext() as ctx:
        ctx.prec = 60
        a = Decimal(alpha)
        d = (1 - 4 * a * a).sqrt()
        r = 2 * a / (1 + d)
        return d * d * d, r * r * (1 + 2 * d)


def test_zf_constants_keep_their_digits_next_to_one_half():
    # d = sqrt((1 - 2 alpha)(1 + 2 alpha)) does not cancel as 4 alpha^2 nears
    # 1; sqrt(1 - 4 alpha^2) lost up to 5.6e-9 relative in d^3 here
    rng = random.Random(20141)
    limit = 0.5 - 1e-9  # the least alpha zero forcing rejects
    near = [0.5 - 10.0**-k for k in range(1, 9)] + [math.nextafter(limit, 0.0), 0.4999999963]
    spread = [rng.uniform(0.0, limit) for _ in range(2000)]
    edge = [0.5 - rng.uniform(2e-9, 1e-3) for _ in range(2000)]
    for alpha in near + spread + edge:
        for got, want in zip(zf_constants(alpha), _zf_constants_60_digits(alpha)):
            assert abs(Decimal(got) - want) <= Decimal("1e-15") * want, alpha


@pytest.mark.parametrize("alpha", ALPHA_GRID)
def test_zf_nulls_off_center_taps(alpha):
    pre = zf_precoder(alpha, 4096)
    for k in (1, 2, 3):
        assert abs(h_tilde(pre, alpha, k)) < 1e-8


@pytest.mark.parametrize("alpha", ALPHA_GRID)
def test_unit_energy(alpha):
    pre = zf_precoder(alpha)
    assert abs(integrate_unit(lambda f: pre.g_of_f**2, pre.panels) - 1.0) < 1e-10


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
    assert abs(zf_constants(alpha)[1] - acf2) < 1e-6


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


# ----------------------------------------------------------------------------
# rate_closed_form against an independent form of the same integral


def _complex_closed_form(s, alpha):
    """2 log2|z| for z the larger-modulus root (a + sqrt(a^2 - b^2))/2 of
    Jensen's formula for |a + b cos 2 pi f|^2, a = 1 + i sqrt(s) and
    b = 2 i alpha sqrt(s), in complex arithmetic, z - 1 formed without
    cancellation.  Its z1.imag**2 overflows at the largest floats."""
    u = np.sqrt(s)
    w = (4.0 * alpha * alpha - 1.0) * s + 2j * u  # a^2 - b^2 - 1
    z1 = 0.5 * (1j * u + w / (1.0 + np.sqrt(1.0 + w)))  # z - 1
    return np.log1p(z1.real * (2.0 + z1.real) + z1.imag * z1.imag) / math.log(2.0)


CLOSED_FORM_S = np.concatenate(
    [[0.0, 5e-324], np.logspace(-300.0, 308.0, 6001), [np.finfo(float).max]]
)


def _assert_matches_the_complex_form(alpha):
    """rate_closed_form, on arrays and on scalars, finite everywhere and
    within 8 eps of the complex form wherever that is finite; returns it."""
    got = rate_closed_form(CLOSED_FORM_S, alpha)
    assert np.isfinite(got).all()
    with np.errstate(over="ignore", invalid="ignore"):
        want = _complex_closed_form(CLOSED_FORM_S, alpha)
    finite = np.isfinite(want)
    eps = np.finfo(float).eps
    assert (np.abs(got - want) <= 8.0 * eps * np.abs(want) + 1e-300)[finite].all()
    for s, g in zip(CLOSED_FORM_S[::500].tolist(), got[::500].tolist()):
        scalar = rate_closed_form(s, alpha)
        assert isinstance(scalar, float)
        assert scalar == g
    return got, finite


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("alpha", [0.0, 0.1, 0.25, 0.4, 0.49, 0.49999, 0.5, -0.3, -0.5])
def test_rate_closed_form_matches_the_complex_form(alpha):
    # from s = 0 and the least subnormal up to the largest float, where the
    # scaled branch takes over (about 1022 to 1024 bits)
    got, finite = _assert_matches_the_complex_form(alpha)
    assert finite[:-1].all()
    assert 1022.0 <= got[-1] <= 1024.0


@pytest.mark.parametrize("s", [0.0, 7.0, 1e300])
def test_rate_closed_form_of_a_scalar_s_and_an_array_alpha_is_an_array(s):
    # a scalar s broadcasts against an array alpha as np.full would; only a
    # scalar alpha with it gives a float (a scalar s once gave alpha[0]'s rate)
    alpha = np.array([0.4, 0.4999, 0.5 - 2e-9])
    for a in (alpha, alpha[:, None]):
        got = rate_closed_form(s, a)
        assert got.shape == a.shape
        assert got.tolist() == rate_closed_form(np.full(a.shape, s), a).tolist()
    assert rate_closed_form(1e300, alpha)[1] != rate_closed_form(1e300, alpha)[0]
    scalar = rate_closed_form(s, 0.4)
    assert isinstance(scalar, float) and scalar == rate_closed_form(np.full(1, s), 0.4)[0]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("alpha", [0.5000001, 0.6, 1.0, 3.0, -0.6, -1.0, -3.0])
def test_rate_closed_form_matches_the_complex_form_above_one_half(alpha):
    # hd_cran_uplink, which needs no zero-forcing precoder, takes any alpha,
    # and the integral depends on alpha only through alpha^2
    _assert_matches_the_complex_form(alpha)
