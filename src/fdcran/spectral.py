"""Frequency-domain machinery for the linear Wyner channel.

Every rate comes from two closed forms: rate_closed_form, the exact uplink
rate integral in real arithmetic (Jensen's formula, the larger root's
modulus taken from the distances of one point to +-1), and zf_constants,
the exact zero-forcing h~_0^2 and R_g(2), both for |alpha| <= 1/2: every
C-RAN rate needs the precoder, whose domain _check_zf_alpha alone decides.
The rate kernel, _closed_form, takes floats through the math shim _MATH,
which the rate kernels of rates share, and rate_closed_form maps it over
arrays.  The rest samples the unit frequency interval at an even panel
count, deterministically for a given count: the channel response H(f), the
trapezoid rule (_quad), the sampled zero-forcing precoder and the effective
channel taps h~_k, which the tests check zf_constants against.  On the
periodic integrands of the ring the trapezoid rule is the ring's own mean,
which converges exponentially (Trefethen and Weideman, SIAM Review 2014).
Only those samples and the public rate_closed_form import numpy, on first
use.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace

from .model import ZfSingularError

__all__ = [
    "DEFAULT_PANELS",
    "Precoder",
    "channel_response",
    "h_tilde",
    "rate_closed_form",
    "unit_grid",
    "zf_constants",
    "zf_precoder",
]

DEFAULT_PANELS = 4096

# 1/H(f)^2 stops being integrable at alpha = 0.5; reject just below.
_ZF_ALPHA_LIMIT = 0.5 - 1e-9
# rate_closed_form's scaled branch starts here, below where any of its
# intermediates can pass the float range (|alpha| <= 1/2)
_HUGE_SNR = 2.0**1020
_TWO_OVER_LN2 = 2.0 / math.log(2.0)


def _ldexp(x, n):  # math.ldexp, inf as numpy gives it where the result overflows
    try:
        return math.ldexp(x, n)
    except OverflowError:
        return math.copysign(math.inf, x)


# The float kernels' math shim, for the closed form here and the rate kernels
# of rates: what they call of math, with numpy's results where math raises
# (-inf at 0, NaN below a domain), and numpy's minimum and maximum, which
# return a NaN argument where Python's min and max drop it by position.  The
# kernels' own float arithmetic overflows to inf, as numpy's does, and
# divides by no zero.
_MATH = SimpleNamespace(
    log2=lambda x: math.log2(x) if x > 0.0 else -math.inf if x == 0.0 else math.nan,
    log1p=lambda x: math.log1p(x) if x > -1.0 else -math.inf if x == -1.0 else math.nan,
    sqrt=lambda x: math.sqrt(x) if x >= 0.0 else math.nan,
    minimum=lambda a, b: a if a < b or a != a else b,
    maximum=lambda a, b: a if a > b or a != a else b,
    ldexp=_ldexp,
)


def _check_panels(panels: int) -> None:  # an even count keeps f = 1/2 on the grid
    if not isinstance(panels, int) or panels < 2 or panels % 2 != 0:
        raise ValueError(f"panels must be an even integer >= 2, got {panels!r}")


@lru_cache(maxsize=None)
def unit_grid(panels: int):
    """Quadrature nodes f_i = i/panels, i = 0..panels (read-only array)."""
    import numpy as np

    _check_panels(panels)
    grid = np.linspace(0.0, 1.0, panels + 1)
    grid.setflags(write=False)
    return grid


def _quad(samples, panels: int) -> float:
    """Trapezoid rule over the unit grid, the one quadrature path: for a
    periodic integrand, whose ends agree, it is the mean of the panels
    samples f = i/panels, i < panels."""
    return float((samples[1:] + samples[:-1]).sum() / (2 * panels))


def channel_response(alpha: float, f):
    """Response 1 + 2*alpha*cos(2*pi*f) of the three-tap inter-cell channel.

    Accepts scalar or array f in [0, 1); may be negative or zero once
    alpha >= 0.5.
    """
    import numpy as np

    return 1.0 + 2.0 * alpha * np.cos(2.0 * np.pi * np.asarray(f, dtype=float))


@dataclass(frozen=True, eq=False)
class Precoder:
    """Unit-energy, symmetric zero-forcing filter sampled in the frequency domain.

    g_of_f holds G(f) at f = i/panels for i = 0..panels.  Invariants: unit
    energy (integral of G^2 equals 1 within quadrature rounding) and symmetry
    G(f) = G(1 - f).
    """

    g_of_f: "np.ndarray"
    alpha: float  # the channel gain it was built for
    panels: int


def _check_zf_alpha(alpha) -> None:  # zero forcing needs 0 <= alpha < 0.5
    if not isinstance(alpha, (int, float)) or not math.isfinite(alpha) or alpha < 0:
        raise ValueError(f"alpha must be finite and >= 0, got {alpha!r}")
    if alpha >= _ZF_ALPHA_LIMIT:
        raise ZfSingularError(float(alpha))


def zf_constants(alpha: float) -> tuple[float, float]:
    """Exact (h~_0^2, R_g(2)) of the zero-forcing precoder for gain alpha.

    With d = sqrt(1 - 4 alpha^2) and r = (1 - d) / (2 alpha) = 2 alpha / (1 + d),
    1/H(f) has taps (-r)^|k| / d, so unit energy gives h~_0^2 = d^3 and
    R_g(2) = r^2 (1 + 2d): the values of zf_precoder's sampled filter, to
    quadrature rounding.  d is formed as sqrt((1 - 2 alpha)(1 + 2 alpha)),
    which does not cancel next to alpha = 1/2, where 1 - 2 alpha is exact
    (alpha >= 1/4).  alpha is checked as by zf_precoder.
    """
    _check_zf_alpha(alpha)
    d = math.sqrt((1.0 - 2.0 * alpha) * (1.0 + 2.0 * alpha))
    r = 2.0 * alpha / (1.0 + d)
    return d * d * d, r * r * (1.0 + 2.0 * d)


def zf_precoder(alpha: float, panels: int = DEFAULT_PANELS) -> Precoder:
    """Zero-forcing precoder G(f) = c / H(f), c chosen for unit energy.

    Requires 0 <= alpha < 0.5; at and beyond 0.5 the inverse filter diverges
    (ZfSingularError).  The resulting effective channel has
    h~_0^2 = (1 - 4*alpha^2)**1.5 and h~_k ~= 0 for k != 0 (zf_constants).
    """
    _check_zf_alpha(alpha)
    h = channel_response(alpha, unit_grid(panels))
    c = 1.0 / math.sqrt(_quad(1.0 / (h * h), panels))
    g = c / h
    g.setflags(write=False)
    return Precoder(g_of_f=g, alpha=float(alpha), panels=panels)


def h_tilde(precoder: Precoder, alpha: float, k: int) -> float:
    """Effective channel tap h~_k = (h * g)_k: integral of H(f) G(f) cos(2*pi*f*k).

    Real by symmetry.  For a zero-forcing precoder built at the same alpha the
    result is the normalization constant at k = 0 and ~0 otherwise.
    """
    import numpy as np

    grid = unit_grid(precoder.panels)
    y = channel_response(alpha, grid) * precoder.g_of_f * np.cos(2.0 * np.pi * k * grid)
    return _quad(y, precoder.panels)


def rate_closed_form(snr_scale, alpha: float):
    """Exact integral of log2(1 + s H(f)^2) over the unit frequency interval
    (Somekh & Shamai, IEEE T-IT 2000), in real arithmetic, for |alpha| <= 1/2.

    With u = sqrt(s), 1 + s H(f)^2 = |a + b cos 2 pi f|^2 for a = 1 + i u and
    b = 2 i alpha u, and Jensen's formula makes its log-mean log|b/2| plus
    the log-modulus of the larger root of w^2 + (2a/b) w + 1 = 0.  The roots
    w and 1/w have w + 1/w = 2c with c = -a/b = -1/(2 alpha) + i/(2 alpha u),
    so |w| + 1/|w| = |c - 1| + |c + 1|, the distances of c to +-1, which are
    P/(2 alpha u) and Q/(2 alpha u) for P = sqrt(1 + (1 + 2 alpha)^2 s) and
    Q = sqrt(1 + (1 - 2 alpha)^2 s).  With m = (P + Q)/2 the integral is
    therefore 2 log2 z, z = (m + sqrt(m^2 - 4 alpha^2 s))/2 (log2(1 + s) at
    alpha = 0).  z - 1 is fed to log1p, formed from sums of non-negative
    terms, so small s keeps full relative accuracy: P - 1 =
    (1 + 2 alpha)^2 s/(P + 1), Q - 1 likewise, m - 1 = ((P - 1) + (Q - 1))/2
    and D = m^2 - 4 alpha^2 s - 1 =
    ((1 - 4 alpha^2) s + (P - 1)(Q - 1) + (P - 1) + (Q - 1))/2, whence
    z - 1 = (m - 1 + D/(1 + sqrt(1 + D)))/2.  From s = 2**1020, where an
    intermediate could pass the float range, z is taken as sqrt(s) times
    the z of 1/s + H(f)^2, as oracle._uplink takes its huge SINRs.
    The integral depends on alpha only through alpha^2, so |alpha| stands in
    for alpha throughout.  s and alpha broadcast against each other: a float
    when both are scalars, else an array of their broadcast shape, each
    element the float kernel's (_closed_form) at its pair, which the rate
    kernels call, with no input check (a NaN s gives NaN, with no warning for
    the invalid comparisons it takes).
    """
    import numpy as np

    with np.errstate(invalid="ignore"):
        vals = np.vectorize(_closed_form, otypes=[float])(np.asarray(snr_scale, dtype=float), alpha)
    return float(vals) if vals.ndim == 0 else vals


def _closed_form(s: float, alpha: float) -> float:
    """rate_closed_form's kernel, of floats s and alpha."""
    a = 2.0 * abs(alpha)
    if s >= _HUGE_SNR:
        return _huge_rate(s, a)
    p = _sqrt1pm1((1.0 + a) ** 2 * s)  # P - 1
    q = _sqrt1pm1((1.0 - a) ** 2 * s)  # Q - 1
    w = p + q  # 2 (m - 1)
    d = 0.5 * ((1.0 - a) * (1.0 + a) * s + p * q + w)  # D
    z = 0.5 * (_sqrt1pm1(d) + 0.5 * w)  # z - 1
    return _MATH.log1p(z) * _TWO_OVER_LN2


def _sqrt1pm1(x: float) -> float:
    """sqrt(1 + x) - 1 for x >= 0, as x / (1 + sqrt(1 + x)), which does not
    cancel."""
    return x / (_MATH.sqrt(x + 1.0) + 1.0)


def _huge_rate(s: float, a: float) -> float:
    """rate_closed_form at huge s, a = 2 alpha <= 1: log2 s + 2 log2 z' for z'
    the z of 1/s + H(f)^2, formed from P' = sqrt(1/s + (1 + a)^2),
    Q' = sqrt(1/s + (1 - a)^2), m' = (P' + Q')/2 and the non-negative
    m' - a = 1 - a + (P' - (1 + a) + Q' - (1 - a))/2, each difference taken
    as (1/s)/(sum), so m'^2 - a^2 = (m' - a)(m' + a) does not cancel."""
    c = 1.0 / s
    p, q = _MATH.sqrt(c + (1.0 + a) ** 2), _MATH.sqrt(c + (1.0 - a) ** 2)
    m = 0.5 * (p + q)
    low = (1.0 - a) + 0.5 * (c / (p + (1.0 + a)) + c / (q + (1.0 - a)))
    return _MATH.log2(s) + 2.0 * _MATH.log2(0.5 * (m + _MATH.sqrt(low * (m + a))))
