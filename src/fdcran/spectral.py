"""Frequency-domain machinery for the linear Wyner channel.

Every rate comes from two closed forms: rate_closed_form, the exact uplink
rate integral, and zf_constants, the exact zero-forcing h~_0^2 and R_g(2).
The rest samples the unit frequency interval at an even panel count,
deterministically for a given count: the channel response H(f),
composite-Simpson quadrature, the sampled zero-forcing precoder, the filter
autocorrelation R_g(tau) and the effective channel taps h~_k.  It is the
reference the closed forms are tested against.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import NumericDomainError, ZfSingularError

__all__ = [
    "DEFAULT_PANELS",
    "Precoder",
    "channel_response",
    "h_tilde",
    "rate_closed_form",
    "rate_integral",
    "rg",
    "simpson_weights",
    "unit_grid",
    "zf_constants",
    "zf_precoder",
]

DEFAULT_PANELS = 4096

# 1/H(f)^2 stops being integrable at alpha = 0.5; reject just below.
_ZF_ALPHA_LIMIT = 0.5 - 1e-9


def _check_panels(panels: int) -> None:
    if not isinstance(panels, int) or panels < 2 or panels % 2 != 0:
        raise ValueError(f"panels must be an even integer >= 2, got {panels!r}")


@lru_cache(maxsize=None)
def unit_grid(panels: int) -> np.ndarray:
    """Quadrature nodes f_i = i/panels, i = 0..panels (read-only array)."""
    _check_panels(panels)
    grid = np.linspace(0.0, 1.0, panels + 1)
    grid.setflags(write=False)
    return grid


@lru_cache(maxsize=None)
def simpson_weights(panels: int) -> np.ndarray:
    """Composite-Simpson weights for the unit interval (read-only array)."""
    _check_panels(panels)
    w = np.ones(panels + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w /= 3.0 * panels
    w.setflags(write=False)
    return w


def _quad(samples: np.ndarray, panels: int) -> float:
    # single summation path for every integral, so folded/unfolded variants
    # of the same integrand reduce with the same pairwise tree
    return float(np.sum(samples * simpson_weights(panels), axis=-1))


def channel_response(alpha: float, f):
    """Response 1 + 2*alpha*cos(2*pi*f) of the three-tap inter-cell channel.

    Accepts scalar or array f in [0, 1); may be negative or zero once
    alpha >= 0.5.
    """
    return 1.0 + 2.0 * alpha * np.cos(2.0 * np.pi * np.asarray(f, dtype=float))


@dataclass(frozen=True, eq=False)
class Precoder:
    """Unit-energy, symmetric zero-forcing filter sampled in the frequency domain.

    g_of_f holds G(f) at f = i/panels for i = 0..panels.  Invariants: unit
    energy (integral of G^2 equals 1 within quadrature rounding) and symmetry
    G(f) = G(1 - f).
    """

    g_of_f: np.ndarray
    alpha: float  # the channel gain it was built for
    panels: int

    def energy(self) -> float:
        """Integral of G(f)^2 over the unit interval."""
        return _quad(self.g_of_f**2, self.panels)


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
    quadrature rounding.  alpha is checked as by zf_precoder.
    """
    _check_zf_alpha(alpha)
    d = math.sqrt(1.0 - 4.0 * alpha * alpha)
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


def _resolve_panels(precoder: Precoder, panels: int | None) -> int:
    if panels is None:
        return precoder.panels
    if panels != precoder.panels:
        raise ValueError(
            f"precoder is sampled at {precoder.panels} panels, cannot integrate at {panels}"
        )
    return panels


def rg(precoder: Precoder, tau: int, panels: int | None = None) -> float:
    """Filter autocorrelation sum_k g_k g_(k-tau), as a frequency integral.

    For a real symmetric filter this is the integral of G(f)^2 cos(2*pi*f*tau);
    rg(precoder, 0) is 1 by the unit-energy invariant.
    """
    panels = _resolve_panels(precoder, panels)
    y = precoder.g_of_f**2 * np.cos(2.0 * np.pi * tau * unit_grid(panels))
    return _quad(y, panels)


def h_tilde(precoder: Precoder, alpha: float, k: int, panels: int | None = None) -> float:
    """Effective channel tap h~_k = (h * g)_k: integral of H(f) G(f) cos(2*pi*f*k).

    Real by symmetry.  For a zero-forcing precoder built at the same alpha the
    result is the normalization constant at k = 0 and ~0 otherwise.
    """
    panels = _resolve_panels(precoder, panels)
    grid = unit_grid(panels)
    y = channel_response(alpha, grid) * precoder.g_of_f * np.cos(2.0 * np.pi * k * grid)
    return _quad(y, panels)


def rate_integral(snr_scale, alpha: float, panels: int = DEFAULT_PANELS):
    """log2(1 + s * H(f)^2) integrated over the unit frequency interval.

    Vectorized over s: scalar in, float out; array in, array out (any shape).
    The composite-Simpson reference that rate_closed_form is tested against.
    """
    s = np.asarray(snr_scale, dtype=float)
    if not np.isfinite(s).all() or (s < 0).any():
        raise NumericDomainError("SNR scale must be finite and >= 0")
    h2 = channel_response(alpha, unit_grid(panels)) ** 2
    vals = np.sum(np.log2(1.0 + s[..., None] * h2) * simpson_weights(panels), axis=-1)
    if s.ndim == 0:
        return float(vals)
    return vals


def rate_closed_form(snr_scale, alpha: float):
    """Exact value of rate_integral: 2 log2|z| (Somekh & Shamai, IEEE T-IT 2000).

    With u = sqrt(s), 1 + s H(f)^2 = |a + b cos 2 pi f|^2 for a = 1 + i u and
    b = 2 i alpha u; by Jensen's formula its log-mean is log|z| for z the
    larger-modulus root (a + sqrt(a^2 - b^2)) / 2, which the principal root
    gives for every u >= 0.  z - 1 is formed without cancellation and fed to
    log1p, so small s keeps full relative accuracy.  It holds for any alpha
    and gives every uplink rate the schemes search and report.  Vectorized
    like rate_integral, without its input check (a NaN s gives NaN).
    """
    s = np.asarray(snr_scale, dtype=float)
    u = np.sqrt(s)
    w = (4.0 * alpha * alpha - 1.0) * s + 2j * u  # a^2 - b^2 - 1
    z1 = 0.5 * (1j * u + w / (1.0 + np.sqrt(1.0 + w)))  # z - 1
    vals = np.log1p(z1.real * (2.0 + z1.real) + z1.imag * z1.imag) / math.log(2.0)
    if s.ndim == 0:
        return float(vals)
    return vals
