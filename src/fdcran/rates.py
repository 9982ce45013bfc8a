"""Per-cell rate calculators for all six duplex/processing schemes.

The schemes are two processing families, single-cell processing (SCP) and
C-RAN, each with three receivers: half duplex, and full duplex treating the
co-located uplink signal as noise or cancelling it first (SIC).  Each family
has one uplink and one downlink kernel, (k, p_u, p_d[, r_u, receiver]) ->
rate, with k a point's constants (plain floats, or for a batch (n, 1, 1)
columns, a quantity its points share staying a float: _stacked) and powers
in its _unit, which keeps the float range.  Each point's constants hold
the products the kernels would otherwise form on every call: SCP's
2 alpha^2, 2 beta_du^2 and 2 beta_ud^2 (with gamma_ud^2, c_u, c_d and the
unit), C-RAN's 1 + 2 alpha^2 and 2 beta_du^2 (1 + R_g(2)) of the uplink
quantization noise, and q_d (1 + 2 alpha^2), (1 - q_d) h~_0^2 and
2 beta_ud^2 of the downlink (_CranConsts).  The power search, the reported
rates at its argmax, the public scalar rate functions and half duplex (the
other direction's power at 0) all call them.  C-RAN rates are exact: the
uplink integral is rate_closed_form and the zero-forcing precoder of the
point's alpha enters through zf_constants.  A precoder passed to a public
function must be that one, at any sampling (_check_precoder).  The oracles
keep formulas of their own.

Half-duplex schemes split the band between directions at full power; the
equal rate follows from balancing f*R_u against (1-f)*R_d.  Full-duplex
schemes choose the operating powers (p_u, p_d) that maximize min(R_u, R_d):
exactly on the budget edges for treat-as-noise, and for SIC's decode-first
branch from an upper bound solved exactly on the same edges; only the points
whose bound is not attained fall back to 1-D searches of the budget edges
and one closed-form curve (_decode_first_search).  _batch builds every
result, of one scheme at a batch of operating points at once: half duplex
as the kernels at (P_u, 0) and (0, P_d) for every point, full duplex as one
power search and both kernels at its argmax, or at the budgets under
full_power (compute_batch is _batch; compute_scheme, hd_scp, hd_cran, fd_scp
and fd_cran are its batch of one).  Every point of a batch gets bit-for-bit
the result it gets alone.  The search calls the kernels (_rates) for all
points at once, but for the fallback's scans of DEFAULT_GRID**2 values,
which go one point at a time (see compute_batch on memory).

C-RAN schemes model the fronthaul by quantization noise: uplink compression
at sigma_u^2 = (signal power at the radio unit) / (2**c_u - 1), downlink
precoding at stream power p_d * (1 - 2**-c_d) plus quantization noise
p_d * 2**-c_d, so the radio unit transmits exactly p_d.
"""

import math
from collections import namedtuple
from enum import Enum
from itertools import chain, compress

import numpy as np

from .model import NumericDomainError, PowerAllocation, RateResult, SchemeId
from .spectral import (
    DEFAULT_PANELS,
    Precoder,
    _check_panels as _check_panel_count,
    rate_closed_form,
    zf_constants,
)

__all__ = [
    "DEFAULT_GRID",
    "SCHEMES",
    "SicMode",
    "compute_batch",
    "compute_scheme",
    "equal_rate_split",
    "fd_cran",
    "fd_cran_downlink",
    "fd_cran_uplink",
    "fd_scp",
    "fd_scp_downlink_rate",
    "fd_scp_uplink_rate",
    "hd_cran",
    "hd_cran_downlink",
    "hd_cran_uplink",
    "hd_scp",
]

DEFAULT_GRID = 64  # the one resolution of the SIC search's scans (_max_min_search)

_EDGE_CUTS = 269  # most 16-fold cuts of a bracket: 16**-269 < 2**-1074, the least subnormal
_EPS = np.finfo(float).eps
_SHRINK_STEPS = 20  # halvings of the tie-breaking power scale
_ZOOM = 8  # window shrink factor per zoom pass
_ZOOM_PASSES = 12  # zoom passes along each axis of the SIC search
_WINDOW = np.linspace(0.0, 1.0, 17)  # samples across a search window
# a _curve_max window's offsets from its centre, without the centre itself,
# the incumbent, whose value the search already has
_OFF_CENTRE = np.delete(_WINDOW - 0.5, _WINDOW.size // 2)
_TIE_TOL = 1e-9  # objective values this close count as tied


class SicMode(Enum):
    """Downlink receiver behavior toward the co-located uplink transmission."""

    TREAT_AS_NOISE = "treat_as_noise"
    SIC = "sic"


_TAN = SicMode.TREAT_AS_NOISE
# the search's own receivers: the SIC branch that decodes the uplink first,
# and the terms (t1, t2/2) of its upper bound (_max_min_search)
_DECODE_FIRST = "decode_first"
_BOUND = "bound"

# scheme -> (processing family, full-duplex receiver or None for half duplex)
SCHEMES = {
    SchemeId.HD_SCP: ("scp", None),
    SchemeId.HD_CRAN: ("cran", None),
    SchemeId.FD_SCP: ("scp", _TAN),
    SchemeId.FD_SCP_SIC: ("scp", SicMode.SIC),
    SchemeId.FD_CRAN: ("cran", _TAN),
    SchemeId.FD_CRAN_SIC: ("cran", SicMode.SIC),
}


def equal_rate_split(r_u: float, r_d: float) -> tuple[float, float | None]:
    """Equal rate and time split from balancing f*r_u = (1-f)*r_d.

    Returns (r_eq, f_star) with r_eq = r_u*r_d/(r_u + r_d); the 0/0 case is
    defined as rate 0 with no meaningful split (f_star None).
    """
    total = r_u + r_d
    if total <= 0.0:
        return 0.0, None
    return r_u * r_d / total, r_d / total


# ----------------------------------------------------------------------------
# rate kernels: powers are floats or arrays, and k is one point's constants
# or the stacked columns of a batch, unpacked by position either way


def _receive(signal, den, g2pu, r_u, receiver):
    """Downlink rate from the signal power, the denominator without the
    intra-cell uplink power g2pu, and the receiver.  With t1 = C(signal/den),
    t2 = C((signal + g2pu)/den) and t3 = C(signal/(den + g2pu)): treat-as-noise
    gives t3; decode-first, which decodes the uplink message carried at r_u
    first, min(t1, t2 - r_u); SIC the better of the two, which equals the
    clamp q(t1, t2 - r_u, t3) = min(t1, max(t2 - r_u, t3)) because t3 <= t1.
    The bound receiver returns t1 and t2/2 stacked along a new first axis."""
    if receiver is not _TAN:
        with np.errstate(over="ignore"):  # past 1024 bits t2 is taken as a difference
            t2 = np.log2(1.0 + (signal + g2pu) / den)
        if np.isinf(t2).any():
            t2 = np.where(np.isinf(t2), np.log2(den + signal + g2pu) - np.log2(den), t2)
        t1 = np.log2(1.0 + signal / den)
        if receiver is _BOUND:
            return np.stack((t1, t2 / 2.0))
        first = np.minimum(t1, t2 - r_u)
        if receiver is _DECODE_FIRST:
            return first
    t3 = np.log2(1.0 + signal / (den + g2pu))
    return t3 if receiver is _TAN else np.maximum(first, t3)


def _unit(p, gain: float) -> float:
    """2**-k, a point's unit of power: its kernels take every power, the noise
    power included, as a multiple of 2**-k, and the power search runs in
    these units, which leave each SINR as it is.  k = 0 unless gain, the
    largest power gain, times the larger budget passes 2**1016; then k brings
    that product down to 2**1016, so no product or sum of the kernels
    overflows a float even where gamma_ud^2 P_u does."""
    k = math.frexp(gain)[1] + math.frexp(max(p.p_u_max, p.p_d_max))[1] - 1016
    return math.ldexp(1.0, -max(k, 0))


def _scp_consts(p) -> tuple:
    # 2 alpha^2, 2 beta_du^2 and 2 beta_ud^2 formed once: the kernels'
    # left-to-right 2.0 * a2 * p_u rounds the same
    a2, bdu2, bud2 = 2.0 * p.alpha**2, 2.0 * p.beta_du**2, 2.0 * p.beta_ud**2
    g2 = p.gamma_ud**2
    return a2, bdu2, bud2, g2, p.c_u, p.c_d, _unit(p, max(1.0, a2, bdu2, bud2, g2))


def _scp_uplink(k, p_u, p_d):
    a2, bdu2, _, _, c_u, _, unit = k
    return np.minimum(np.log2(1.0 + p_u / (unit + a2 * p_u + bdu2 * p_d)), c_u)


def _scp_downlink(k, p_u, p_d, r_u, receiver):
    a2, _, bud2, g2, _, c_d, unit = k
    den = unit + a2 * p_d + bud2 * p_u
    return np.minimum(_receive(p_d, den, g2 * p_u, r_u, receiver), c_d)


def _scp_line(k):  # (h, d0, d1, d2, g2) of _crossing
    a2, bdu2, bud2, g2, _, _, unit = k
    return bdu2 / unit, unit, bud2, 1.0 + a2, g2


# per unit of power: gain_u = 1 + 2 alpha^2 and gain_du = 2 beta_du^2
# (1 + R_g(2)) of p_u and p_d at a radio unit, quant = _per_unit_quantization(c_u),
# q_d = 2**-c_d, noise_d = q_d (1 + 2 alpha^2) and signal_d = (1 - q_d) h~_0^2 of
# p_d at a mobile, and gain_ud = 2 beta_ud^2 of p_u there; (h~_0^2, R_g(2))
# from zf_constants, which an uplink alone does not need (terms, zero by default)
_CranConsts = namedtuple(
    "_CranConsts", "alpha gain_u gain_du quant q_d noise_d signal_d gain_ud g2 unit"
)


def _cran_consts(p, terms=(0.0, 0.0)) -> _CranConsts:
    a2, bdu2, bud2, g2 = p.alpha**2, 2.0 * p.beta_du**2, 2.0 * p.beta_ud**2, p.gamma_ud**2
    gain_u, (h0sq, rg2), q_d = 1.0 + 2.0 * a2, terms, 2.0**-p.c_d
    unit = _unit(p, max(gain_u, bdu2, bud2, g2))  # (1 + rg2) <= 2
    quant = _per_unit_quantization(p.c_u)
    noise_d, signal_d = q_d * gain_u, (1.0 - q_d) * h0sq
    return _CranConsts(
        p.alpha, gain_u, bdu2 * (1.0 + rg2), quant, q_d, noise_d, signal_d, bud2, g2, unit
    )


def _per_unit_quantization(c: float) -> float:
    """1 / (2**c - 1), the uplink quantization noise per unit of power at the
    radio unit, for any capacity c >= 0: it falls to 0 as c grows without
    bound and is inf at c = 0, where the quantizer passes nothing."""
    if c <= 0.0:
        return math.inf
    return 2.0**-c / -math.expm1(-c * math.log(2.0))


def _sigma_u_sq(k, p_u, p_d, noise=1.0):
    # the neighboring radio units' downlink signals are correlated at lag 2
    # through the shared precoder, hence (1 + R_g(2)) in gain_du
    _, gain_u, gain_du, quant, *_ = k
    return (noise + gain_u * p_u + gain_du * p_d) * quant


def _reported_sigma_u_sq(k, c_u, p_u, p_d):
    """sigma_u^2 at the powers (p_u, p_d), formed in the point's _unit and
    brought back to the unit noise power, so that only a sigma_u^2 that is
    itself past the float range is inf (or c_u = 0).  Past c_u = 1001, where
    1 - 2**-c_u rounds to 1, 2**-c_u would underflow before the product: the
    power sum takes 2**(n - c_u) there and ldexp the 2**-n, n being the
    integer part of c_u - 1000, so that sigma_u^2 is 0 only where it is
    itself past the float range."""
    n = np.minimum(np.maximum(np.floor(c_u) - 1000.0, 0.0), 1100.0)
    quant = np.where(n > 0.0, 2.0 ** (n - c_u), k.quant)
    with np.errstate(over="ignore"):  # an overflow is inf, which callers check
        sigma = _sigma_u_sq(k._replace(quant=quant), p_u * k.unit, p_d * k.unit, k.unit) / k.unit
    return np.ldexp(sigma, -n.astype(int))


def _checked_sigma_u_sq(k, c_u, p_u, p_d, budgets: bool = True):
    """sigma_u^2 at the powers (p_u, p_d), the budgets unless budgets=False,
    of one point or, given arrays, of each point of a batch.  It is inf at
    c_u = 0, where the quantizer passes nothing; inf at c_u > 0 is an
    overflow, which would report a zero uplink rate where the model has a
    positive one, so the first point with one raises NumericDomainError."""
    sigma = _reported_sigma_u_sq(k, c_u, p_u, p_d)
    overflow = np.ravel((sigma == math.inf) & (k.quant < math.inf))
    if overflow.any():
        i = int(overflow.argmax())
        at = "the budgets p_u_max={!r}, p_d_max={!r}" if budgets else "p_u={!r}, p_d={!r}"
        powers = (float(np.broadcast_to(x, overflow.shape)[i]) for x in (p_u, p_d))
        raise NumericDomainError("sigma_u_sq overflows a float at " + at.format(*powers))
    return sigma


def _cran_uplink(k, p_u, p_d):
    return rate_closed_form(p_u / (k[-1] + _sigma_u_sq(k, p_u, p_d, k[-1])), k[0])


def _downlink_powers(p_d, q_d):  # (stream power p_s, quantization noise sigma_d^2)
    return p_d * (1.0 - q_d), p_d * q_d


def _cran_downlink(k, p_u, p_d, r_u, receiver):
    _, _, _, _, _, noise_d, signal_d, gain_ud, g2, unit = k
    den = unit + gain_ud * p_u + noise_d * p_d
    return _receive(signal_d * p_d, den, g2 * p_u, r_u, receiver)


def _cran_line(k):  # (h, d0, d1, d2, g2) of _crossing
    _, _, gain_du, quant, _, noise_d, signal_d, gain_ud, g2, unit = k
    return quant * gain_du / (unit * (1.0 + quant)), unit, gain_ud, noise_d + signal_d, g2


def _kernels(family: str):
    """(uplink, downlink) kernels of a processing family."""
    return (_scp_uplink, _scp_downlink) if family == "scp" else (_cran_uplink, _cran_downlink)


def _rates(family: str, k, pu, pd, receiver):
    """(r_u, r_d) of a family at constants k and powers pu, pd, r_d that of
    the receiver (_receive); half duplex, receiver None, takes the uplink at
    (pu, 0) and the downlink at (0, pd)."""
    uplink, downlink = _kernels(family)
    if receiver is None:
        return uplink(k, pu, 0.0), downlink(k, 0.0, pd, 0.0, _TAN)
    r_u = uplink(k, pu, pd)
    return r_u, downlink(k, pu, pd, r_u, receiver)


def _crossing(family: str, k, x0):
    """Gamma's point (p_u, p_d), in kernel powers, on the line of constant
    uplink SINR p_u / (u0 + u1 p_u + u2 p_d) with foot (x0, 0): p_u =
    x0 (1 + h p_d), h = u2 / u0.  With the downlink's den + signal = d0 +
    d1 p_u + d2 p_d, t2 - t1 = r_u where e p_u = d0 + d2 p_d, e = g2 / q - d1
    and q = 2**r_u(x0, 0) - 1, so p_d = (e x0 - d0) / (d2 - e x0 h), where no
    term leaves the float range before the budgets do.  Past it, or at
    r_u = 0, p_d is inf, NaN or 0, without a warning."""
    h, d0, d1, d2, g2 = (_scp_line if family == "scp" else _cran_line)(k)
    with np.errstate(all="ignore"):
        e = g2 / (2.0 ** _kernels(family)[0](k, x0, 0.0) - 1.0) - d1
        p_d = (e * x0 - d0) / (d2 - e * x0 * h)
        return x0 * (1.0 + h * p_d), p_d


def _at(kernel, k, p_u, p_d, *args):
    """kernel at the powers (p_u, p_d), passed in the point's _unit."""
    return kernel(k, p_u * k[-1], p_d * k[-1], *args)


def _check_powers(params, p_u, p_d, budgets: bool = False) -> None:
    for name, v in (("p_u", p_u), ("p_d", p_d)):
        if not math.isfinite(v) or v < 0:
            raise NumericDomainError(f"{name} must be finite and >= 0, got {v!r}")
    if budgets and (p_u > params.p_u_max or p_d > params.p_d_max):
        raise ValueError(
            f"powers ({p_u}, {p_d}) exceed budgets ({params.p_u_max}, {params.p_d_max})"
        )


def _carried_uplink(sic: SicMode, r_u) -> float:
    """The uplink rate a SIC receiver decodes first (unused otherwise)."""
    if sic is _TAN:
        return 0.0
    if r_u is None:
        raise ValueError("r_u is required for the SIC downlink rate")
    if not math.isfinite(r_u):
        raise NumericDomainError(f"r_u must be finite, got {r_u!r}")
    return r_u


def _check_precoder(params, precoder: Precoder) -> None:
    """A precoder passed in must be the zero-forcing one of params.alpha, at
    any sampling, as its exact constants stand for it."""
    if precoder.alpha != params.alpha:
        raise ValueError(f"precoder is for alpha={precoder.alpha!r}, not {params.alpha!r}")


def _finite(name: str, rate) -> float:
    """A reported rate as a float; NaN or inf (an overflowed power) raises."""
    rate = float(rate)
    if not math.isfinite(rate):
        raise NumericDomainError(f"{name} is {rate!r}: the operating point overflows a float")
    return rate


# ----------------------------------------------------------------------------
# the public scheme and link functions


def hd_scp(params) -> RateResult:
    """Half-duplex single-cell processing.

    Each direction treats inter-cell interference as noise and is capped by
    its fronthaul: R = min{C(P / (1 + 2 alpha^2 P)), c}.  Full power loses
    nothing here, and the time split gives r_eq = r_u*r_d/(r_u + r_d).
    """
    return _batch("scp", None, [params])[0]


def hd_cran_uplink(params, panels: int = DEFAULT_PANELS) -> tuple[float, float]:
    """Uplink rate under compress-and-forward fronthaul with joint decoding.

    The received signal is quantized at sigma_u^2 = (1 + (1 + 2 alpha^2) P_u)
    / (2**c_u - 1); joint decoding across cells then achieves the spectral
    integral of C(P_u H(f)^2 / (1 + sigma_u^2)), in closed form: panels must be
    a valid panel count but changes nothing.  Returns (rate, sigma_u_sq);
    c_u = 0 gives sigma_u_sq = inf and rate 0 (the quantizer passes nothing);
    a sigma_u_sq that overflows a float at c_u > 0 raises NumericDomainError.
    """
    _check_panel_count(panels)
    k = _cran_consts(params)
    sigma = _checked_sigma_u_sq(k, params.c_u, params.p_u_max, 0.0)
    return _finite("r_u", _at(_cran_uplink, k, params.p_u_max, 0.0)), float(sigma)


def hd_cran_downlink(params, precoder: Precoder) -> tuple[float, float, float]:
    """Downlink rate with central-unit precoding and fronthaul quantization.

    Stream power p_s = P_d (1 - 2**-c_d) and quantization noise
    sigma_d^2 = P_d 2**-c_d keep the radio unit at exactly P_d.  Zero forcing
    nulls every inter-stream tap, so the rate is
    C(p_s h~_0^2 / (1 + sigma_d^2 (1 + 2 alpha^2))): full-duplex C-RAN's
    downlink at (0, P_d).  The precoder must be the zero-forcing one of
    params.alpha (ValueError otherwise).  Returns (rate, sigma_d_sq, p_s).
    """
    rate = fd_cran_downlink(params, PowerAllocation(0.0, params.p_d_max), precoder)
    p_s, sigma = _downlink_powers(params.p_d_max, 2.0**-params.c_d)
    return rate, sigma, p_s


def hd_cran(params, precoder: Precoder) -> RateResult:
    """Half-duplex C-RAN: both directions combined through the time split.
    The precoder must be the zero-forcing one of params.alpha."""
    _check_precoder(params, precoder)
    return _batch("cran", None, [params])[0]


def fd_scp_uplink_rate(params, p_u: float, p_d: float) -> float:
    """Uplink SCP rate at operating powers: inter-cell and downlink-to-uplink
    interference are treated as noise, then the fronthaul cap applies."""
    _check_powers(params, p_u, p_d)
    return float(_at(_scp_uplink, _scp_consts(params), p_u, p_d))


def fd_scp_downlink_rate(
    params, p_u: float, p_d: float, sic: SicMode = SicMode.TREAT_AS_NOISE, r_u: float | None = None
) -> float:
    """Downlink SCP rate at operating powers.

    Treat-as-noise lumps the whole uplink-to-downlink power
    (2 beta_ud^2 + gamma_ud^2) p_u into the noise.  With SIC the downlink
    mobile first decodes the co-located uplink message (decodable at rates up
    to t2 - r_u jointly, t1 alone), giving the clamp q(t1, t2 - r_u, t3);
    r_u is the uplink rate actually carried.  Both variants cap at c_d.
    """
    r_u = _carried_uplink(sic, r_u)
    _check_powers(params, p_u, p_d)
    return float(_at(_scp_downlink, _scp_consts(params), p_u, p_d, r_u, sic))


def fd_scp(params, sic: SicMode = SicMode.TREAT_AS_NOISE) -> RateResult:
    """Full-duplex single-cell processing: max-min over operating powers.

    Unlike half duplex, backing off from full power can help (the two
    directions interfere), so the equal rate is the max over (p_u, p_d) of
    min{R_u, R_d}, found by _max_min_search.
    """
    return _batch("scp", sic, [params])[0]


def fd_cran_uplink(params, powers: PowerAllocation, precoder: Precoder) -> tuple[float, float]:
    """Full-duplex C-RAN uplink at given operating powers.

    The downlink-to-uplink interference raises the quantization noise through
    its received power 2 beta_du^2 (1 + R_g(2)) p_d, but the central unit
    knows the downlink signals and subtracts them after decompression, so
    only sigma_u^2 reaches the decoder.  The precoder must be the
    zero-forcing one of params.alpha.  Returns (rate, sigma_u_sq); c_u = 0
    gives sigma_u_sq = inf and rate 0, and a sigma_u_sq that overflows a
    float at c_u > 0 raises NumericDomainError.
    """
    _check_powers(params, powers.p_u, powers.p_d, budgets=True)
    _check_precoder(params, precoder)
    k = _cran_consts(params, zf_constants(params.alpha))
    sigma = _checked_sigma_u_sq(k, params.c_u, powers.p_u, powers.p_d, budgets=False)
    return _finite("r_u", _at(_cran_uplink, k, powers.p_u, powers.p_d)), float(sigma)


def fd_cran_downlink(
    params, powers: PowerAllocation, precoder: Precoder, sic: SicMode = SicMode.TREAT_AS_NOISE,
    r_u: float | None = None,
) -> float:
    """Full-duplex C-RAN downlink at given operating powers.

    Treat-as-noise adds the uplink-to-downlink power
    (2 beta_ud^2 + gamma_ud^2) p_u to the quantized-downlink denominator.
    With SIC the gamma_ud^2 p_u term moves between numerator and denominator
    to form q(t1, t2 - r_u, t3); r_u (required then) is the uplink rate the
    mobile must first decode.  No fronthaul cap applies here -- the fronthaul
    already enters through the quantization noise.  The precoder must be the
    zero-forcing one of params.alpha.
    """
    _check_powers(params, powers.p_u, powers.p_d, budgets=True)
    _check_precoder(params, precoder)
    r_u = _carried_uplink(sic, r_u)
    k = _cran_consts(params, zf_constants(params.alpha))
    return float(_at(_cran_downlink, k, powers.p_u, powers.p_d, r_u, sic))


def fd_cran(params, precoder: Precoder, sic: SicMode = SicMode.TREAT_AS_NOISE) -> RateResult:
    """Full-duplex C-RAN equal rate: max-min over operating powers, found by
    _max_min_search.  The precoder must be the zero-forcing one of
    params.alpha."""
    _check_precoder(params, precoder)
    return _batch("cran", sic, [params])[0]


# ----------------------------------------------------------------------------
# batches


def _consts(family: str, sic, points) -> tuple:
    """The points' kernel constants, C-RAN with the exact zero-forcing terms
    and sigma_u^2 checked at the most power the scheme spends (P_u alone in
    half duplex, sic None, else both budgets), stacked once: (of, columns)
    of _stacked."""
    if family == "scp":
        return _stacked([_scp_consts(p) for p in points])
    of, columns = _stacked([_cran_consts(p, zf_constants(p.alpha)) for p in points])
    p_u_max, p_d_max = _budgets(points)
    k = _CranConsts(*columns)
    _checked_sigma_u_sq(k, _capacities(points), p_u_max, p_d_max * (sic is not None))
    return of, columns


def _stacked(rows):
    """Per-point constants, one row per point, as (of, columns): columns holds
    one (n,) array per quantity, and of(b) gives the constants of the points
    b, a slice or an array of indices, one (n, 1, 1) column per quantity,
    broadcasting against power arrays of shape (n, ...), but a quantity that
    every point of the batch shares as its plain float, and for a single
    point its plain floats: numpy combines a float with arrays at less cost
    than a column, and to the same values."""
    n = len(rows)
    columns = np.fromiter(chain.from_iterable(rows), float, n * len(rows[0])).reshape(n, -1).T
    stacked = columns[..., None, None]
    index = np.arange(n)
    first = rows[0]
    shared = (columns == columns[:, :1]).all(axis=1).tolist()

    def of(b):
        at = index[b]
        if at.size == 1:
            return rows[at[0]]
        return [v if same else x[b] for v, same, x in zip(first, shared, stacked)]

    return of, columns


def _batch(family: str, sic, points, full_power: bool = False) -> list:
    """Each point's result for the scheme of family and receiver sic (None:
    half duplex), the one place rows are built, all points at once.  Half
    duplex evaluates the uplink kernel at (P_u, 0) and the downlink kernel at
    (0, P_d), and balances them by the time split as equal_rate_split forms
    it, bit for bit.  Full duplex evaluates both kernels at the power
    search's argmax, or at the budgets if full_power, and reports their min.
    The first point with a rate not finite raises, r_u checked before r_d."""
    of, columns = _consts(family, sic, points)
    units = columns[-1]
    p_u, p_d = _budgets(points)
    if sic is not None and not full_power:
        _, p_u, p_d = _max_min_search(family, of, p_u * units, p_d * units, sic)
        p_u, p_d = p_u / units, p_d / units
    powers = ((x * units)[:, None, None] for x in (p_u, p_d))  # in each _unit
    r_u, r_d = (r.ravel() for r in _rates(family, of(slice(None)), *powers, sic))
    finite = np.isfinite(r_u) & np.isfinite(r_d)
    if not finite.all():
        i = int(np.argmin(finite))
        _finite("r_u", r_u[i])
        _finite("r_d", r_d[i])
    diag = {} if sic is None else {"p_u_star": p_u, "p_d_star": p_d}
    if family == "cran":
        k = _CranConsts(*columns)
        p_s, sigma_d = _downlink_powers(p_d, k.q_d)
        # inf only where quant is (c_u = 0): _consts has checked sigma_u^2 at
        # the budgets, and it is no larger at powers within them
        up = (p_u, p_d * (sic is not None))  # the uplink's powers
        diag["sigma_u_sq"] = _reported_sigma_u_sq(k, _capacities(points), *up)
        diag.update(sigma_d_sq=sigma_d, p_s=p_s)
    split = None
    if sic is None:
        total = r_u + r_d
        split = total > 0.0  # else rate 0 and no time split
        r_eq = np.divide(r_u * r_d, total, out=np.zeros_like(total), where=split)
        diag["f_star"] = np.divide(r_d, total, out=np.zeros_like(total), where=split)
    else:
        r_eq = np.minimum(r_u, r_d)
    results = [
        RateResult(u, d, eq, dict(zip(diag, values)))
        for u, d, eq, *values in zip(*(x.tolist() for x in (r_u, r_d, r_eq, *diag.values())))
    ]
    if split is not None and not split.all():
        for result in compress(results, ~split):
            del result.diagnostics["f_star"]
    return results


# ----------------------------------------------------------------------------
# power search
#
# Every function below works on a batch of n operating points: budgets are
# (n,) arrays, and so is each returned value and power.


def _budgets(points) -> tuple:
    """Each point's budgets (P_u, P_d): two (n,) arrays."""
    return np.array([p.p_u_max for p in points]), np.array([p.p_d_max for p in points])


def _capacities(points) -> np.ndarray:
    """Each point's uplink fronthaul capacity c_u, an (n,) array."""
    return np.array([p.c_u for p in points])


def _edge_optimum(evaluate, p_u_max: np.ndarray, p_d_max: np.ndarray):
    """Exact max-min of monotone terms, searched on both budget edges at once.

    evaluate(pu, pd) returns (up, down, *free), the terms whose min is the
    objective.  Along p_u = p_u_max, up falls and down rises with p_d, as
    r_u and the treat-as-noise r_d do; along p_d = p_d_max the roles swap
    (fronthaul caps only flatten them).  A free term is monotone along each
    edge in the direction its two ends show, and joins the terms it moves with
    there.  Each pass samples both brackets at len(_WINDOW) points and keeps
    the step where the falling terms drop below the rising ones, until every
    bracket is within float eps of its upper end (at most _EDGE_CUTS passes:
    subnormal brackets never are), so an optimum at any fraction of the budget
    is found.  The better bracket end wins, exact ties going to smaller
    powers.  A common power scaling lowers no term (every SINR is a standard
    interference function), so the winner keeps its value at a smaller scale
    only where a cap binds or the value is 0; it is scaled down to the
    smallest such scale (to within 2**-_SHRINK_STEPS).  Returns (value, p_u, p_d).
    """
    first = np.array([[True], [False]])  # row 0: p_u = p_u_max; row 1: p_d = p_d_max
    u_max, d_max = p_u_max[:, None, None], p_d_max[:, None, None]

    def edges(t):  # t places p_d on the first edge and p_u on the second
        return np.where(first, u_max, t * u_max), np.where(first, t * d_max, d_max)

    falls = [f[..., 1:] < f[..., :1] for f in evaluate(*edges(np.array([0.0, 1.0])))[2:]]

    def grouped(pu, pd):  # the least falling and the least rising term along each edge
        up, down, *free = evaluate(pu, pd)
        falling, rising = np.where(first, up, down), np.where(first, down, up)
        for term, down_edge in zip(free, falls):
            falling = np.where(down_edge, np.minimum(falling, term), falling)
            rising = np.where(down_edge, rising, np.minimum(rising, term))
        return falling, rising

    n = p_u_max.size
    lo, hi = np.zeros((n, 2, 1)), np.ones((n, 2, 1))
    last = _WINDOW.size - 1
    for _ in range(_EDGE_CUTS):
        if (hi - lo <= _EPS * hi).all():
            break
        t = lo + (hi - lo) * _WINDOW
        falling, rising = grouped(*edges(t))
        behind = falling - rising < 0.0  # monotone along each row
        k = np.where(behind.any(axis=2), behind.argmax(axis=2), last + 1)[..., None]
        lo = np.take_along_axis(t, np.maximum(k - 1, 0), axis=2)
        hi = np.take_along_axis(t, np.minimum(k, last), axis=2)
    pu, pd = edges(np.concatenate([lo, hi], axis=2))
    ends = np.minimum(*grouped(pu, pd))
    value, p_u, p_d = np.array(
        [
            max(zip(v.ravel(), u.ravel(), d.ravel()), key=lambda e: (e[0], -e[1], -e[2]))
            for v, u, d in zip(ends, pu, pd)
        ]
    ).T

    def holds(t):  # either edge's grouping holds every term
        falling, rising = grouped((t * p_u)[:, None, None], (t * p_d)[:, None, None])
        return np.minimum(falling, rising)[:, 0, 0] >= value

    lo, hi = np.zeros(n), np.ones(n)
    shrink = (value > 0.0) & holds(np.full(n, 1.0 - 2.0**-_SHRINK_STEPS))
    if shrink.any():
        for _ in range(_SHRINK_STEPS):
            mid = 0.5 * (lo + hi)
            ok = holds(mid)
            lo, hi = np.where(shrink & ~ok, mid, lo), np.where(shrink & ok, mid, hi)
    scale = np.where(value <= 0.0, 0.0, hi)
    return value, scale * p_u, scale * p_d


def _curve_max(of, score, top):
    """Each point's max along a curve, score(of(b), b, x) giving the value and
    powers (p_u, p_d) of the points b (a slice) at x in [0, top]: a scan of
    DEFAULT_GRID**2 values a point at a time, then _ZOOM_PASSES windows of
    len(_WINDOW) values for all points at once, centred on the incumbent
    (which moves only to a strictly better value, so the centre is not scored
    again), the first _ZOOM scan steps wide, each next _ZOOM times narrower.
    Returns (value, p_u, p_d), each an (n,) array."""
    def best(b, x):  # the points b's first best of (value, p_u, p_d, x) over x
        values, *at = np.broadcast_arrays(*score(of(b), b, x), x)
        j = values.argmax(axis=-1)[..., None]
        return [np.take_along_axis(v, j, axis=-1)[..., 0] for v in (values, *at)]

    scan = np.linspace(0.0, top, DEFAULT_GRID**2, axis=-1)[:, None]
    each = [best(slice(i, i + 1), scan[i : i + 1]) for i in range(top.size)]
    found = [np.concatenate(column) for column in zip(*each)]
    span = _ZOOM * (top / (DEFAULT_GRID**2 - 1))  # divided first: _ZOOM * top can overflow
    for _ in range(_ZOOM_PASSES):
        window = found[-1][..., None] + span[:, None, None] * _OFF_CENTRE
        window = np.minimum(np.maximum(window, 0.0), top[:, None, None])  # as np.clip, cheaper
        new = best(slice(None), window)
        better = new[0] > found[0]
        found = [np.where(better, x, y) for x, y in zip(new, found)]
        span = span / _ZOOM
    return [x[:, 0] for x in found[:3]]


def _max_min_search(family: str, of, p_u_max, p_d_max, sic: SicMode):
    """Maximize min(r_u, r_d) over the power box [0, p_u_max] x [0, p_d_max].

    of(b) gives the constants of the points b of the batch, a slice or an
    array of indices, for _rates at power arrays whose leading axis runs over
    them; the edge searches take all points at once, of(slice(None)).

    Treat-as-noise: both SINRs are standard interference functions (Yates,
    IEEE JSAC 1995), so scaling (p_u, p_d) up raises both rates and the
    optimum lies on a budget edge, where _edge_optimum finds it exactly.

    SIC: as t3 <= t1, min(r_u, q(t1, t2 - r_u, t3)) is the larger of the
    treat-as-noise objective and the decode-first one V = min(r_u, t1,
    t2 - r_u), which can peak inside the box, as t2 - r_u can fall when both
    powers grow.  As min(r_u, t2 - r_u) <= t2/2, V is at most the bound
    M = min(r_u, t1, t2/2), with the same caps.  Each SINR of M is a standard
    interference function, so M peaks on a budget edge too, and t2/2 is
    monotone along each edge, its SINR being linear-fractional in the free
    power: _edge_optimum finds M's maximum M* exactly.  A point whose M* is
    at most _TIE_TOL above the treat-as-noise optimum keeps that optimum; one
    whose V at M's argmax is within _TIE_TOL of M* takes that argmax, optimal
    to within _TIE_TOL.  Only the other points, rest, go to
    _decode_first_search, as a batch of their own (of(rest[b])), which
    searches V on the two upper budget edges and on Gamma, where V's maximum
    lies.  A decode-first point replaces the treat-as-noise optimum only when
    better by over _TIE_TOL.  Returns (value, p_u, p_d), each an (n,) array.
    """
    k = of(slice(None))
    best = _edge_optimum(lambda pu, pd: _rates(family, k, pu, pd, _TAN), p_u_max, p_d_max)
    if sic is _TAN:
        return best

    def bound(pu, pd):  # M's terms: r_u, t1 and the free t2/2
        r_u, (t1, half) = _rates(family, k, pu, pd, _BOUND)
        return r_u, t1, half

    top, p_u, p_d = _edge_optimum(bound, p_u_max, p_d_max)
    at = (p_u[:, None, None], p_d[:, None, None])
    found = [np.minimum(*_rates(family, k, *at, _DECODE_FIRST))[:, 0, 0], p_u, p_d]
    contested = top > best[0] + _TIE_TOL  # elsewhere M* leaves treat-as-noise optimal
    rest = np.flatnonzero(contested & (found[0] < top - _TIE_TOL))  # M* not attained
    if rest.size:
        new = _decode_first_search(family, lambda b: of(rest[b]), p_u_max[rest], p_d_max[rest])
        for x, y in zip(found, new):
            x[rest] = y
    better = contested & (found[0] > best[0] + _TIE_TOL)
    return tuple(np.where(better, f, b) for f, b in zip(found, best))


def _decode_first_search(family: str, of, p_u_max, p_d_max):
    """The max of V = min(r_u, t1, t2 - r_u) over the power box, of(b) giving
    the constants of the points b (see _max_min_search).

    Every point of the box lies on a line of constant uplink SINR with its
    foot x0 in [0, P_u] on p_d = 0 (_crossing).  Along it r_u is constant
    and t1 and t2, their SINRs linear-fractional there, are each monotone,
    so V peaks at the line's upper end in the box, on p_u = P_u or p_d = P_d,
    or where t1 = t2 - r_u (its lower end has t1 = 0): on the two upper
    budget edges or on Gamma = {t2 - t1 = r_u}, whose point on each line
    _crossing gives in closed form.  _curve_max searches p_d along
    p_u = P_u, p_u along p_d = P_d and x0 along Gamma (-inf outside the
    box); the first best of the three wins."""
    u_max, d_max = p_u_max[:, None, None], p_d_max[:, None, None]

    def on_box(k, pu, pd):
        return np.minimum(*_rates(family, k, pu, pd, _DECODE_FIRST)), pu, pd

    def on_gamma(k, b, x0):  # at p_d = 0, t1 = 0: no point of Gamma there is of use
        pu, pd = _crossing(family, k, x0)
        inside = (0.0 < pd) & (pd <= d_max[b]) & (pu <= u_max[b])  # NaN is not
        value, pu, pd = on_box(k, np.where(inside, pu, 0.0), np.where(inside, pd, 0.0))
        return np.where(inside, value, -np.inf), pu, pd

    found = [
        _curve_max(of, lambda k, b, x: on_box(k, u_max[b], x), p_d_max),
        _curve_max(of, lambda k, b, x: on_box(k, x, d_max[b]), p_u_max),
        _curve_max(of, on_gamma, p_u_max),
    ]
    first = np.argmax([value for value, *_ in found], axis=0)
    return tuple(np.choose(first, column) for column in zip(*found))


# ----------------------------------------------------------------------------
# dispatch


def compute_batch(scheme: SchemeId, points) -> list[RateResult]:
    """compute_scheme for one scheme at each of a sequence of operating
    points, all evaluated at once: half duplex as the kernels at every
    point's budgets, full duplex as one power search for the whole batch.

    Every result equals that of the point alone.  The search's kernel calls
    grow with the batch, 2 x len(_WINDOW) = 34 powers a point, so a caller
    bounds its memory by the batches it passes, as run_sweep does (64).
    """
    return _batch(*SCHEMES[scheme], points)


def compute_scheme(
    scheme: SchemeId, params, panels: int = DEFAULT_PANELS, grid: int = DEFAULT_GRID,
    full_power: bool = False,
) -> RateResult:
    """Evaluate one scheme end to end: _batch for one point.  C-RAN
    schemes take the zero-forcing precoder through its exact constants
    (zf_constants) and the uplink integral in closed form, so panels, still
    checked to be a valid panel count, changes no result.  Nor does grid,
    checked to be an integer >= 2: the SIC search always scans at DEFAULT_GRID.

    full_power=True evaluates a full-duplex scheme at its budgets
    (P_u, P_d) instead of searching; half-duplex schemes always spend them.
    """
    _check_panel_count(panels)
    if not isinstance(grid, int) or grid < 2:
        raise ValueError(f"grid resolution must be an integer >= 2, got {grid!r}")
    return _batch(*SCHEMES[scheme], [params], full_power)[0]
