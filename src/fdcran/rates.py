"""Per-cell rate calculators for all six duplex/processing schemes.

The schemes are two processing families, single-cell processing (SCP) and
C-RAN, each with three receivers: half duplex, and full duplex treating the
co-located uplink signal as noise or cancelling it first (SIC).  Both
families share one uplink and one downlink kernel, (xp, k, p_u, p_d[, r_u,
receiver]) -> rate, with powers in the point's _unit, which keeps the float
range.  Each kernel is written once against a namespace xp: the power
search passes numpy, with k the constants of a batch's points (_stacked),
and every reported number (the half-duplex rates, the rates and sigma_u^2 at
a search's argmax or at full power, and the public scalar functions) is a
float of the math shim _MATH, with k one point's constants.  So numpy loads
only where a full-duplex scheme searches its powers.  The constants (_Form)
write SCP as a C-RAN link with one eigenvalue and no fronthaul quantizer,
in the oracle's form and under its names, and hold the products the kernels
would otherwise form on every call.  C-RAN rates are exact: the uplink
integral is rate_closed_form and the zero-forcing precoder of the point's
alpha enters through zf_constants.  A precoder passed to a public function
must be that one, at any sampling (_check_precoder).  The oracles keep
formulas of their own.

Half-duplex schemes split the band between directions at full power; the
equal rate follows from balancing f*R_u against (1-f)*R_d.  Full-duplex
schemes choose the operating powers (p_u, p_d) that maximize min(R_u, R_d),
exactly on the budget edges (_max_min_search).  A SIC mobile faces the
co-located uplink codeword, which may be sent at any rate up to the uplink
capacity r_u; the search maximizes over that carried rate too, and the
reported r_d is the downlink's at the best carried rate (_receive), so
r_eq = min(r_u, r_d) is the rate the uplink carries.  _solve forms every
result, of one scheme at a batch of operating points, each point's in
floats: half duplex as the kernels at (P_u, 0) and (0, P_d), full duplex as
both kernels at the argmax of one power search for the whole batch, or at
the budgets under full_power (compute_batch is _batch, its RateResults;
compute_scheme, hd_scp, hd_cran, fd_scp and fd_cran are its batch of one).
Every point of a batch gets bit-for-bit the result it gets alone.  The
search calls the kernels (_rates) for all points at once (see compute_batch
on memory).

C-RAN schemes model the fronthaul by quantization noise: uplink compression
at sigma_u^2 = (signal power at the radio unit) / (2**c_u - 1), downlink
precoding at stream power p_d * (1 - 2**-c_d) plus quantization noise
p_d * 2**-c_d, so the radio unit transmits exactly p_d.
"""

import math
from collections import namedtuple
from contextlib import nullcontext
from enum import Enum
from itertools import repeat
from types import SimpleNamespace

from .model import NumericDomainError, PowerAllocation, RateResult, SchemeId
from .spectral import (
    DEFAULT_PANELS,
    Precoder,
    _check_panels as _check_panel_count,
    _closed_form,
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

# compute_scheme's default grid, kept for its signature: the search, exact on
# the budget edges, has no grid
DEFAULT_GRID = 64

_EDGE_CUTS = 269  # most 16-fold cuts of a bracket: 16**-269 < 2**-1074, the least subnormal
_EPS = 2.0**-52  # float eps
_SHRINK_STEPS = 20  # halvings of the tie-breaking power scale
_WINDOW = tuple(i / 16 for i in range(17))  # samples across a search window
_TIE_TOL = 1e-9  # objective values this close count as tied


class SicMode(Enum):
    """Downlink receiver behavior toward the co-located uplink transmission."""

    TREAT_AS_NOISE = "treat_as_noise"
    SIC = "sic"


_TAN = SicMode.TREAT_AS_NOISE
# the search's own receiver: the terms (t1, t2/2) of SIC's bound (_max_min_search)
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
# rate kernels: xp is numpy, for power arrays and k the constants of a
# batch's points (_stacked), or _MATH, for floats and k one point's _form;
# numpy's vector loops and the C library may round log2 and log1p apart


def _ldexp(x, n):  # math.ldexp, inf as numpy gives it where the result overflows
    try:
        return math.ldexp(x, n)
    except OverflowError:
        return math.copysign(math.inf, x)


# The kernels' namespace for floats: what the kernels call of numpy, with
# numpy's results where math raises (-inf at 0, NaN below a domain), and
# numpy's minimum and maximum, which return a NaN argument where Python's min
# and max drop it by position.  The kernels' own float arithmetic overflows
# to inf, as numpy's does, and divides by no zero.
_MATH = SimpleNamespace(
    log2=lambda x: math.log2(x) if x > 0.0 else -math.inf if x == 0.0 else math.nan,
    log1p=lambda x: math.log1p(x) if x > -1.0 else -math.inf if x == -1.0 else math.nan,
    sqrt=lambda x: math.sqrt(x) if x >= 0.0 else math.nan,
    minimum=lambda a, b: a if a < b or a != a else b,
    maximum=lambda a, b: a if a > b or a != a else b,
    where=lambda cond, x, y: x if cond else y,
    any=bool, isinf=math.isinf, ldexp=_ldexp, errstate=lambda **_: nullcontext(),
)


def _receive(xp, signal, den, g2pu, r_u, receiver):
    """Downlink rate from the signal power, the denominator without the
    intra-cell uplink power g2pu, and the receiver.  With t1 = C(signal/den),
    t2 = C((signal + g2pu)/den) and t3 = C(signal/(den + g2pu)): treat-as-noise
    gives t3.  SIC faces the uplink codeword at a carried rate R up to the
    uplink capacity r_u and gets max(t3, min(t1, t2 - R)): treating it as
    noise, or decoding jointly without having to decode it (Bandemer, El Gamal
    and Kim, IEEE T-IT 2015).  As t3 <= t1, min(R, that rate) peaks at the
    carried rate R* = max(min(r_u, t3), min(r_u, t1, t2/2)); SIC returns the
    rate at R*, so that min(r_u, r_d) = R*.  The bound receiver, the search's
    alone, returns t1 and t2/2 stacked along a new first axis."""
    if receiver is not _TAN:
        with xp.errstate(over="ignore"):  # past 1024 bits t2 is taken as a difference
            t2 = xp.log2(1.0 + (signal + g2pu) / den)
        if xp.any(xp.isinf(t2)):
            t2 = xp.where(xp.isinf(t2), xp.log2(den + signal + g2pu) - xp.log2(den), t2)
        t1 = xp.log2(1.0 + signal / den)
        if receiver is _BOUND:
            return xp.stack((t1, t2 / 2.0))
    t3 = xp.log2(1.0 + signal / (den + g2pu))
    if receiver is _TAN:
        return t3
    carried = xp.maximum(xp.minimum(r_u, t3), xp.minimum(xp.minimum(r_u, t1), t2 / 2.0))
    return xp.maximum(t3, xp.minimum(t1, t2 - carried))


def _unit(p, *gains):
    """2**-k, a point's unit of power: its kernels take every power, the noise
    power included, as a multiple of 2**-k, and the power search runs in
    these units, which leave each SINR as it is.  k = 0 unless the largest
    power gain (at least 1) times the larger budget passes 2**1016; then k
    brings that product down to 2**1016, so no product or sum of the kernels
    overflows a float even where gamma_ud^2 P_u does."""
    k = math.frexp(max(1.0, *gains))[1] + math.frexp(max(p.p_u_max, p.p_d_max))[1] - 1016
    return math.ldexp(1.0, -max(k, 0))


# The kernels' constants, every power in the point's _unit:
#   r_u = min(C(p_u / ((unit + f p_u + 2 h p_d) quant 2**-shift + noise_u)), cap_u),
#   r_d = min(_receive(a p_d, unit + b p_d + c p_u, g p_u, ...), cap_d),
# C being log2(1 + s) where alpha is None (SCP decodes each cell alone) and
# rate_closed_form(s, alpha) otherwise (C-RAN decodes the ring jointly).
# SCP has f = b = 2 alpha^2, h = beta_du^2, quant = 1, shift = 0,
# noise_u = 0, a = 1 and the fronthaul caps c_u and c_d.  C-RAN quantizes
# the uplink at sigma_u^2 = (unit + f p_u + 2 h p_d) quant 2**-shift before
# the noise (noise_u = unit), with f = 1 + 2 alpha^2, h = beta_du^2
# (1 + R_g(2)) and (quant, shift) = _per_unit_quantization(c_u), and
# precodes at a = (1 - q_d) h~_0^2 and b = q_d (1 + 2 alpha^2), q_d = 2**-c_d,
# under no cap.  Both have c = 2 beta_ud^2 and g = gamma_ud^2.  (h~_0^2,
# R_g(2)) come from zf_constants, which rejects an alpha without a
# zero-forcing precoder (ZfSingularError).
_Form = namedtuple("_Form", "alpha f h quant shift noise_u cap_u a b c g cap_d unit")


def _form(family: str, p) -> _Form:
    """One point's constants, as floats: a batch's search stacks them
    (_stacked), so each point keeps CPython's x**2 and 2.0**-x, which numpy's
    vector loops may round otherwise, and the bits it gets alone."""
    a2, bdu2, bud2, g2 = (pow(x, 2) for x in (p.alpha, p.beta_du, p.beta_ud, p.gamma_ud))
    a2, du, ud = 2.0 * a2, 2.0 * bdu2, 2.0 * bud2
    if family == "scp":
        unit = _unit(p, a2, du, ud, g2)
        return _Form(None, a2, bdu2, 1.0, 0, 0.0, p.c_u, 1.0, a2, ud, g2, p.c_d, unit)
    (h0sq, rg2), f, q_d = zf_constants(p.alpha), 1.0 + a2, 2.0**-p.c_d
    unit = _unit(p, f, du, ud, g2)  # h = bdu2 (1 + R_g(2)) <= du
    quant, shift = _per_unit_quantization(p.c_u)
    return _Form(
        p.alpha, f, bdu2 * (1.0 + rg2), quant, shift, unit, math.inf, (1.0 - q_d) * h0sq, q_d * f,
        ud, g2, math.inf, unit,
    )


def _stacked(forms) -> _Form:
    """The constants of a batch from its points' _forms: a constant every
    point shares stays its float, and one that varies is an (n, 1, 1) array,
    which broadcasts against the power arrays (n, ...) of the search."""
    import numpy as np

    return _Form._make(
        c[0] if c.count(c[0]) == len(c) else np.array(c)[:, None, None] for c in zip(*forms)
    )


def _per_unit_quantization(c: float) -> tuple[float, int]:
    """(quant, shift) with quant 2**-shift = 1 / (2**c - 1), the uplink
    quantization noise per unit of power at the radio unit, for any capacity
    c >= 0: inf at c = 0, where the quantizer passes nothing.  Past c = 1001,
    where 2**-c nears the subnormal range, shift (the integer part of c - 1000,
    at most 1100) keeps quant = 2**(shift - c) near 2**-1000; _sigma_u_sq
    applies 2**-shift last, so sigma_u^2 underflows only where its value does."""
    if c <= 0.0:
        return math.inf, 0
    shift = min(max(math.floor(c) - 1000, 0), 1100)
    return 2.0 ** (shift - c) / -math.expm1(-c * math.log(2.0)), shift


def _sigma_u_sq(xp, k, p_u, p_d):
    # C-RAN's sigma_u^2, and SCP's whole uplink denominator (quant = 1,
    # shift = 0); the neighboring radio units' downlink signals are correlated
    # at lag 2 through the shared precoder, hence (1 + R_g(2)) in C-RAN's h,
    # half the gain, which is finite for every beta_du that SystemParams takes
    load = k.unit + k.f * p_u + 2.0 * (k.h * p_d)
    return xp.ldexp(load * k.quant, -k.shift)


def _checked_sigma_u_sq(k, c_u, p_u, p_d, budgets: bool = True) -> float:
    """sigma_u^2 (_sigma_u_sq) of one point at the powers (p_u, p_d), the
    budgets unless budgets=False.  It is inf at c_u = 0, where the quantizer
    passes nothing; inf at c_u > 0 is an overflow, which would report a zero
    uplink rate where the model has a positive one, so it raises
    NumericDomainError."""
    sigma = _sigma_u_sq(_MATH, k, p_u * k.unit, p_d * k.unit) / k.unit  # formed in the _unit
    if sigma == math.inf and c_u > 0.0:
        at = "the budgets p_u_max={!r}, p_d_max={!r}" if budgets else "p_u={!r}, p_d={!r}"
        powers = (p_u, p_d)
        if k.quant == math.inf:  # below c_u = 8.9e-309 1 / (2**c_u - 1) itself overflows
            at, powers = "c_u={!r}, where 1 / (2**c_u - 1) does", [c_u]
        raise NumericDomainError("sigma_u_sq overflows a float at " + at.format(*powers))
    return sigma


def _uplink(xp, k, p_u, p_d):
    s = p_u / (_sigma_u_sq(xp, k, p_u, p_d) + k.noise_u)
    rate = xp.log2(1.0 + s) if k.alpha is None else _closed_form(xp, s, k.alpha)
    return xp.minimum(rate, k.cap_u)


def _downlink_powers(p_d, q_d):  # (stream power p_s, quantization noise sigma_d^2)
    return p_d * (1.0 - q_d), p_d * q_d


def _downlink(xp, k, p_u, p_d, r_u, receiver):
    den = k.unit + k.b * p_d + k.c * p_u
    return xp.minimum(_receive(xp, k.a * p_d, den, k.g * p_u, r_u, receiver), k.cap_d)


def _rates(xp, k, pu, pd, receiver):
    """(r_u, r_d) at constants k and powers pu, pd, r_d that of the receiver
    (_receive); half duplex, receiver None, takes the uplink at (pu, 0) and
    the downlink at (0, pd)."""
    if receiver is None:
        return _uplink(xp, k, pu, 0.0), _downlink(xp, k, 0.0, pd, 0.0, _TAN)
    r_u = _uplink(xp, k, pu, pd)
    return r_u, _downlink(xp, k, pu, pd, r_u, receiver)


def _at(kernel, k, p_u, p_d, *args):
    """kernel of one point, in floats, at the powers (p_u, p_d), passed in
    the point's _unit."""
    return kernel(_MATH, k, p_u * k.unit, p_d * k.unit, *args)


def _check_powers(params, p_u, p_d, budgets: bool = False) -> None:
    for name, v in (("p_u", p_u), ("p_d", p_d)):
        if not math.isfinite(v) or v < 0:
            raise NumericDomainError(f"{name} must be finite and >= 0, got {v!r}")
    if budgets and (p_u > params.p_u_max or p_d > params.p_d_max):
        raise ValueError(
            f"powers ({p_u}, {p_d}) exceed budgets ({params.p_u_max}, {params.p_d_max})"
        )


def _uplink_capacity(sic: SicMode, r_u) -> float:
    """The uplink capacity r_u a SIC receiver carries the uplink within
    (_receive; unused otherwise)."""
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
    As every C-RAN rate, it raises ZfSingularError at alpha >= 1/2 - 1e-9.
    """
    _check_panel_count(panels)
    k = _form("cran", params)
    sigma = _checked_sigma_u_sq(k, params.c_u, params.p_u_max, 0.0)
    return _finite("r_u", _at(_uplink, k, params.p_u_max, 0.0)), sigma


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
    return float(_at(_uplink, _form("scp", params), p_u, p_d))


def fd_scp_downlink_rate(
    params, p_u: float, p_d: float, sic: SicMode = SicMode.TREAT_AS_NOISE, r_u: float | None = None
) -> float:
    """Downlink SCP rate at operating powers.

    Treat-as-noise lumps the whole uplink-to-downlink power
    (2 beta_ud^2 + gamma_ud^2) p_u into the noise.  With SIC, r_u (required
    then) is the uplink capacity at (p_u, p_d): the uplink carries the rate
    R* = max(min(r_u, t3), min(r_u, t1, t2/2)) and the mobile gets
    max(t3, min(t1, t2 - R*)) (_receive), so min(r_u, r_d) is the carried
    rate.  Both variants cap at c_d.
    """
    r_u = _uplink_capacity(sic, r_u)
    _check_powers(params, p_u, p_d)
    return float(_at(_downlink, _form("scp", params), p_u, p_d, r_u, sic))


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
    k = _form("cran", params)
    sigma = _checked_sigma_u_sq(k, params.c_u, powers.p_u, powers.p_d, budgets=False)
    return _finite("r_u", _at(_uplink, k, powers.p_u, powers.p_d)), sigma


def fd_cran_downlink(
    params, powers: PowerAllocation, precoder: Precoder, sic: SicMode = SicMode.TREAT_AS_NOISE,
    r_u: float | None = None,
) -> float:
    """Full-duplex C-RAN downlink at given operating powers.

    Treat-as-noise adds the uplink-to-downlink power
    (2 beta_ud^2 + gamma_ud^2) p_u to the quantized-downlink denominator.
    With SIC, r_u (required then) is the uplink capacity at the powers: the
    uplink carries R* = max(min(r_u, t3), min(r_u, t1, t2/2)) and the mobile
    gets max(t3, min(t1, t2 - R*)) (_receive), t1 and t2 moving the
    gamma_ud^2 p_u term out of the denominator and into the numerator.  No
    fronthaul cap applies here -- the fronthaul already enters through the
    quantization noise.  The precoder must be the zero-forcing one of
    params.alpha.
    """
    _check_powers(params, powers.p_u, powers.p_d, budgets=True)
    _check_precoder(params, precoder)
    r_u = _uplink_capacity(sic, r_u)
    k = _form("cran", params)
    return float(_at(_downlink, k, powers.p_u, powers.p_d, r_u, sic))


def fd_cran(params, precoder: Precoder, sic: SicMode = SicMode.TREAT_AS_NOISE) -> RateResult:
    """Full-duplex C-RAN equal rate: max-min over operating powers, found by
    _max_min_search.  The precoder must be the zero-forcing one of
    params.alpha."""
    _check_precoder(params, precoder)
    return _batch("cran", sic, [params])[0]


# ----------------------------------------------------------------------------
# batches


# the SystemParams fields the constants read: a sweep builds one per value,
# and _solve takes either
_Point = namedtuple("_Point", "alpha beta_du beta_ud gamma_ud p_u_max p_d_max c_u c_d")


def _consts(family: str, sic, p) -> _Form:
    """The kernels' constants of the point p, C-RAN with the exact
    zero-forcing terms and sigma_u^2 checked at the most power the scheme
    spends (P_u alone in half duplex, sic None, else both budgets)."""
    k = _form(family, p)
    if family == "cran":
        _checked_sigma_u_sq(k, p.c_u, p.p_u_max, p.p_d_max * (sic is not None))
    return k


def _solve(family: str, sic, points, full_power: bool = False) -> list:
    """(r_u, r_d, r_eq, diagnostics) of the scheme of family and receiver sic
    (None: half duplex) at each of the points (SystemParams or _Point).
    Half duplex evaluates the uplink kernel at (P_u, 0) and the downlink
    kernel at (0, P_d), and balances the pair by equal_rate_split (f_star
    None where there is no split).  Full duplex evaluates both at the power
    search's argmax, one search for all the points, or at the budgets if
    full_power, and reports their min.  Every reported number is a float
    formed from the point alone (_MATH).  Every point's sigma_u^2 is checked
    first, then the first point with a rate not finite raises, r_u checked
    before r_d."""
    forms = [_consts(family, sic, p) for p in points]
    powers = [(p.p_u_max, p.p_d_max) for p in points]
    if sic is not None and not full_power:
        powers = _searched(forms, powers, sic)
    return list(map(_reported, repeat(family), repeat(sic), points, forms, powers))


def _searched(forms, budgets, sic) -> list:
    """Each point's argmax (p_u*, p_d*) of _max_min_search, one search for
    the points of the forms and budgets, run in each point's _unit."""
    import numpy as np

    unit = np.array([k.unit for k in forms])
    p_u, p_d = (np.array(b) * unit for b in zip(*budgets))
    _, u, d = _max_min_search(_stacked(forms), p_u, p_d, sic)
    return list(zip((u / unit).tolist(), (d / unit).tolist()))


def _reported(family: str, sic, p, k: _Form, powers) -> tuple:
    """_solve's result of the point p, constants k, at its powers."""
    p_u, p_d = powers
    r_u, r_d = _rates(_MATH, k, p_u * k.unit, p_d * k.unit, sic)
    _finite("r_u", r_u)
    _finite("r_d", r_d)
    diag = {} if sic is None else {"p_u_star": p_u, "p_d_star": p_d}
    if family == "cran":
        p_s, sigma_d = _downlink_powers(p_d, 2.0**-p.c_d)
        up = (p_u, p_d * (sic is not None))  # the uplink's powers
        diag["sigma_u_sq"] = _checked_sigma_u_sq(k, p.c_u, *up, budgets=False)
        diag.update(sigma_d_sq=sigma_d, p_s=p_s)
    if sic is None:
        r_eq, diag["f_star"] = equal_rate_split(r_u, r_d)
    else:
        r_eq = min(r_u, r_d)
    return r_u, r_d, r_eq, diag


def _batch(family: str, sic, points, full_power: bool = False) -> list:
    """Each point's RateResult of _solve, f_star left out where None."""
    return [
        RateResult(u, d, eq, {name: v for name, v in diag.items() if v is not None})
        for u, d, eq, diag in _solve(family, sic, points, full_power)
    ]


# ----------------------------------------------------------------------------
# power search
#
# Every function below works on a batch of n operating points: budgets are
# (n,) arrays, and so is each returned value and power.


def _edge_optimum(evaluate, p_u_max, p_d_max):
    """Exact max-min of monotone terms, searched on both budget edges at once.

    evaluate(pu, pd) returns (up, down, *free), the terms whose min is the
    objective.  Along p_u = p_u_max, up falls and down rises with p_d, as
    r_u and the treat-as-noise r_d do; along p_d = p_d_max the roles swap
    (fronthaul caps only flatten them).  A free term is monotone along each
    edge in the direction its two ends show in the first pass, and joins the
    terms it moves with there.  Each pass samples both brackets at
    len(_WINDOW) points and keeps the step where the falling terms drop below
    the rising ones, until every bracket is within float eps of its upper end
    (at most _EDGE_CUTS passes: subnormal brackets never are), so an optimum
    at any fraction of the budget is found.  The better bracket end, as the
    last pass rated it, wins, exact ties going to smaller powers.  A common
    power scaling lowers no term (every SINR is a standard interference
    function), so the winner keeps its value at a smaller scale only where a
    cap binds or the value is 0; it is scaled down to the smallest such scale
    (to within 2**-_SHRINK_STEPS).  Returns (value, p_u, p_d).
    """
    import numpy as np

    first = np.array([[True], [False]])  # row 0: p_u = p_u_max; row 1: p_d = p_d_max
    u_max, d_max = p_u_max[:, None, None], p_d_max[:, None, None]

    def edges(t):  # t places p_d on the first edge and p_u on the second
        return np.where(first, u_max, t * u_max), np.where(first, t * d_max, d_max)

    def grouped(up, down, *free):  # the least falling and the least rising term along each edge
        falling, rising = np.where(first, up, down), np.where(first, down, up)
        for term, down_edge in zip(free, falls):
            falling = np.where(down_edge, np.minimum(falling, term), falling)
            rising = np.where(down_edge, rising, np.minimum(rising, term))
        return falling, rising

    n = p_u_max.size
    bracket = np.broadcast_to([0.0, 1.0], (n, 2, 2))  # each edge's (lo, hi) in t
    window, falls = np.array(_WINDOW), None
    last = window.size - 1
    for _ in range(_EDGE_CUTS):
        lo, hi = bracket[..., :1], bracket[..., 1:]
        if (hi - lo <= _EPS * hi).all():
            break
        t = lo + (hi - lo) * window
        terms = evaluate(*edges(t))
        if falls is None:  # the first window runs from t = 0 to t = 1
            falls = [f[..., last:] < f[..., :1] for f in terms[2:]]
        falling, rising = grouped(*terms)
        behind = falling - rising < 0.0  # monotone along each row
        k = np.where(behind.any(axis=2), behind.argmax(axis=2), last + 1)[..., None]
        at = np.concatenate([np.maximum(k - 1, 0), np.minimum(k, last)], axis=2)
        bracket, ends = (np.take_along_axis(x, at, 2) for x in (t, np.minimum(falling, rising)))
    pu, pd = edges(bracket)
    value, p_u, p_d = np.array(
        [
            max(zip(v.ravel(), u.ravel(), d.ravel()), key=lambda e: (e[0], -e[1], -e[2]))
            for v, u, d in zip(ends, pu, pd)
        ]
    ).T

    def holds(t):  # either edge's grouping holds every term
        falling, rising = grouped(*evaluate((t * p_u)[:, None, None], (t * p_d)[:, None, None]))
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


def _max_min_search(k, p_u_max, p_d_max, sic: SicMode):
    """Maximize min(r_u, r_d) over the power box [0, p_u_max] x [0, p_d_max],
    k being the batch's constants (_stacked), for _rates in numpy at power
    arrays whose leading axis runs over its points.

    Treat-as-noise: both SINRs are standard interference functions (Yates,
    IEEE JSAC 1995), so scaling (p_u, p_d) up raises both rates and the
    optimum lies on a budget edge, where _edge_optimum finds it exactly.

    SIC: maximized over the carried rate as well (_receive), the objective is
    the larger of the treat-as-noise one and M = min(r_u, t1, t2/2), with the
    same caps.  Each SINR of M is a standard interference function too, so M
    peaks on a budget edge, and t2/2 is monotone along each edge, its SINR
    being linear-fractional in the free power: _edge_optimum finds M's
    maximum M* exactly, and a point takes M's optimum where M* beats the
    treat-as-noise one by more than _TIE_TOL.  Returns (value, p_u, p_d),
    each an (n,) array.
    """
    import numpy as np

    best = _edge_optimum(lambda pu, pd: _rates(np, k, pu, pd, _TAN), p_u_max, p_d_max)
    if sic is _TAN:
        return best

    def bound(pu, pd):  # M's terms: r_u, t1 and the free t2/2
        r_u, (t1, half) = _rates(np, k, pu, pd, _BOUND)
        return r_u, t1, half

    found = _edge_optimum(bound, p_u_max, p_d_max)
    better = found[0] > best[0] + _TIE_TOL
    return tuple(np.where(better, f, b) for f, b in zip(found, best))


# ----------------------------------------------------------------------------
# dispatch


def compute_batch(scheme: SchemeId, points) -> list[RateResult]:
    """compute_scheme for one scheme at each of a sequence of operating
    points: each point's rates in floats, at its budgets in half duplex, and
    at the argmax of one power search for the whole batch in full duplex.

    Every result equals that of the point alone.  The search's kernel calls
    grow with the batch, 2 x len(_WINDOW) = 34 powers a point, so a caller
    bounds its memory by the batches it passes, as run_sweep does (64) where
    a scheme searches.  No points give no results.
    """
    return _batch(*SCHEMES[scheme], points) if points else []


def compute_scheme(
    scheme: SchemeId, params, panels: int = DEFAULT_PANELS, grid: int = DEFAULT_GRID,
    full_power: bool = False,
) -> RateResult:
    """Evaluate one scheme end to end: _batch for one point.  C-RAN
    schemes take the zero-forcing precoder through its exact constants
    (zf_constants) and the uplink integral in closed form, so panels, still
    checked to be a valid panel count, changes no result.  Nor does grid,
    checked to be an integer >= 2: the search has no grid (DEFAULT_GRID).

    full_power=True evaluates a full-duplex scheme at its budgets
    (P_u, P_d) instead of searching; half-duplex schemes always spend them.
    """
    _check_panel_count(panels)
    if not isinstance(grid, int) or grid < 2:
        raise ValueError(f"grid resolution must be an integer >= 2, got {grid!r}")
    return _batch(*SCHEMES[scheme], [params], full_power)[0]
