"""Per-cell rate calculators for all six duplex/processing schemes.

The schemes are two processing families, single-cell processing (SCP) and
C-RAN, each with three receivers: half duplex, and full duplex treating the
co-located uplink signal as noise or cancelling it first (SIC).  Both
families share one uplink and one downlink kernel, (k, p_u, p_d[, r_u,
receiver]) -> rate, with k one point's constants and powers in the point's
_unit, which keeps the float range.  The kernels work in floats, through
the math shim spectral._MATH where math would raise: the power search, one
point at a time, and every reported number (the half-duplex rates, the
rates and sigma_u^2 at a search's argmax or at full power, and the public
scalar functions) share them.  So no rate needs numpy: only --verify's
oracles, zf_precoder and the public rate_closed_form load it.  Each
log2(1 + x) is taken as log1p(x)/ln 2, which keeps its digits where x is
below the float eps.  The constants (_Form) write SCP as a C-RAN link with
one eigenvalue and no fronthaul quantizer, in the oracle's form and under
its names, and hold the products the kernels would otherwise form on every
call.  C-RAN rates are exact: the uplink integral is rate_closed_form's
float kernel and the zero-forcing precoder of the point's alpha enters
through zf_constants.  A precoder passed to a public function must be that
one, at any sampling (_check_precoder).  The oracles keep formulas of their
own.

Half-duplex schemes split the band between directions at full power; the
equal rate follows from balancing f*R_u against (1-f)*R_d.  Full-duplex
schemes choose the operating powers (p_u, p_d) that maximize min(R_u, R_d),
exactly on the budget edges (_max_min_search).  A SIC mobile faces the
co-located uplink codeword, which may be sent at any rate up to the uplink
capacity r_u; the search maximizes over that carried rate too, and the
reported r_d is the downlink's at the best carried rate (_downlink), so
r_eq = min(r_u, r_d) is the rate the uplink carries.  _solve forms the
results of one point, scheme by scheme, in floats from the point's
constants, built once per family: half duplex as the kernels at (P_u, 0)
and (0, P_d), full duplex as both kernels at the receiver's argmax of one
power search for all the family's receivers, or at the budgets under
full_power.  compute_scheme, hd_scp, hd_cran, fd_scp and fd_cran take its
one result, and a sweep each value's rows.

C-RAN schemes model the fronthaul by quantization noise: uplink compression
at sigma_u^2 = (signal power at the radio unit) / (2**c_u - 1), downlink
precoding at stream power p_d * (1 - 2**-c_d) plus quantization noise
p_d * 2**-c_d, so the radio unit transmits exactly p_d.
"""

import math
from collections import namedtuple
from enum import Enum

from .model import NumericDomainError, PowerAllocation, RateResult, SchemeId
from .spectral import (
    DEFAULT_PANELS,
    _MATH,
    Precoder,
    _check_panels as _check_panel_count,
    _closed_form,
    zf_constants,
)

__all__ = [
    "DEFAULT_GRID",
    "SCHEMES",
    "SicMode",
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

_CHECK = 3  # Illinois steps that must halve an edge's bracket, or a halving follows
_EPS = 2.0**-52  # float eps
_LN2 = math.log(2.0)  # log2(1 + x) is taken as log1p(x) / _LN2
_SHRINK_STEPS = 20  # halvings of the tie-breaking power scale
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
# rate kernels: floats, k one point's _form


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
#   r_d = min(R(a p_d, unit + b p_d + c p_u, g p_u), cap_d), R the receiver's (_downlink),
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
    """One point's constants, as floats."""
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


def _sigma_u_sq(k, p_u, p_d):
    # C-RAN's sigma_u^2, and SCP's whole uplink denominator (quant = 1,
    # shift = 0); the neighboring radio units' downlink signals are correlated
    # at lag 2 through the shared precoder, hence (1 + R_g(2)) in C-RAN's h,
    # half the gain, which is finite for every beta_du that SystemParams takes
    load = (k.unit + k.f * p_u + 2.0 * (k.h * p_d)) * k.quant
    return _MATH.ldexp(load, -k.shift) if k.shift else load


def _checked_sigma_u_sq(k, c_u, p_u, p_d, budgets: bool = True) -> float:
    """sigma_u^2 (_sigma_u_sq) of one point at the powers (p_u, p_d), the
    budgets unless budgets=False.  It is inf at c_u = 0, where the quantizer
    passes nothing; inf at c_u > 0 is an overflow, which would report a zero
    uplink rate where the model has a positive one, so it raises
    NumericDomainError."""
    sigma = _sigma_u_sq(k, p_u * k.unit, p_d * k.unit) / k.unit  # formed in the _unit
    if sigma == math.inf and c_u > 0.0:
        at = "the budgets p_u_max={!r}, p_d_max={!r}" if budgets else "p_u={!r}, p_d={!r}"
        powers = (p_u, p_d)
        if k.quant == math.inf:  # below c_u = 8.9e-309 1 / (2**c_u - 1) itself overflows
            at, powers = "c_u={!r}, where 1 / (2**c_u - 1) does", [c_u]
        raise NumericDomainError("sigma_u_sq overflows a float at " + at.format(*powers))
    return sigma


def _uplink(k, p_u, p_d):
    s = p_u / (_sigma_u_sq(k, p_u, p_d) + k.noise_u)
    rate = _MATH.log1p(s) / _LN2 if k.alpha is None else _closed_form(s, k.alpha)
    return _MATH.minimum(rate, k.cap_u)


def _downlink_powers(p_d, q_d):  # (stream power p_s, quantization noise sigma_d^2)
    return p_d * (1.0 - q_d), p_d * q_d


def _downlink(k, p_u, p_d, r_u, receiver):
    """Downlink rate, at most cap_d, from the signal power signal = a p_d, the
    denominator den = unit + b p_d + c p_u without the intra-cell uplink power
    g2pu = g p_u, and the receiver.  With t1 = C(signal/den), t2 = C((signal +
    g2pu)/den) and t3 = C(signal/(den + g2pu)): treat-as-noise gives t3.  SIC
    faces the uplink codeword at a carried rate R up to the uplink capacity
    r_u and gets max(t3, min(t1, t2 - R)): treating it as noise, or decoding
    jointly without having to decode it (Bandemer, El Gamal and Kim, IEEE T-IT
    2015).  As t3 <= t1, min(R, that rate) peaks at the carried rate R* =
    max(min(r_u, t3), min(r_u, t1, t2/2)); SIC returns the rate at R*, so that
    min(r_u, r_d) = R*.  The bound receiver, the search's alone, returns the
    pair (t1, t2/2)."""
    den, signal, g2pu = k.unit + k.b * p_d + k.c * p_u, k.a * p_d, k.g * p_u
    if receiver is not _TAN:
        t2 = _MATH.log1p((signal + g2pu) / den) / _LN2
        if math.isinf(t2):  # past 1024 bits t2 is taken as a difference
            t2 = _MATH.log2(den + signal + g2pu) - _MATH.log2(den)
        t1 = _MATH.log1p(signal / den) / _LN2
        if receiver is _BOUND:
            return _MATH.minimum(t1, k.cap_d), _MATH.minimum(t2 / 2.0, k.cap_d)
    t3 = _MATH.log1p(signal / (den + g2pu)) / _LN2
    if receiver is _TAN:
        return _MATH.minimum(t3, k.cap_d)
    least, most = _MATH.minimum, _MATH.maximum
    carried = most(least(r_u, t3), least(least(r_u, t1), t2 / 2.0))
    return least(most(t3, least(t1, t2 - carried)), k.cap_d)


def _rates(k, pu, pd, receiver):
    """(r_u, r_d) at constants k and powers pu, pd, r_d that of the receiver
    (_downlink); half duplex, receiver None, takes the uplink at (pu, 0) and
    the downlink at (0, pd)."""
    if receiver is None:
        return _uplink(k, pu, 0.0), _downlink(k, 0.0, pd, 0.0, _TAN)
    r_u = _uplink(k, pu, pd)
    return r_u, _downlink(k, pu, pd, r_u, receiver)


def _at(kernel, k, p_u, p_d, *args):
    """kernel of one point at the powers (p_u, p_d), passed in the point's
    _unit."""
    return kernel(k, p_u * k.unit, p_d * k.unit, *args)


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
    (_downlink; unused otherwise)."""
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
    return _result("scp", None, params)


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
    return _result("cran", None, params)


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
    max(t3, min(t1, t2 - R*)) (_downlink), so min(r_u, r_d) is the carried
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
    return _result("scp", sic, params)


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
    gets max(t3, min(t1, t2 - R*)) (_downlink), t1 and t2 moving the
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
    return _result("cran", sic, params)


# ----------------------------------------------------------------------------
# one point's results


def _solve(p, kinds, full_power: bool = False):
    """(r_u, r_d, r_eq, diagnostics) of each (family, receiver) of kinds,
    receiver None for half duplex, at the point p (SystemParams or
    model._Point), lazily and in the order of kinds, each family's constants
    built at its first scheme.  Half duplex evaluates the uplink kernel at
    (P_u, 0) and the downlink kernel at (0, P_d), and balances the pair by
    equal_rate_split (f_star None where there is no split).  Full duplex
    evaluates both at the receiver's argmax of one power search for all the
    family's receivers in kinds (_max_min_search), in the point's _unit, or
    at the budgets if full_power, and reports their min.  At a family's
    first full-duplex scheme a C-RAN sigma_u^2 is checked at both budgets,
    which the search spends.  Every number is a float formed from the point
    alone, so a scheme gets the same result whatever kinds list beside it,
    and a failing scheme raises before a later one is solved, its r_u
    checked before its r_d and its C-RAN sigma_u^2 (_reported) last."""
    forms, found = {}, {}
    for family, receiver in kinds:
        if family not in forms:
            forms[family] = _form(family, p)
        k, powers = forms[family], (p.p_u_max, p.p_d_max)
        if receiver is not None:
            if family not in found:
                if family == "cran":
                    _checked_sigma_u_sq(k, p.c_u, *powers)
                receivers = {r for f, r in kinds if f == family}
                budgets = (p.p_u_max * k.unit, p.p_d_max * k.unit)
                found[family] = {} if full_power else _max_min_search(k, *budgets, receivers)
            if receiver in found[family]:
                _, p_u, p_d = found[family][receiver]
                powers = (p_u / k.unit, p_d / k.unit)
        yield _reported(family, receiver, p, k, powers)


def _reported(family: str, sic, p, k: _Form, powers) -> tuple:
    """_solve's result of the point p, constants k, at its powers."""
    p_u, p_d = powers
    r_u, r_d = _rates(k, p_u * k.unit, p_d * k.unit, sic)
    _finite("r_u", r_u)
    _finite("r_d", r_d)
    diag = {} if sic is None else {"p_u_star": p_u, "p_d_star": p_d}
    if family == "cran":
        p_s, sigma_d = _downlink_powers(p_d, 2.0**-p.c_d)
        up = (p_u, p_d * (sic is not None))  # the uplink's powers
        diag["sigma_u_sq"] = _checked_sigma_u_sq(k, p.c_u, *up, budgets=sic is None)
        diag.update(sigma_d_sq=sigma_d, p_s=p_s)
    if sic is None:
        r_eq, diag["f_star"] = equal_rate_split(r_u, r_d)
    else:
        r_eq = min(r_u, r_d)
    return r_u, r_d, r_eq, diag


def _result(family: str, sic, params, full_power: bool = False) -> RateResult:
    """The RateResult of one scheme at params (_solve), f_star left out where None."""
    [(r_u, r_d, r_eq, diag)] = _solve(params, [(family, sic)], full_power)
    return RateResult(r_u, r_d, r_eq, {name: v for name, v in diag.items() if v is not None})


# ----------------------------------------------------------------------------
# power search, one operating point at a time, in the point's _unit


def _edge_optimum(evaluate, p_u_max, p_d_max, caps):
    """Exact max-min of monotone terms, searched on both budget edges.

    evaluate(pu, pd) returns (up, down, *free), the terms whose min is the
    objective.  Along p_u = p_u_max, up falls and down rises with p_d, as
    r_u and the treat-as-noise r_d do; along p_d = p_d_max the roles swap
    (fronthaul caps only flatten them).  A free term is monotone along each
    edge in the direction its two ends show, and joins the terms it moves
    with there.  Each edge's crossing of the falling and the rising terms is
    bracketed in its free power (_crossing).  The better bracket end wins,
    exact ties going to smaller powers.

    A common power scaling lowers no term (every SINR is a standard
    interference function), so a smaller scale keeps the winner's value
    where a cap binds, and elsewhere only by rounding.  So the winner is
    scaled down only where its value is 0, to 0, or equals one of caps:
    there to the smallest scale at which every term still reaches it (to
    within 2**-_SHRINK_STEPS), a test of a rising rate against its cap,
    which no last ulp tips.  Returns (value, p_u, p_d).
    """
    top = evaluate(p_u_max, p_d_max)
    best = []
    for first, low in ((True, evaluate(p_u_max, 0.0)), (False, evaluate(0.0, p_d_max))):
        falls = [high < start for start, high in zip(low[2:], top[2:])]

        def rated(x, terms=None, first=first, falls=falls):  # x the edge's free power
            pu, pd = (p_u_max, x) if first else (x, p_d_max)
            up, down, *free = terms or evaluate(pu, pd)
            falling, rising = (up, down) if first else (down, up)
            for term, down_edge in zip(free, falls):
                if down_edge:
                    falling = _MATH.minimum(falling, term)
                else:
                    rising = _MATH.minimum(rising, term)
            return x, falling - rising, _MATH.minimum(falling, rising), pu, pd

        best += _crossing(rated, rated(0.0, low), rated(p_d_max if first else p_u_max, top))
    value, p_u, p_d = max(((v, u, d) for *_, v, u, d in best), key=lambda e: (e[0], -e[1], -e[2]))
    if value <= 0.0:
        return value, 0.0, 0.0
    if value not in caps:
        return value, p_u, p_d

    def holds(t):  # every term reaches the value at the scale t
        return all(term >= value for term in evaluate(t * p_u, t * p_d))

    lo, hi = 0.0, 1.0
    if holds(1.0 - 2.0**-_SHRINK_STEPS):
        for _ in range(_SHRINK_STEPS):
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if holds(mid) else (mid, hi)
    return value, hi * p_u, hi * p_d


def _crossing(rated, lo, hi):
    """The ends of one edge's bracket [lo, hi] of its free power x, each
    rated(x) = (x, gap, value, p_u, p_d) with gap = falling - rising, behind
    where gap < 0; lo and hi come rated at x = 0 and at the budget.  An edge
    behind at 0, or never behind, keeps that end alone.  Otherwise lo stays
    not behind and hi behind, so that a flat stretch resolves to its upper
    end, and Illinois steps on the gap shrink the bracket (false position,
    the gap at an end kept twice running halved: M. Dowell and P. Jarratt,
    BIT 11, 1971), each at least a relative eps inside it, until hi - lo <=
    eps hi or no float lies between its ends (subnormal brackets).  A
    halving stands in where the last _CHECK steps have not halved the
    bracket, and on a flat stretch, once two points not behind show a gap
    of 0, until a point behind ends it."""
    if lo[1] < 0.0:
        return [lo]
    if not hi[1] < 0.0:
        return [hi]
    (a, f_a), (b, f_b), moved, flat = lo[:2], hi[:2], 0, False
    widths = [b - a]
    while b - a > _EPS * b:
        step = f_a / (f_a - f_b) if f_a > f_b else math.nan  # a halved f_b may underflow to -0.0
        x = min(max(a + (b - a) * step, a + _EPS * a), b - _EPS * b)
        if flat or not a < x < b or len(widths) > _CHECK and b - a > 0.5 * widths[-1 - _CHECK]:
            x = 0.5 * (a + b)
            if not a < x < b:
                break
        at = rated(x)
        if at[1] < 0.0:
            hi, b, f_b, f_a = at, x, at[1], f_a * (0.5 if moved < 0 else 1.0)
            moved, flat = -1, False
        else:
            flat = at[1] == 0.0 == f_a
            lo, a, f_a, f_b = at, x, at[1], f_b * (0.5 if moved > 0 else 1.0)
            moved = 1
        widths.append(b - a)
    return [lo, hi]


def _max_min_search(k, p_u_max, p_d_max, receivers):
    """Maximize min(r_u, r_d) over the power box [0, p_u_max] x [0, p_d_max]
    of one point, constants k and powers in its _unit, for the full-duplex
    receivers.

    Treat-as-noise: both SINRs are standard interference functions (Yates,
    IEEE JSAC 1995), so scaling (p_u, p_d) up raises both rates and the
    optimum lies on a budget edge, where _edge_optimum finds it exactly.

    SIC: maximized over the carried rate as well (_downlink), the objective is
    the larger of the treat-as-noise one and M = min(r_u, t1, t2/2), with the
    same caps.  Each SINR of M is a standard interference function too, so M
    peaks on a budget edge, and t2/2 is monotone along each edge, its SINR
    being linear-fractional in the free power: _edge_optimum finds M's
    maximum M* exactly, and the point takes M's optimum where M* beats the
    treat-as-noise one by more than _TIE_TOL: one treat-as-noise search
    serves both receivers, and M's runs only where receivers hold SIC.
    Returns {receiver: (value, p_u, p_d)}, floats, for treat-as-noise and,
    where searched, SIC.
    """
    caps = (k.cap_u, k.cap_d)
    best = _edge_optimum(lambda pu, pd: _rates(k, pu, pd, _TAN), p_u_max, p_d_max, caps)
    if SicMode.SIC not in receivers:
        return {_TAN: best}

    def bound(pu, pd):  # M's terms: r_u, t1 and the free t2/2
        r_u = _uplink(k, pu, pd)
        return (r_u, *_downlink(k, pu, pd, r_u, _BOUND))

    found = _edge_optimum(bound, p_u_max, p_d_max, caps)
    better = found[0] > best[0] + _TIE_TOL
    return {_TAN: best, SicMode.SIC: found if better else best}


# ----------------------------------------------------------------------------
# dispatch


def compute_scheme(
    scheme: SchemeId, params, panels: int = DEFAULT_PANELS, grid: int = DEFAULT_GRID,
    full_power: bool = False,
) -> RateResult:
    """Evaluate one scheme end to end (_solve).  C-RAN schemes take the
    zero-forcing precoder through its exact constants (zf_constants) and the
    uplink integral in closed form, so panels, still checked to be a valid
    panel count, changes no result.  Nor does grid, checked to be an integer
    >= 2: the search has no grid (DEFAULT_GRID).

    full_power=True evaluates a full-duplex scheme at its budgets
    (P_u, P_d) instead of searching; half-duplex schemes always spend them.
    """
    _check_panel_count(panels)
    if not isinstance(grid, int) or grid < 2:
        raise ValueError(f"grid resolution must be an integer >= 2, got {grid!r}")
    return _result(*SCHEMES[scheme], params, full_power)
