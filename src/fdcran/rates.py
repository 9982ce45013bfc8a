"""Per-cell rate calculators for all six duplex/processing schemes.

The schemes are two processing families, single-cell processing (SCP) and
C-RAN, each with three receivers: half duplex, and full duplex treating the
co-located uplink signal as noise or cancelling it first (SIC).  Each family
has one uplink and one downlink kernel, (k, p_u, p_d[, r_u, receiver]) ->
rate, with k a point's constants (plain floats, or (n, 1, 1) columns for a
batch: _stacked) and powers in its _unit, which keeps the float range.  The
power search, the reported rates at its argmax, the public scalar rate
functions and half duplex (the other direction's power at 0) all call them.
C-RAN rates are exact: the uplink integral is rate_closed_form and the
zero-forcing precoder of the point's alpha enters through zf_constants.  A
precoder passed to a public function must be that one, at any sampling
(_check_precoder).  The oracles keep formulas of their own.

Half-duplex schemes split the band between directions at full power; the
equal rate follows from balancing f*R_u against (1-f)*R_d.  Full-duplex
schemes choose the operating powers (p_u, p_d) that maximize min(R_u, R_d):
exactly on the budget edges for treat-as-noise, plus a search of the
decode-first branch for SIC seeded by scans at one fixed resolution,
DEFAULT_GRID (see _max_min_search).  compute_batch evaluates one scheme at a
batch of operating points at once: half duplex as the kernels at (P_u, 0)
and (0, P_d) for every point, full duplex as one power search (compute_scheme,
hd_scp, hd_cran, fd_scp and fd_cran are its batch of one).  Every point of a
batch gets bit-for-bit the result it gets alone.  Kernel calls are split
along the batch axis so that none evaluates more elements than the largest
call of a one-point search, _CALL_LIMIT; the DEFAULT_GRID**2 budget-edge
scans and the first row scan therefore run one point at a time.

C-RAN schemes model the fronthaul by quantization noise: uplink compression
at sigma_u^2 = (signal power at the radio unit) / (2**c_u - 1), downlink
precoding at stream power p_d * (1 - 2**-c_d) plus quantization noise
p_d * 2**-c_d, so the radio unit transmits exactly p_d.
"""

import math
from collections import namedtuple
from enum import Enum
from itertools import chain

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
_CALL_LIMIT = (DEFAULT_GRID + 2) * (DEFAULT_GRID + 1)  # a one-point SIC search's first row scan

_EDGE_CUTS = 269  # most 16-fold cuts of a bracket: 16**-269 < 2**-1074, the least subnormal
_EPS = np.finfo(float).eps
_SHRINK_STEPS = 20  # halvings of the tie-breaking power scale
_ZOOM = 8  # window shrink factor per zoom pass
_ZOOM_PASSES = 12  # zoom passes along each axis of the SIC search
_WINDOW = np.linspace(0.0, 1.0, 17)  # samples across a search window
_TIE_TOL = 1e-9  # objective values this close count as tied


class SicMode(Enum):
    """Downlink receiver behavior toward the co-located uplink transmission."""

    TREAT_AS_NOISE = "treat_as_noise"
    SIC = "sic"


_TAN = SicMode.TREAT_AS_NOISE
# the search's third receiver: the SIC branch that decodes the uplink first
_DECODE_FIRST = "decode_first"

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
    clamp q(t1, t2 - r_u, t3) = min(t1, max(t2 - r_u, t3)) because t3 <= t1."""
    if receiver is not _TAN:
        with np.errstate(over="ignore"):  # past 1024 bits t2 is taken as a difference
            t2 = np.log2(1.0 + (signal + g2pu) / den)
        if np.isinf(t2).any():
            t2 = np.where(np.isinf(t2), np.log2(den + signal + g2pu) - np.log2(den), t2)
        first = np.minimum(np.log2(1.0 + signal / den), t2 - r_u)
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
    a2, bdu2, bud2, g2 = p.alpha**2, p.beta_du**2, p.beta_ud**2, p.gamma_ud**2
    gain = max(1.0, 2.0 * a2, 2.0 * bdu2, 2.0 * bud2, g2)
    return a2, bdu2, bud2, g2, p.c_u, p.c_d, _unit(p, gain)


def _scp_uplink(k, p_u, p_d):
    a2, bdu2, _, _, c_u, _, unit = k
    return np.minimum(np.log2(1.0 + p_u / (unit + 2.0 * a2 * p_u + 2.0 * bdu2 * p_d)), c_u)


def _scp_downlink(k, p_u, p_d, r_u, receiver):
    a2, _, bud2, g2, _, c_d, unit = k
    den = unit + 2.0 * a2 * p_d + 2.0 * bud2 * p_u
    return np.minimum(_receive(p_d, den, g2 * p_u, r_u, receiver), c_d)


# quant = _per_unit_quantization(c_u), q_d = 2**-c_d, (h0sq, rg2) from
# zf_constants, which an uplink alone does not need, and the _unit of power
_CranConsts = namedtuple("_CranConsts", "alpha a2 bdu2 bud2 g2 quant q_d h0sq rg2 unit")


def _cran_consts(p, terms=(0.0, 0.0)) -> _CranConsts:
    a2, bdu2, bud2, g2 = p.alpha**2, p.beta_du**2, p.beta_ud**2, p.gamma_ud**2
    unit = _unit(p, max(1.0 + 2.0 * a2, 2.0 * bdu2, 2.0 * bud2, g2))  # (1 + rg2) <= 2
    quant = _per_unit_quantization(p.c_u)
    return _CranConsts(p.alpha, a2, bdu2, bud2, g2, quant, 2.0**-p.c_d, *terms, unit)


def _per_unit_quantization(c: float) -> float:
    """1 / (2**c - 1), the uplink quantization noise per unit of power at the
    radio unit, for any capacity c >= 0: it falls to 0 as c grows without
    bound and is inf at c = 0, where the quantizer passes nothing."""
    if c <= 0.0:
        return math.inf
    return 2.0**-c / -math.expm1(-c * math.log(2.0))


def _sigma_u_sq(k, p_u, p_d, noise=1.0):
    # the neighboring radio units' downlink signals are correlated at lag 2
    # through the shared precoder, hence (1 + R_g(2))
    _, a2, bdu2, _, _, quant, _, _, rg2, _ = k
    return (noise + (1.0 + 2.0 * a2) * p_u + 2.0 * bdu2 * (1.0 + rg2) * p_d) * quant


def _reported_sigma_u_sq(k, p_u, p_d):
    """sigma_u^2 at the powers (p_u, p_d), formed in the point's _unit and
    brought back to the unit noise power, so that only a sigma_u^2 that is
    itself past the float range is inf (or c_u = 0)."""
    return _sigma_u_sq(k, p_u * k.unit, p_d * k.unit, k.unit) / k.unit


def _checked_sigma_u_sq(k, p_u: float, p_d: float, budgets: bool = True) -> float:
    """sigma_u^2 at the powers (p_u, p_d), the budgets unless budgets=False,
    as a plain float.  It is inf at c_u = 0, where the quantizer passes
    nothing; inf at c_u > 0 is an overflow, which would report a zero uplink
    rate where the model has a positive one, so it raises NumericDomainError."""
    sigma = _reported_sigma_u_sq(k, p_u, p_d)
    if sigma == math.inf and k.quant < math.inf:
        at = "the budgets p_u_max={!r}, p_d_max={!r}" if budgets else "p_u={!r}, p_d={!r}"
        raise NumericDomainError("sigma_u_sq overflows a float at " + at.format(p_u, p_d))
    return sigma


def _cran_uplink(k, p_u, p_d):
    return rate_closed_form(p_u / (k[-1] + _sigma_u_sq(k, p_u, p_d, k[-1])), k[0])


def _downlink_powers(p_d, q_d):  # (stream power p_s, quantization noise sigma_d^2)
    return p_d * (1.0 - q_d), p_d * q_d


def _cran_downlink(k, p_u, p_d, r_u, receiver):
    _, a2, _, bud2, g2, _, q_d, h0sq, _, unit = k
    p_s, sigma_d = _downlink_powers(p_d, q_d)
    den = unit + sigma_d * (1.0 + 2.0 * a2) + 2.0 * bud2 * p_u
    return _receive(p_s * h0sq, den, g2 * p_u, r_u, receiver)


def _kernels(family: str):
    """(uplink, downlink) kernels of a processing family."""
    return (_scp_uplink, _scp_downlink) if family == "scp" else (_cran_uplink, _cran_downlink)


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


def _check_precoder(params, precoder: Precoder, panels: int | None = None) -> None:
    """A precoder passed in must be the zero-forcing one of params.alpha, at
    any sampling, as its exact constants stand for it; panels, if given, must
    match that sampling."""
    if panels is not None and panels != precoder.panels:
        raise ValueError(f"precoder is sampled at {precoder.panels} panels, got panels={panels}")
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
    sigma = _checked_sigma_u_sq(k, params.p_u_max, 0.0)
    return _finite("r_u", _at(_cran_uplink, k, params.p_u_max, 0.0)), sigma


def hd_cran_downlink(
    params, precoder: Precoder, panels: int | None = None
) -> tuple[float, float, float]:
    """Downlink rate with central-unit precoding and fronthaul quantization.

    Stream power p_s = P_d (1 - 2**-c_d) and quantization noise
    sigma_d^2 = P_d 2**-c_d keep the radio unit at exactly P_d.  Zero forcing
    nulls every inter-stream tap, so the rate is
    C(p_s h~_0^2 / (1 + sigma_d^2 (1 + 2 alpha^2))): full-duplex C-RAN's
    downlink at (0, P_d).  The precoder must be the zero-forcing one of
    params.alpha (ValueError otherwise); panels, if given, must match its
    sampling.  Returns (rate, sigma_d_sq, p_s).
    """
    rate = fd_cran_downlink(params, PowerAllocation(0.0, params.p_d_max), precoder, panels=panels)
    p_s, sigma = _downlink_powers(params.p_d_max, 2.0**-params.c_d)
    return rate, sigma, p_s


def hd_cran(params, precoder: Precoder, panels: int = DEFAULT_PANELS) -> RateResult:
    """Half-duplex C-RAN: both directions combined through the time split.
    The precoder must be the zero-forcing one of params.alpha, and panels
    must match its sampling."""
    _check_precoder(params, precoder, panels)
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


def fd_cran_uplink(
    params, powers: PowerAllocation, precoder: Precoder, panels: int = DEFAULT_PANELS
) -> tuple[float, float]:
    """Full-duplex C-RAN uplink at given operating powers.

    The downlink-to-uplink interference raises the quantization noise through
    its received power 2 beta_du^2 (1 + R_g(2)) p_d, but the central unit
    knows the downlink signals and subtracts them after decompression, so
    only sigma_u^2 reaches the decoder.  The precoder must be the
    zero-forcing one of params.alpha; panels must be a valid panel count but
    changes nothing.  Returns (rate, sigma_u_sq); c_u = 0 gives sigma_u_sq =
    inf and rate 0, and a sigma_u_sq that overflows a float at c_u > 0 raises
    NumericDomainError.
    """
    _check_powers(params, powers.p_u, powers.p_d, budgets=True)
    _check_panel_count(panels)
    _check_precoder(params, precoder)
    k = _cran_consts(params, zf_constants(params.alpha))
    sigma = _checked_sigma_u_sq(k, powers.p_u, powers.p_d, budgets=False)
    return _finite("r_u", _at(_cran_uplink, k, powers.p_u, powers.p_d)), sigma


def fd_cran_downlink(
    params, powers: PowerAllocation, precoder: Precoder, sic: SicMode = SicMode.TREAT_AS_NOISE,
    r_u: float | None = None, panels: int | None = None,
) -> float:
    """Full-duplex C-RAN downlink at given operating powers.

    Treat-as-noise adds the uplink-to-downlink power
    (2 beta_ud^2 + gamma_ud^2) p_u to the quantized-downlink denominator.
    With SIC the gamma_ud^2 p_u term moves between numerator and denominator
    to form q(t1, t2 - r_u, t3); r_u (required then) is the uplink rate the
    mobile must first decode.  No fronthaul cap applies here -- the fronthaul
    already enters through the quantization noise.  The precoder must be the
    zero-forcing one of params.alpha; panels, if given, must match its
    sampling.
    """
    _check_powers(params, powers.p_u, powers.p_d, budgets=True)
    _check_precoder(params, precoder, panels)
    r_u = _carried_uplink(sic, r_u)
    k = _cran_consts(params, zf_constants(params.alpha))
    return float(_at(_cran_downlink, k, powers.p_u, powers.p_d, r_u, sic))


def fd_cran(
    params, precoder: Precoder, sic: SicMode = SicMode.TREAT_AS_NOISE, panels: int = DEFAULT_PANELS,
) -> RateResult:
    """Full-duplex C-RAN equal rate: max-min over operating powers, found by
    _max_min_search.  The precoder must be the zero-forcing one of
    params.alpha; panels must be a valid panel count but changes nothing."""
    _check_panel_count(panels)
    _check_precoder(params, precoder)
    return _batch("cran", sic, [params])[0]


# ----------------------------------------------------------------------------
# batches


def _consts(family: str, sic, points) -> list:
    """Kernel constants of each point, C-RAN with the exact zero-forcing terms
    and sigma_u^2 checked, in plain floats, at the most power the scheme
    spends: P_u alone in half duplex (sic None), else both budgets."""
    if family == "scp":
        return [_scp_consts(p) for p in points]
    consts = []
    for p in points:
        k = _cran_consts(p, zf_constants(p.alpha))
        _checked_sigma_u_sq(k, p.p_u_max, 0.0 if sic is None else p.p_d_max)
        consts.append(k)
    return consts


def _batch(family: str, sic, points) -> list:
    """Each point's result for the scheme of family and receiver sic (None:
    half duplex), all points evaluated at once."""
    consts = _consts(family, sic, points)
    if sic is None:
        return _hd_batch(family, consts, points)
    return _fd_batch(family, consts, points, sic)


def _stacked(rows):
    """Per-point constants, one row per point, as (of, columns): columns holds
    one (n,) array per quantity, and of(b) gives the constants of a slice b
    of the points, one (n, 1, 1) column per quantity, broadcasting against
    power arrays of shape (n, ...), or for a single point its plain floats,
    which numpy combines with arrays at less cost and to the same values."""
    n = len(rows)
    columns = np.fromiter(chain.from_iterable(rows), float, n * len(rows[0])).reshape(n, -1).T
    stacked = columns[..., None, None]

    def of(b: slice):
        return rows[b.start] if b.stop - b.start == 1 else stacked[:, b]

    return of, columns


def _hd_batch(family: str, consts, points) -> list:
    """Half duplex at every point at once: the uplink kernel at (P_u, 0), the
    downlink kernel at (0, P_d), and the time split that balances them, as
    equal_rate_split forms it, bit for bit, for the whole batch."""
    uplink, downlink = _kernels(family)
    of, columns = _stacked(consts)

    def rates(b, pu, pd):
        k = of(b)
        return uplink(k, pu, 0.0), downlink(k, 0.0, pd, 0.0, _TAN)

    p_u_max, p_d_max = _budgets(points)
    p_u, p_d = ((x * columns[-1])[:, None, None] for x in (p_u_max, p_d_max))  # in each _unit
    r_u, r_d = (r.ravel() for r in _in_chunks(rates, p_u, p_d))
    finite = np.isfinite(r_u) & np.isfinite(r_d)
    if not finite.all():  # the first point with a rate not finite raises
        i = int(np.argmin(finite))
        _finite("r_u", r_u[i])
        _finite("r_d", r_d[i])
    total = r_u + r_d
    split = total > 0.0  # else rate 0 and no time split
    r_eq = np.divide(r_u * r_d, total, out=np.zeros_like(total), where=split)
    f_star = np.divide(r_d, total, out=np.zeros_like(total), where=split)
    diag = {}
    if family == "cran":
        k = _CranConsts(*columns)
        p_s, sigma_d = _downlink_powers(p_d_max, k.q_d)
        # inf only where quant is (c_u = 0): _consts has checked sigma_u^2 at
        # these powers for every other point
        diag["sigma_u_sq"] = _reported_sigma_u_sq(k, p_u_max, 0.0)
        diag.update(sigma_d_sq=sigma_d, p_s=p_s)
    results = []
    for up, down, eq, f, has_f, *values in zip(
        *(x.tolist() for x in (r_u, r_d, r_eq, f_star, split, *diag.values()))
    ):
        d = dict(zip(diag, values))
        if has_f:
            d["f_star"] = f
        results.append(RateResult(up, down, eq, d))
    return results


def _fd_batch(family: str, consts, points, sic: SicMode) -> list:
    """One power search for the points of a batch, consts holding each point's
    kernel constants, and each point's result (_fd_result) at its argmax."""
    uplink, downlink = _kernels(family)
    of, columns = _stacked(consts)

    def rates(b, pu, pd, receiver):
        k = of(b)
        r_u = uplink(k, pu, pd)
        return r_u, downlink(k, pu, pd, r_u, receiver)

    units = columns[-1]
    p_u_max, p_d_max = _budgets(points)
    _, p_u, p_d = _max_min_search(rates, p_u_max * units, p_d_max * units, sic)
    p_u, p_d = p_u / units, p_d / units
    return [_fd_result(family, k, sic, *at) for k, *at in zip(consts, p_u.tolist(), p_d.tolist())]


def _fd_result(family: str, k, sic: SicMode, p_u: float, p_d: float) -> RateResult:
    """A full-duplex scheme's rates and diagnostics at (p_u, p_d)."""
    uplink, downlink = _kernels(family)
    r_u = _finite("r_u", _at(uplink, k, p_u, p_d))
    r_d = _finite("r_d", _at(downlink, k, p_u, p_d, r_u, sic))
    diag = {"p_u_star": p_u, "p_d_star": p_d}
    if family == "cran":
        p_s, sigma_d = _downlink_powers(p_d, k.q_d)
        diag.update(sigma_u_sq=_reported_sigma_u_sq(k, p_u, p_d), sigma_d_sq=sigma_d, p_s=p_s)
    return RateResult(r_u, r_d, min(r_u, r_d), diag)


# ----------------------------------------------------------------------------
# power search
#
# Every function below works on a batch of n operating points: budgets are
# (n,) arrays, and so is each returned value and power.


def _budgets(points) -> tuple:
    """Each point's budgets (P_u, P_d): two (n,) arrays."""
    return np.array([p.p_u_max for p in points]), np.array([p.p_d_max for p in points])


def _in_chunks(fn, pu, pd, at: int = 0):
    """fn(b, pu[i:j], pd[i:j]) for the points b = slice(at + i, at + j), one
    per leading row of pu and pd, in calls of at most _CALL_LIMIT elements
    (one point at least) along that axis; the tuples of arrays that fn
    returns are joined along it."""
    shape = np.broadcast(pu, pd).shape
    step = max(1, _CALL_LIMIT // math.prod(shape[1:]))
    if step >= shape[0]:
        return fn(slice(at, at + shape[0]), pu, pd)
    parts = [
        fn(slice(at + i, at + i + step), pu[i : i + step], pd[i : i + step])
        for i in range(0, shape[0], step)
    ]
    return tuple(np.concatenate(part) for part in zip(*parts))


def _edge_optimum(evaluate, p_u_max: np.ndarray, p_d_max: np.ndarray):
    """Exact treat-as-noise max-min, searched on both budget edges at once.

    Along p_u = p_u_max, r_u falls and r_d rises with p_d; along p_d = p_d_max
    the roles swap (fronthaul caps only flatten them).  Each pass samples both
    brackets at len(_WINDOW) points and keeps the step where the falling rate
    drops below the rising one, until every bracket is within float eps of its
    upper end (at most _EDGE_CUTS passes: subnormal brackets never are), so an
    optimum at any fraction of the budget is found.  The better bracket end
    wins, exact ties going to smaller powers.  A common power scaling raises
    both rates, so the winner keeps its value at a smaller scale only where a
    cap binds or the value is 0; it is scaled down to the smallest such scale
    (to within 2**-_SHRINK_STEPS).  Returns (value, p_u, p_d).
    """
    first = np.array([[True], [False]])  # row 0: p_u = p_u_max; row 1: p_d = p_d_max
    u_max, d_max = p_u_max[:, None, None], p_d_max[:, None, None]

    def edges(t):  # t places p_d on the first edge and p_u on the second
        return np.where(first, u_max, t * u_max), np.where(first, t * d_max, d_max)

    n = p_u_max.size
    lo, hi = np.zeros((n, 2, 1)), np.ones((n, 2, 1))
    last = _WINDOW.size - 1
    for _ in range(_EDGE_CUTS):
        if (hi - lo <= _EPS * hi).all():
            break
        t = lo + (hi - lo) * _WINDOW
        r_u, r_d = evaluate(*edges(t))
        behind = np.where(first, r_u - r_d, r_d - r_u) < 0.0  # monotone along each row
        k = np.where(behind.any(axis=2), behind.argmax(axis=2), last + 1)[..., None]
        lo = np.take_along_axis(t, np.maximum(k - 1, 0), axis=2)
        hi = np.take_along_axis(t, np.minimum(k, last), axis=2)
    pu, pd = edges(np.concatenate([lo, hi], axis=2))
    ends = np.minimum(*evaluate(pu, pd))
    value, p_u, p_d = np.array(
        [
            max(zip(v.ravel(), u.ravel(), d.ravel()), key=lambda e: (e[0], -e[1], -e[2]))
            for v, u, d in zip(ends, pu, pd)
        ]
    ).T

    def holds(t):
        r_u, r_d = evaluate((t * p_u)[:, None, None], (t * p_d)[:, None, None])
        return np.minimum(r_u, r_d)[:, 0, 0] >= value

    lo, hi = np.zeros(n), np.ones(n)
    shrink = (value > 0.0) & holds(np.full(n, 1.0 - 2.0**-_SHRINK_STEPS))
    if shrink.any():
        for _ in range(_SHRINK_STEPS):
            mid = 0.5 * (lo + hi)
            ok = holds(mid)
            lo, hi = np.where(shrink & ~ok, mid, lo), np.where(shrink & ok, mid, hi)
    scale = np.where(value <= 0.0, 0.0, hi)
    return value, scale * p_u, scale * p_d


def _best_of(values, at):
    """Each row's first maximum of values (last axis) and where it is in at,
    an array of the same shape."""
    flat = values.reshape(-1, values.shape[-1])
    rows, j = np.arange(flat.shape[0]), flat.argmax(axis=1)
    shape = values.shape[:-1]
    return flat[rows, j].reshape(shape), at.reshape(flat.shape)[rows, j].reshape(shape)


def _row_max(row_best, pu, seed, p_d_max):
    """Per-row max over p_d for each p_u: a scan of DEFAULT_GRID values plus the
    row's seed, then _ZOOM_PASSES windows of len(_WINDOW) values centred on the
    row's incumbent, the first _ZOOM scan steps wide, each next _ZOOM times
    narrower; the incumbent moves only to a strictly better value.  pu and
    seed are (n, rows); the scans are built for as many points at a time as
    one kernel call takes.  Returns (values, p_d) per row."""
    n, rows = pu.shape
    value, pd = np.empty((n, rows)), np.empty((n, rows))
    step = max(1, _CALL_LIMIT // (rows * (DEFAULT_GRID + 1)))
    for i in range(0, n, step):
        b = slice(i, i + step)
        lin = np.array([np.linspace(0.0, d_max, DEFAULT_GRID) for d_max in p_d_max[b]])
        scan = np.concatenate(
            [np.broadcast_to(lin[:, None, :], (len(lin), rows, DEFAULT_GRID)), seed[b, :, None]],
            axis=2,
        )
        value[b], pd[b] = row_best(pu[b, :, None], scan, at=i)
    span = _ZOOM * (p_d_max / (DEFAULT_GRID - 1))  # divided first: _ZOOM * p_d_max can overflow
    for _ in range(_ZOOM_PASSES):
        window = np.clip(
            pd[..., None] + span[:, None, None] * (_WINDOW - 0.5), 0.0, p_d_max[:, None, None]
        )
        top, at = row_best(pu[..., None], window)
        better = top > value
        value = np.where(better, top, value)
        pd = np.where(better, at, pd)
        span = span / _ZOOM
    return value, pd


def _profile_max(row_best, pu, seed, p_u_max, p_d_max):
    """Maximize the objective over the box from rows pu seeded with p_d values.

    The max-min objective peaks on narrow curved ridges, where a 2-D grid
    ranks points by their distance to the ridge more than by their height,
    so rows are compared only after each is maximized over p_d (_row_max).
    The best row (the smallest p_u within _TIE_TOL) is zoomed in on along p_u
    with windows of len(_WINDOW) rows, each seeded where the rows seen so far
    put the ridge.  Returns (value, p_u, p_d).
    """
    value, pd = _row_max(row_best, pu, seed, p_d_max)
    i = np.argmax(value >= value.max(axis=1, keepdims=True) - _TIE_TOL, axis=1)[:, None]
    best = [np.take_along_axis(x, i, 1)[:, 0] for x in (value, pu, pd)]
    span = _ZOOM * (p_u_max / (DEFAULT_GRID - 1))
    for _ in range(_ZOOM_PASSES):
        order = np.argsort(pu, axis=1, kind="stable")
        rows = np.clip(best[1][:, None] + span[:, None] * (_WINDOW - 0.5), 0.0, p_u_max[:, None])
        seed = np.array([np.interp(r, u[o], d[o]) for r, u, d, o in zip(rows, pu, pd, order)])
        # a slope past the float range (huge p_d over close rows) interpolates to inf or NaN
        seed = np.clip(np.nan_to_num(seed, nan=0.0), 0.0, p_d_max[:, None])
        row_value, row_pd = _row_max(row_best, rows, seed, p_d_max)
        pu, pd = np.hstack([pu, rows]), np.hstack([pd, row_pd])
        i = np.argmax(row_value, axis=1)[:, None]
        top = [np.take_along_axis(x, i, 1)[:, 0] for x in (row_value, rows, row_pd)]
        better = top[0] > best[0]
        best = [np.where(better, now, was) for now, was in zip(top, best)]
        span = span / _ZOOM
    return best


def _max_min_search(rates, p_u_max, p_d_max, sic: SicMode):
    """Maximize min(r_u, r_d) over the power box [0, p_u_max] x [0, p_d_max].

    rates(b, pu, pd, receiver) -> (r_u, r_d) evaluates the points in slice b
    of the batch at power arrays whose leading axis runs over them; r_d is
    that of the treat-as-noise receiver or of the branch decoding the
    co-located uplink first, min(t1, t2 - r_u) (see _receive).

    Treat-as-noise: both SINRs are standard interference functions (Yates,
    IEEE JSAC 1995), so scaling (p_u, p_d) up raises both rates and the
    optimum lies on a budget edge, where _edge_optimum finds it exactly.

    SIC: as t3 <= t1, min(r_u, q(t1, t2 - r_u, t3)) is the larger of the
    treat-as-noise objective min(r_u, t3) and the decode-first one
    min(r_u, t1, t2 - r_u), which can peak inside the box.  _profile_max
    searches it from DEFAULT_GRID rows of p_u, each scanned at DEFAULT_GRID
    values of p_d, and from the best points of both budget edges scanned at
    DEFAULT_GRID**2 points; it replaces the treat-as-noise optimum only when
    better by over _TIE_TOL.  No call to rates evaluates more elements
    than the first row scan of one point (_CALL_LIMIT), so the edge scans and
    the first row scan go one point at a time and the rest in groups of
    points.  Returns (value, p_u, p_d), each an (n,) array.
    """
    def treat_as_noise(b, pu, pd):
        return rates(b, pu, pd, _TAN)

    best = _edge_optimum(lambda pu, pd: _in_chunks(treat_as_noise, pu, pd), p_u_max, p_d_max)
    if sic is _TAN:
        return best

    def decode_first(b, pu, pd):
        return np.minimum(*rates(b, pu, pd, _DECODE_FIRST))

    def row_best(pu, pd, at=0):  # each row's max over the last axis of pd, and its p_d
        return _in_chunks(lambda b, u, d: _best_of(decode_first(b, u, d), d), pu, pd, at)

    pu, seed = [], []
    for i, (u_max, d_max) in enumerate(zip(p_u_max, p_d_max)):
        b = slice(i, i + 1)
        edge_u = np.linspace(0.0, u_max, DEFAULT_GRID**2)
        edge_d = np.linspace(0.0, d_max, DEFAULT_GRID**2)
        best_u = edge_u[np.argmax(decode_first(b, edge_u[None, None], d_max[None, None, None]))]
        best_d = edge_d[np.argmax(decode_first(b, u_max[None, None, None], edge_d[None, None]))]
        pu.append(np.append(np.linspace(0.0, u_max, DEFAULT_GRID), [u_max, best_u]))
        seed.append(np.append(np.zeros(DEFAULT_GRID), [best_d, d_max]))  # scanned rows: no seed
    challenger = _profile_max(row_best, np.array(pu), np.array(seed), p_u_max, p_d_max)
    better = challenger[0] > best[0] + _TIE_TOL
    return tuple(np.where(better, c, b) for c, b in zip(challenger, best))


# ----------------------------------------------------------------------------
# dispatch


def compute_batch(scheme: SchemeId, points) -> list[RateResult]:
    """compute_scheme for one scheme at each of a sequence of operating
    points, all evaluated at once: half duplex as the kernels at every
    point's budgets, full duplex as one power search for the whole batch.

    Every result equals that of the point alone.
    """
    return _batch(*SCHEMES[scheme], points)


def compute_scheme(
    scheme: SchemeId, params, panels: int = DEFAULT_PANELS, grid: int = DEFAULT_GRID,
    full_power: bool = False,
) -> RateResult:
    """Evaluate one scheme end to end: compute_batch for one point.  C-RAN
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
    family, sic = SCHEMES[scheme]
    if full_power and sic is not None:
        k = _consts(family, sic, [params])[0]
        return _fd_result(family, k, sic, params.p_u_max, params.p_d_max)
    return compute_batch(scheme, [params])[0]
