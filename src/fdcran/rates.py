"""Per-cell rate calculators for all six duplex/processing schemes.

The schemes are two processing families, single-cell processing (SCP) and
C-RAN, each with three receivers: half duplex, and full duplex treating the
co-located uplink signal as noise or cancelling it first (SIC).  Each family
has one uplink and one downlink rate kernel, (k, p_u, p_d[, r_u, receiver])
-> rate, where k holds an operating point's constants: plain floats for one
point, or (n, 1, 1) columns for a batch (_stacked).  The power search, the
reported rates at its argmax, the public scalar rate functions and half
duplex (the kernels with the other direction's power at 0) all call them.
C-RAN rates are exact: the uplink integral is rate_closed_form and the
zero-forcing precoder enters through zf_constants.  Only a precoder that a
caller passes in, other than the zero-forcing one for the point's alpha, is
sampled (_precoder_terms).  The oracles keep formulas of their own.

Half-duplex schemes split the band between directions at full power; the
equal rate follows from balancing f*R_u against (1-f)*R_d.  Full-duplex
schemes choose the operating powers (p_u, p_d) that maximize min(R_u, R_d):
exactly on the budget edges for treat-as-noise, plus a search of the
decode-first branch for SIC seeded by scans at one fixed resolution,
DEFAULT_GRID (see _max_min_search).  The search runs for a batch of operating
points at once (compute_fd_batch; fd_scp, fd_cran and compute_scheme are its
batch of one), and every point of a batch gets bit-for-bit the result it gets
alone.  Kernel calls are split along the batch axis so that none evaluates
more elements than the largest call of a one-point search, _CALL_LIMIT; the
DEFAULT_GRID**2 budget-edge scans and the first row scan therefore run one
point at a time.

C-RAN schemes model the fronthaul by quantization noise: uplink compression
at sigma_u^2 = (signal power at the radio unit) / (2**c_u - 1), downlink
precoding at stream power p_d * (1 - 2**-c_d) plus quantization noise
p_d * 2**-c_d, so the radio unit transmits exactly p_d.
"""

import math
from collections import namedtuple
from enum import Enum

import numpy as np

from .model import NumericDomainError, PowerAllocation, RateResult, SchemeId
from .spectral import (
    DEFAULT_PANELS,
    Precoder,
    _check_panels as _check_panel_count,
    h_tilde,
    rate_closed_form,
    rg,
    zf_constants,
)

__all__ = [
    "DEFAULT_GRID",
    "SCHEMES",
    "SicMode",
    "compute_fd_batch",
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
_K_MAX = 8  # truncation of sum_{k>0} h~_k^2 for custom precoders


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
        first = np.minimum(np.log2(1.0 + signal / den), np.log2(1.0 + (signal + g2pu) / den) - r_u)
        if receiver is _DECODE_FIRST:
            return first
    t3 = np.log2(1.0 + signal / (den + g2pu))
    return t3 if receiver is _TAN else np.maximum(first, t3)


def _scp_consts(p) -> tuple:
    return p.alpha**2, p.beta_du**2, p.beta_ud**2, p.gamma_ud**2, p.c_u, p.c_d


def _scp_uplink(k, p_u, p_d):
    a2, bdu2, _, _, c_u, _ = k
    return np.minimum(np.log2(1.0 + p_u / (1.0 + 2.0 * a2 * p_u + 2.0 * bdu2 * p_d)), c_u)


def _scp_downlink(k, p_u, p_d, r_u, receiver):
    a2, _, bud2, g2, _, c_d = k
    den = 1.0 + 2.0 * a2 * p_d + 2.0 * bud2 * p_u
    return np.minimum(_receive(p_d, den, g2 * p_u, r_u, receiver), c_d)


# quant = _per_unit_quantization(c_u), q_d = 2**-c_d, and (h0sq, hk_sum, rg2)
# from _precoder_terms, which an uplink alone does not need
_CranConsts = namedtuple("_CranConsts", "alpha a2 bdu2 bud2 g2 quant q_d h0sq hk_sum rg2")


def _cran_consts(p, terms=(0.0, 0.0, 0.0)) -> _CranConsts:
    squares = (p.alpha**2, p.beta_du**2, p.beta_ud**2, p.gamma_ud**2)
    return _CranConsts(p.alpha, *squares, _per_unit_quantization(p.c_u), 2.0**-p.c_d, *terms)


def _precoder_terms(alpha: float, precoder: Precoder | None = None) -> tuple:
    """(h~_0^2, sum_{k>0} h~_k^2, R_g(2)) over the channel of gain alpha: exact
    for the zero-forcing precoder of alpha (None, or one built for alpha),
    which nulls every off-center tap; else sampled, the tail truncated at
    k <= 8 (the inverse-filter taps decay geometrically)."""
    if precoder is None or (precoder.kind == "zero_forcing" and precoder.alpha == alpha):
        h0sq, rg2 = zf_constants(alpha)
        return h0sq, 0.0, rg2
    h0, *tail = (h_tilde(precoder, alpha, k) for k in range(_K_MAX + 1))
    return h0 * h0, sum(hk * hk for hk in tail), rg(precoder, 2)


def _per_unit_quantization(c: float) -> float:
    """1 / (2**c - 1), the uplink quantization noise per unit of power at the
    radio unit, for any capacity c >= 0: it falls to 0 as c grows without
    bound and is inf at c = 0, where the quantizer passes nothing."""
    if c <= 0.0:
        return math.inf
    return 2.0**-c / -math.expm1(-c * math.log(2.0))


def _sigma_u_sq(k, p_u, p_d):
    # the neighboring radio units' downlink signals are correlated at lag 2
    # through the shared precoder, hence (1 + R_g(2))
    _, a2, bdu2, _, _, quant, _, _, _, rg2 = k
    return (1.0 + (1.0 + 2.0 * a2) * p_u + 2.0 * bdu2 * (1.0 + rg2) * p_d) * quant


def _checked_sigma_u_sq(k, p_u: float, p_d: float, budgets: bool = True) -> float:
    """sigma_u^2 at the powers (p_u, p_d), the budgets unless budgets=False.
    It is inf at c_u = 0, where the quantizer passes nothing; inf at c_u > 0
    is an overflow, which would report a zero uplink rate where the model has
    a positive one, so it raises NumericDomainError."""
    sigma = _sigma_u_sq(k, p_u, p_d)
    if sigma == math.inf and k.quant < math.inf:
        at = "the budgets p_u_max={!r}, p_d_max={!r}" if budgets else "p_u={!r}, p_d={!r}"
        raise NumericDomainError("sigma_u_sq overflows a float at " + at.format(p_u, p_d))
    return sigma


def _fd_cran_consts(p, terms) -> _CranConsts:
    """A full-duplex point's C-RAN constants, its sigma_u^2 checked at the budgets."""
    k = _cran_consts(p, terms)
    _checked_sigma_u_sq(k, p.p_u_max, p.p_d_max)
    return k


def _cran_uplink(k, p_u, p_d):
    return rate_closed_form(p_u / (1.0 + _sigma_u_sq(k, p_u, p_d)), k[0])


def _downlink_powers(p_d, q_d):  # (stream power p_s, quantization noise sigma_d^2)
    return p_d * (1.0 - q_d), p_d * q_d


def _cran_downlink(k, p_u, p_d, r_u, receiver):
    _, a2, _, bud2, g2, _, q_d, h0sq, hk_sum, _ = k
    p_s, sigma_d = _downlink_powers(p_d, q_d)
    # hk_sum first: a zero tail times an overflowed p_s stays 0, not NaN
    den = 1.0 + 2.0 * hk_sum * p_s + sigma_d * (1.0 + 2.0 * a2) + 2.0 * bud2 * p_u
    return _receive(p_s * h0sq, den, g2 * p_u, r_u, receiver)


def _kernels(family: str):
    """(uplink, downlink) kernels of a processing family."""
    return (_scp_uplink, _scp_downlink) if family == "scp" else (_cran_uplink, _cran_downlink)


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


def _check_panels(precoder: Precoder, panels: int | None) -> None:
    if panels is not None and panels != precoder.panels:
        raise ValueError(f"precoder is sampled at {precoder.panels} panels, got panels={panels}")


def _finite(name: str, rate) -> float:
    """A reported rate as a float; NaN or inf (an overflowed power) raises."""
    rate = float(rate)
    if not math.isfinite(rate):
        raise NumericDomainError(f"{name} is {rate!r}: the operating point overflows a float")
    return rate


# ----------------------------------------------------------------------------
# half duplex: the full-duplex kernels with the other direction's power at 0


def _hd_result(r_u: float, r_d: float, diag: dict) -> RateResult:
    r_eq, f_star = equal_rate_split(r_u, r_d)
    if f_star is not None:
        diag["f_star"] = f_star
    return RateResult(r_u, r_d, r_eq, diag)


def hd_scp(params) -> RateResult:
    """Half-duplex single-cell processing.

    Each direction treats inter-cell interference as noise and is capped by
    its fronthaul: R = min{C(P / (1 + 2 alpha^2 P)), c}.  Full power loses
    nothing here, and the time split gives r_eq = r_u*r_d/(r_u + r_d).
    """
    k = _scp_consts(params)
    r_u = float(_scp_uplink(k, params.p_u_max, 0.0))
    r_d = float(_scp_downlink(k, 0.0, params.p_d_max, 0.0, _TAN))
    return _hd_result(r_u, r_d, {})


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
    return _finite("r_u", _cran_uplink(k, params.p_u_max, 0.0)), sigma


def _hd_cran_downlink(params, terms) -> tuple[float, float, float]:
    k = _cran_consts(params, terms)
    rate = float(_cran_downlink(k, 0.0, params.p_d_max, 0.0, _TAN))
    p_s, sigma = _downlink_powers(params.p_d_max, k.q_d)
    return rate, sigma, p_s


def hd_cran_downlink(
    params, precoder: Precoder, panels: int | None = None
) -> tuple[float, float, float]:
    """Downlink rate with central-unit precoding and fronthaul quantization.

    Stream power p_s = P_d (1 - 2**-c_d) and quantization noise
    sigma_d^2 = P_d 2**-c_d keep the radio unit at exactly P_d.  The rate is
    C(p_s h~_0^2 / (1 + 2 p_s sum_{k>0} h~_k^2 + sigma_d^2 (1 + 2 alpha^2))),
    exact for the zero-forcing precoder of params.alpha at any sampling;
    panels, if given, must match it.  Returns (rate, sigma_d_sq, p_s).
    """
    _check_panels(precoder, panels)
    return _hd_cran_downlink(params, _precoder_terms(params.alpha, precoder))


def _hd_cran(params, terms, panels: int) -> RateResult:
    r_u, sigma_u = hd_cran_uplink(params, panels)
    r_d, sigma_d, p_s = _hd_cran_downlink(params, terms)
    return _hd_result(r_u, r_d, {"sigma_u_sq": sigma_u, "sigma_d_sq": sigma_d, "p_s": p_s})


def hd_cran(params, precoder: Precoder, panels: int = DEFAULT_PANELS) -> RateResult:
    """Half-duplex C-RAN: both directions combined through the time split;
    panels must match the precoder's sampling."""
    _check_panels(precoder, panels)
    return _hd_cran(params, _precoder_terms(params.alpha, precoder), panels)


# ----------------------------------------------------------------------------
# full duplex


def fd_scp_uplink_rate(params, p_u: float, p_d: float) -> float:
    """Uplink SCP rate at operating powers: inter-cell and downlink-to-uplink
    interference are treated as noise, then the fronthaul cap applies."""
    _check_powers(params, p_u, p_d)
    return float(_scp_uplink(_scp_consts(params), p_u, p_d))


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
    return float(_scp_downlink(_scp_consts(params), p_u, p_d, r_u, sic))


def fd_scp(params, sic: SicMode = SicMode.TREAT_AS_NOISE) -> RateResult:
    """Full-duplex single-cell processing: max-min over operating powers.

    Unlike half duplex, backing off from full power can help (the two
    directions interfere), so the equal rate is the max over (p_u, p_d) of
    min{R_u, R_d}, found by _max_min_search.
    """
    return _fd_batch("scp", [_scp_consts(params)], [params], sic)[0]


def fd_cran_uplink(
    params, powers: PowerAllocation, precoder: Precoder, panels: int = DEFAULT_PANELS
) -> tuple[float, float]:
    """Full-duplex C-RAN uplink at given operating powers.

    The downlink-to-uplink interference raises the quantization noise through
    its received power 2 beta_du^2 (1 + R_g(2)) p_d, but the central unit
    knows the downlink signals and subtracts them after decompression, so
    only sigma_u^2 reaches the decoder.  panels must be a valid panel count but
    changes nothing.  Returns (rate, sigma_u_sq); c_u = 0 gives sigma_u_sq =
    inf and rate 0, and a sigma_u_sq that overflows a float at c_u > 0 raises
    NumericDomainError.
    """
    _check_powers(params, powers.p_u, powers.p_d, budgets=True)
    _check_panel_count(panels)
    k = _cran_consts(params, _precoder_terms(params.alpha, precoder))
    sigma = _checked_sigma_u_sq(k, powers.p_u, powers.p_d, budgets=False)
    return _finite("r_u", _cran_uplink(k, powers.p_u, powers.p_d)), sigma


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
    already enters through the quantization noise.  panels, if given, must
    match the precoder's sampling.
    """
    _check_powers(params, powers.p_u, powers.p_d, budgets=True)
    _check_panels(precoder, panels)
    r_u = _carried_uplink(sic, r_u)
    k = _cran_consts(params, _precoder_terms(params.alpha, precoder))
    return float(_cran_downlink(k, powers.p_u, powers.p_d, r_u, sic))


def fd_cran(
    params, precoder: Precoder, sic: SicMode = SicMode.TREAT_AS_NOISE, panels: int = DEFAULT_PANELS,
) -> RateResult:
    """Full-duplex C-RAN equal rate: max-min over operating powers, found by
    _max_min_search.  panels must be a valid panel count but changes nothing."""
    _check_panel_count(panels)
    k = _fd_cran_consts(params, _precoder_terms(params.alpha, precoder))
    return _fd_batch("cran", [k], [params], sic)[0]


def _stacked(rows):
    """Per-point constants, one row per point, as a function of a slice b of
    the points: one (n, 1, 1) column per quantity, broadcasting against power
    arrays of shape (n, ...), or for a single point its plain floats, which
    numpy combines with arrays at less cost and to the same values."""
    columns = np.array(rows, dtype=float).T[..., None, None]

    def of(b: slice):
        return rows[b.start] if b.stop - b.start == 1 else columns[:, b]

    return of


def _fd_batch(family: str, consts, points, sic: SicMode) -> list:
    """One power search for the points of a batch, consts holding each point's
    kernel constants, and each point's result (_fd_result) at its argmax."""
    uplink, downlink = _kernels(family)
    of = _stacked(consts)

    def rates(b, pu, pd, receiver):
        k = of(b)
        r_u = uplink(k, pu, pd)
        return r_u, downlink(k, pu, pd, r_u, receiver)

    _, p_u, p_d = _max_min_search(rates, *_budgets(points), sic)
    return [_fd_result(family, k, sic, *at) for k, *at in zip(consts, p_u.tolist(), p_d.tolist())]


def _fd_result(family: str, k, sic: SicMode, p_u: float, p_d: float) -> RateResult:
    """A full-duplex scheme's rates and diagnostics at (p_u, p_d)."""
    uplink, downlink = _kernels(family)
    r_u = _finite("r_u", uplink(k, p_u, p_d))
    r_d = _finite("r_d", downlink(k, p_u, p_d, r_u, sic))
    diag = {"p_u_star": p_u, "p_d_star": p_d}
    if family == "cran":
        p_s, sigma_d = _downlink_powers(p_d, k.q_d)
        diag.update(sigma_u_sq=_sigma_u_sq(k, p_u, p_d), sigma_d_sq=sigma_d, p_s=p_s)
    return RateResult(r_u, r_d, min(r_u, r_d), diag)


# ----------------------------------------------------------------------------
# power search
#
# Every function below works on a batch of n operating points: budgets are
# (n,) arrays, and so is each returned value and power.


def _budgets(points) -> tuple[np.ndarray, np.ndarray]:
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


def _fd_consts(family: str, points) -> list:
    """Kernel constants of each point, C-RAN with the exact zero-forcing terms."""
    if family == "scp":
        return [_scp_consts(p) for p in points]
    return [_fd_cran_consts(p, _precoder_terms(p.alpha)) for p in points]


def compute_fd_batch(scheme: SchemeId, points) -> list[RateResult]:
    """compute_scheme for one full-duplex scheme at each of a sequence of
    operating points, with one power search for the whole batch.

    Every result equals that of the point alone.
    """
    family, sic = SCHEMES[scheme]
    if sic is None:
        raise ValueError(f"{scheme.value} is not a full-duplex scheme")
    return _fd_batch(family, _fd_consts(family, points), points, sic)


def compute_scheme(
    scheme: SchemeId, params, panels: int = DEFAULT_PANELS, grid: int = DEFAULT_GRID,
    full_power: bool = False,
) -> RateResult:
    """Evaluate one scheme end to end.  C-RAN schemes take the zero-forcing
    precoder through its exact constants (zf_constants) and the uplink
    integral in closed form, so panels, still checked to be a valid panel
    count, changes no result.  Nor does grid, checked to be an integer >= 2:
    the SIC search always scans at DEFAULT_GRID.

    full_power=True evaluates a full-duplex scheme at its budgets
    (P_u, P_d) instead of searching; half-duplex schemes always spend them.
    """
    _check_panel_count(panels)
    if not isinstance(grid, int) or grid < 2:
        raise ValueError(f"grid resolution must be an integer >= 2, got {grid!r}")
    family, sic = SCHEMES[scheme]
    if sic is None:
        if family == "scp":
            return hd_scp(params)
        return _hd_cran(params, _precoder_terms(params.alpha), panels)
    if full_power:
        k = _fd_consts(family, [params])[0]
        return _fd_result(family, k, sic, params.p_u_max, params.p_d_max)
    return compute_fd_batch(scheme, [params])[0]
