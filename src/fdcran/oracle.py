"""Independent validators for the analytical rate expressions and the
full-duplex power optimum.

The C-RAN uplink spectral integrals are the large-system limit of a per-cell
log-determinant over a circulant channel matrix; the log-det of a finite
ring of cells, through the circulant's eigenvalues, checks the limit
without sharing any code with the closed form.  Cells wrap around (a ring
rather than a truncated line) so no border effects pollute the comparison
with the infinite-array formulas; _alias_term takes off the ring's exact
aliasing where DEFAULT_CELLS cells fall short.  One sampler, _half_ring,
gives every ring: the circulant uplink check's, the certified oracle's
uplink ring, and the ring on which the oracle takes zero forcing's h~_0^2
and R_g(2) (_zero_forcing) instead of the closed forms the rate kernels use.

The full-duplex max-min power optimum is certified by branch and bound
(certified_max_min; monotonic optimization, H. Tuy, SIAM J. Optim. 2000, and
MAPEL, Qian, Zhang and Huang, IEEE TWC 2009).  A SIC mobile faces the
co-located uplink codeword at any carried rate up to the uplink capacity,
so its objective is the larger of the treat-as-noise one and min(r_u, t1,
t2/2).  Neither falls as both powers scale up, so every search covers only
the two upper budget edges, in cells of one nonzero side.  Each rate term is
monotone in each power, and the SIC term t2 is linear-fractional, so its
maximum over such a cell lies at one of its two ends; that bounds the
objective over any cell.  Each new cell is rated once, at three points, on
the ring its point's own alpha sizes, and those ratings both score it and
bound it.  A cell is discarded once its bound is at most CERTIFIED_EPS
above the best point scored, so when none is left the true maximum lies in
[best, best + CERTIFIED_EPS].  exhaustive_power_opt scores a single dense
grid, with no refinement, for full-duplex single-cell processing through
the same single-cell form (_Form), in its unit of power.

Each oracle keeps formulas of its own rather than calling the rate kernels it
checks, so a fault in a kernel cannot hide in its own gate.  All three hold
every temporary to at most _BLOCK_ELEMENTS (8,192) values, 64 KiB: every
ring, up to about 5e5 cells next to alpha = 1/2, comes from _half_ring in
blocks of at most that many frequencies, and one evaluator, _ring_rate,
rates points on it in groups whose samples of a block fit; the grid is
evaluated in blocks of rows, keeping only each row's maximum.
"""

import math
from collections import namedtuple
from functools import lru_cache

import numpy as np

from .rates import SicMode

__all__ = [
    "CERTIFIED_EPS",
    "DEFAULT_CELLS",
    "Certified",
    "certified_max_min",
    "circulant_uplink_rate",
    "exhaustive_power_opt",
    "sigma_u_sq",
]

DEFAULT_CELLS = 512
_MIN_CELLS = 8
_TIE_TOL = 1e-9
# elements per oracle temporary: 64 KiB, below glibc's 128 KiB mmap threshold
# and within a core's L2 cache
_BLOCK_ELEMENTS = 8192
# the certificate: the true maximum lies within this of the best point found
CERTIFIED_EPS = 1e-9
# most cells bounded for one point, about 885 times the 74 of fig2's and
# fig3's costliest point.  Far above the noise the objective depends on the
# power ratio alone, so its near-optimal set runs along a ray that box cells
# cover only by the billion at budgets of thousands of dB; eps widens there
_MAX_CELLS = 1 << 16
# where _quarters cuts a cell, as fractions of its nonzero side from its lower end
_QUARTER_CUTS = np.array([[0.0], [0.25], [0.5], [0.75]])
# ring cells times acosh(1/(2 alpha)): the ring then misses the infinite
# array's uplink rate by about e**-21, below 1e-9
_RING_DEPTH = 21.0


def circulant_uplink_rate(alpha, p_u, sigma_u_sq, n: int | None = None):
    """Per-cell uplink rate of a finite ring of n cells.

    Evaluates (1/n) log2 det(I + p_u/(1 + sigma_u_sq) H H^T) through the
    circulant eigenvalues 1 + 2 alpha cos(2 pi j / n), over _half_ring's
    n // 2 + 1 weighted samples, in _ring_rate's form, which holds up to the
    top of the float range.  n None gives the spectral integral: the
    DEFAULT_CELLS-cell ring less its exact aliasing (_alias_term).  alpha,
    p_u and sigma_u_sq broadcast against each other: floats give a float,
    arrays an array of their broadcast shape.  One _ring_rate call rates
    every element, no temporary of samples holding more than _BLOCK_ELEMENTS.
    """
    alpha, p_u, sigma_u_sq = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (alpha, p_u, sigma_u_sq))
    )
    cells, alias = (DEFAULT_CELLS, DEFAULT_CELLS) if n is None else (n, 0)
    if cells < _MIN_CELLS:
        raise ValueError(f"need at least {_MIN_CELLS} cells, got {cells}")
    if (p_u < 0).any() or (sigma_u_sq < 0).any():
        raise ValueError("p_u and sigma_u_sq must be >= 0")
    two_alpha, s = (2.0 * alpha).ravel(), (p_u / (1.0 + sigma_u_sq)).ravel()
    rate = _ring_rate(two_alpha, s, _half_ring(cells)) - _alias_term(alias, two_alpha, s)
    return float(rate[0]) if alpha.ndim == 0 else rate.reshape(alpha.shape)


def _depth(alpha: float) -> int:
    """Cells that bring the ring's error at alpha to about e**-_RING_DEPTH,
    ceil(_RING_DEPTH / acosh(1/(2 alpha))); 0 unless 0 < alpha < 1/2."""
    return math.ceil(_RING_DEPTH / math.acosh(0.5 / alpha)) if 0.0 < alpha < 0.5 else 0


def _half_ring(n: int):
    """(cos^2(pi j / n), weights) in blocks of at most _BLOCK_ELEMENTS
    frequencies j <= n/2 of an n-cell ring: the one place a ring is sampled.
    The eigenvalues 1 + 2 alpha cos(2 pi j / n) (_eigenvalues) come in pairs
    j, n - j, so only j <= n/2 are kept, weighted by their count / n; one
    cell (n = 1) is single-cell processing's lone eigenvalue."""
    count = n // 2 + 1
    for at in range(0, count, _BLOCK_ELEMENTS):
        j = np.arange(at, min(at + _BLOCK_ELEMENTS, count))
        weights = np.where((j == 0) | (2 * j == n), 1.0, 2.0) / n
        half = np.cos(np.pi * j / n)
        yield half * half, weights


def _eigenvalues(two_alpha, half):
    """1 + 2 alpha cos(2 pi j / n) from half = cos^2(pi j / n) (_half_ring),
    as (1 - 2 alpha) + 4 alpha half, which does not cancel near alpha = 1/2."""
    return (1.0 - two_alpha) + 2.0 * two_alpha * half


def _alias_term(n, two_alpha, s):
    """How far the n-cell ring's mean of log2(1 + s lam^2) lies above the
    integral, exactly: (4/n) log2|1 - w**-n|, the Fourier coefficients of
    log2(1 + s lam^2) = log2(alpha^2 s |z - w|^2 |z - 1/w|^2) on |z| = 1 that
    the ring aliases (Trefethen and Weideman, SIAM Review 2014); w + 1/w =
    2c, |w| > 1, for c = (-1 + i/sqrt(s)) / (2 alpha), the root of
    1 + i sqrt(s) lam.  c -+ 1 are formed as (-(1 +- 2 alpha) + i/sqrt(s)) /
    (2 alpha), which do not cancel next to alpha = 1/2, log|w| by log1p, and
    |1 - w**-n|^2 as expm1(-n log|w|)^2 + 4 |w|**-n sin^2(n arg(w) / 2).
    n, two_alpha and s broadcast; 0 where n, alpha or s is 0."""
    if not np.any(n):
        return 0.0
    # alpha or s below 1e-300 gives w**-n = 0, a zero term; n = 0 is left out last
    m, a, tt = np.maximum(n, 1), np.maximum(two_alpha, 1e-300), 1.0 / np.maximum(s, 1e-300)
    t = np.sqrt(tt)
    # 2 alpha sqrt(c -+ 1) = sqrt(-x + i t) = t / (2q) + i q, 2 q^2 = g = |x + i t| + x,
    # x = 1 +- 2 alpha; 2 alpha w = u - 1, u = 2 alpha sqrt(c - 1) sqrt(c + 1) + i t
    g1, g2 = (np.sqrt(x * x + tt) + x for x in (1.0 + a, 1.0 - a))
    r = np.sqrt(g1 * g2)
    re, im = 0.5 * (tt / r - r), t * (0.5 * (g1 + g2) / r + 1.0)
    decay = m * (np.log(a) - 0.5 * np.log1p(re * (re - 2.0) + im * im))  # -n log|w|
    turn = 0.5 * m * np.arctan2(im, re - 1.0)
    gap = np.expm1(decay) ** 2 + 4.0 * np.exp(decay) * np.sin(turn) ** 2
    return np.where(n > 0, (2.0 / m) * np.log2(gap), 0.0)


def _ring_rate(two_alpha, s, ring):
    """sum_j w_j log2(1 + s lam_j^2) over ring, _half_ring's blocks of
    (cos^2, weights), for SINR scales s >= 0 whose last axis runs over
    points whose lam_j come from two_alpha (_eigenvalues), one 2 alpha per
    point or one for all; log2 s + log2(1/s + lam^2) where s lam^2 passes
    the float range.  The points go in groups whose samples of a block fit
    _BLOCK_ELEMENTS values, their eigenvalues shared across s's leading
    axes, which must hold at most _BLOCK_ELEMENTS / (block size) rows.
    An array of s's shape, at least 1-d."""
    s = np.atleast_1d(s)
    count, per_point = s.shape[-1], np.ndim(two_alpha) > 0
    lead = max(1, s.size // max(count, 1))  # points of s's leading axes
    rate = None
    for half, weights in ring:
        size = _BLOCK_ELEMENTS // (lead * half.size)  # points per group
        sums = []
        for at in range(0, count or 1, size):  # an empty s: one empty group
            lam = _eigenvalues(two_alpha[at : at + size, None] if per_point else two_alpha, half)
            lam2, s_at = lam * lam, s[..., at : at + size, None]
            with np.errstate(over="ignore"):
                x = s_at * lam2
            samples = np.log2(1.0 + x)
            big = np.isinf(x)
            if big.any():
                s_big, lam2_big = (y[big] for y in np.broadcast_arrays(s_at, lam2))
                samples[big] = np.log2(s_big) + np.log2(1.0 / s_big + lam2_big)
            sums.append((samples * weights).sum(axis=-1))
        block = sums[0] if len(sums) == 1 else np.concatenate(sums, axis=-1)
        rate = block if rate is None else rate + block
    return rate


def exhaustive_power_opt(
    params, sic: SicMode, resolution: int = 512, candidate=None
) -> tuple[float, float, float]:
    """Brute-force max-min power optimization for full-duplex single-cell
    processing on one dense grid, no refinement.

    Every point is scored by the certified oracle's single-cell _Form
    (_value) in the form's unit of power (_form), so no product overflows a
    float.  candidate, a (p_u, p_d) such as a solver's reported argmax, is
    scored the same way and beats the grid by more than 1e-9: an optimum off
    the grid then agrees, a misreported rate still does not.  Ties within
    1e-9 of the maximum resolve to the smallest (p_u, p_d), the same rule the
    solver uses, so argmax comparisons are meaningful.  The grid is evaluated
    in blocks of max(1, _BLOCK_ELEMENTS // resolution) rows, keeping each
    row's maximum, and the winning row once more.  Returns (r_eq, p_u, p_d),
    the powers as params gives its budgets.
    """
    if resolution < 64:
        raise ValueError(f"resolution must be >= 64, got {resolution}")
    k = _form("scp", params)
    rings = {1: tuple(_half_ring(1))}

    def value(pu, pd):  # powers as the budgets give them, scored in _form's unit
        return _value(sic, k, rings, pu * k.unit, pd * k.unit)

    pu_grid = np.linspace(0.0, params.p_u_max, resolution)
    pd_grid = np.linspace(0.0, params.p_d_max, resolution)
    pd = pd_grid[None, :]
    step = max(1, _BLOCK_ELEMENTS // resolution)
    maxima = np.concatenate(
        [value(pu_grid[at : at + step, None], pd).max(axis=1) for at in range(0, resolution, step)]
    )
    vmax = float(maxima.max())
    if candidate is not None:
        off_grid = float(value(*candidate)[0])
        if off_grid > vmax + _TIE_TOL:
            return off_grid, float(candidate[0]), float(candidate[1])
    i = int(np.argmax(maxima >= vmax - _TIE_TOL))
    row = value(pu_grid[i : i + 1, None], pd)[0]
    j = int(np.argmax(row >= vmax - _TIE_TOL))
    return float(row[j]), float(pu_grid[i]), float(pd_grid[j])


# ----------------------------------------------------------------------------
# certified max-min by branch and bound
#
# Both processing families share one form of the objective, with per-point
# constants (_Form):
#   r_u = min(sum_j weight_j log2(1 + s lam_j^2) - aliasing, cap_u),
#         s = p_u / (unit + quant 2**-shift (base + f p_u + 2 h p_d)),
#   t1 = C(a p_d / den), t2 = C((a p_d + g p_u) / den), t3 = C(a p_d / (den + g p_u)),
#         den = unit + b p_d + c p_u,
#   r_d = t3 (treat as noise) or max(t3, min(t1, t2/2)) (SIC), capped at cap_d,
# and the objective min(r_u, r_d), every power in the point's unit of power
# (_form), in which the noise power is unit.  Single-cell processing decodes
# each cell alone (one eigenvalue, lam = 1, base = 0, quant = 1, shift = 0,
# h = beta_du^2) under the fronthaul caps c_u and c_d.  C-RAN decodes the
# ring jointly (lam_j = 1 + 2 alpha cos(2 pi j / n)) after quantization at
# sigma_u^2 = (1 + (1 + 2 alpha^2) p_u + 2 beta_du^2 (1 + R_g(2)) p_d) /
# (2**c_u - 1) (base = unit, h = beta_du^2 (1 + R_g(2)), half the gain and so
# finite for any beta_du, quant 2**-shift = 1 / (2**c_u - 1)), and precodes
# with zero forcing (h~_0^2 and R_g(2) from _zero_forcing's ring) at stream
# power p_d (1 - 2**-c_d) and quantization noise p_d 2**-c_d.  aliasing is
# that of an alias-cell ring (_alias_term), alias = DEFAULT_CELLS where the
# point's _depth passes the ring's cap, else 0.  The uplink ring has cells
# cells: one for single-cell processing; for C-RAN, whose ring samples the
# rate integrand at one point a cell, _depth of the point's alpha, at least
# _MIN_CELLS and at most DEFAULT_CELLS, so that a point without aliasing
# misses by about e**-_RING_DEPTH.  A SIC mobile facing
# the uplink codeword at a carried rate R <= r_u gets max(t3, min(t1, t2 -
# R)) (treating it as noise, or decoding jointly without having to decode
# it), and min(R, that) is largest at max(min(r_u, t3), min(r_u, t1, t2/2)):
# the SIC r_d above, in min(r_u, r_d).

_Form = namedtuple("_Form", "two_alpha quant base f h cap_u a b c g cap_d unit shift cells alias")

# a point's certificate: its maximum lies in [r_eq, r_eq + eps], found after
# bounding the objective over that many cells
Certified = namedtuple("Certified", "r_eq eps cells")


def _form(family: str, p) -> _Form:
    """One point's _Form constants, its powers in units of 2**-k: k = 0
    unless the form's largest gain times the larger budget passes 2**1016;
    then k brings that product down to 2**1016, so that no product or sum of
    the form overflows a float, while every SINR stays as it is."""
    a2, bdu2, ud, g2 = p.alpha**2, p.beta_du**2, 2.0 * p.beta_ud**2, p.gamma_ud**2
    if family == "scp":
        k = _Form(0.0, 1.0, 0.0, 2.0 * a2, bdu2, p.c_u, 1.0, 2.0 * a2, ud, g2, p.c_d, 1.0, 0, 1, 0)
    else:
        h0sq, rg2 = _zero_forcing(p.alpha)
        # 1 / (2**c_u - 1) = quant 2**-shift, inf at c_u = 0, where the
        # quantizer passes nothing; shift keeps quant from underflowing
        shift, c = min(max(math.floor(p.c_u) - 1000, 0), 1100), p.c_u
        quant = math.inf if c <= 0.0 else 2.0 ** (shift - c) / -math.expm1(-c * math.log(2.0))
        q_d, depth = 2.0**-p.c_d, _depth(p.alpha)
        k = _Form(
            2.0 * p.alpha, quant, 1.0, 1.0 + 2.0 * a2, bdu2 * (1.0 + rg2), math.inf,
            (1.0 - q_d) * h0sq, q_d * (1.0 + 2.0 * a2), ud, g2, math.inf, 1.0, shift,
            min(DEFAULT_CELLS, max(_MIN_CELLS, depth)),
            DEFAULT_CELLS if depth > DEFAULT_CELLS else 0,
        )
    gain = max(1.0, k.f, k.h, k.a, k.b, k.c, k.g)
    e = math.frexp(gain)[1] + math.frexp(max(p.p_u_max, p.p_d_max))[1] - 1016
    unit = math.ldexp(1.0, -max(e, 0))
    return k._replace(base=k.base * unit, unit=unit)


@lru_cache(maxsize=1024)  # a sweep's points mostly share alpha
def _zero_forcing(alpha: float) -> tuple[float, float]:
    """(h~_0^2, R_g(2)) of zero forcing W = c H^-1, unit energy, on an n-cell
    ring: h~_0^2 = 1 / mean_j lam_j^-2 and R_g(2) = mean_j(cos(4 pi j / n)
    lam_j^-2) / mean_j lam_j^-2.  Their aliasing falls as e**(-(n - 4) x), x =
    acosh(1/(2 alpha)) (lam_j^-2's coefficient at lag 2 + m n, scaled by the
    one at lag 2), so n = 45 / x + 4 cells leave it below 2**-53.  The ring
    is taken in _half_ring's blocks, each summed by fsum."""
    if alpha == 0.0:
        return 1.0, 0.0  # lam = 1: c = 1, and the ring's cos(4 pi j / n) sum to 0
    n = max(_MIN_CELLS, math.ceil(45.0 / math.acosh(0.5 / alpha)) + 4)
    sums = []
    for half, weights in _half_ring(n):
        w = weights / _eigenvalues(2.0 * alpha, half) ** 2
        # cos(4 pi j / n) = 1 - 2 sin^2(2 pi j / n) = 1 - 8 half (1 - half)
        sums.append((math.fsum(w), math.fsum(w * (1.0 - 8.0 * half * (1.0 - half)))))
    mean, lag2 = (math.fsum(x) for x in zip(*sums))
    return 1.0 / mean, lag2 / mean


def _columns(family: str, points) -> _Form:
    """Each _Form constant of the points as an array over them."""
    return _Form(*map(np.array, zip(*(_form(family, p) for p in points))))


def _sigma(k, pu, pd):
    """The uplink quantization noise quant 2**-shift (base + f p_u + 2 h p_d),
    powers and noise in the points' unit of power (_form)."""
    load = k.base + k.f * pu + 2.0 * (k.h * pd)
    return np.ldexp(k.quant * load, -k.shift)


def sigma_u_sq(points, p_u, p_d):
    """C-RAN's uplink quantization noise sigma_u^2 at each of a sequence of
    operating points, at its powers from the sequences p_u and p_d, by the
    oracle's own _form: an array, inf at c_u = 0, where the quantizer passes
    nothing."""
    k = _columns("cran", points)
    pu, pd = (np.asarray(x, dtype=float) * k.unit for x in (p_u, p_d))
    with np.errstate(over="ignore"):
        return _sigma(k, pu, pd) / k.unit


def _uplink(k, rings, pu, pd):
    """r_u at powers whose last axis runs over k's points, each on its own
    ring, rings[k.cells], less its aliasing where k.alias asks for it; one
    point's k (floats) takes the one ring in rings."""
    s = pu / (k.unit + _sigma(k, pu, pd))
    if len(rings) == 1:
        rate = _ring_rate(k.two_alpha, s, *rings.values())
    else:
        rate = np.empty(s.shape)
        for n, ring in rings.items():
            at = k.cells == n
            if at.any():
                rate[..., at] = _ring_rate(k.two_alpha[at], s[..., at], ring)
    return np.minimum(rate - _alias_term(k.alias, k.two_alpha, s), k.cap_u)


def _t2(k, pu, pd):
    """t2 = log2(1 + signal / den), its SINR linear-fractional in (p_u, p_d);
    where the SINR passes the float range (gamma_ud^2 p_u may), it is
    log2(den + signal) - log2(den)."""
    signal, den = k.a * pd + k.g * pu, k.unit + k.b * pd + k.c * pu
    with np.errstate(over="ignore"):
        t2 = np.log2(1.0 + signal / den)
    big = np.isinf(t2)
    return np.where(big, np.log2(den + signal) - np.log2(den), t2) if big.any() else t2


def _max_min(sic, k, r_hi, pu, pd, t2):
    """min(r_u, r_d) with r_u at most r_hi, t1 and t3 at (pu, pd), and t2
    given (unused when treating the uplink as noise)."""
    signal = k.a * pd
    den = k.unit + k.b * pd + k.c * pu
    r_d = np.log2(1.0 + signal / (den + k.g * pu))
    if sic is SicMode.SIC:
        t1 = np.log2(1.0 + signal / den)
        r_d = np.maximum(r_d, np.minimum(t1, t2 / 2.0))
    return np.minimum(r_hi, np.minimum(r_d, k.cap_d))


def _value(sic, k, rings, pu, pd):
    """The objective at the points (pu, pd)."""
    t2 = _t2(k, pu, pd) if sic is SicMode.SIC else None
    return _max_min(sic, k, _uplink(k, rings, pu, pd), pu, pd, t2)


def _bound(sic, k, r_u, t2, u0, d1):
    """An upper bound of the objective over each cell [u0, u1] x [d0, d1], a
    segment of a budget edge, from r_u at its corner (u1, d0) and t2 at its
    two ends, stacked: r_u rises in p_u and falls in p_d, t1 and t3 the other
    way round, and t2, of a linear-fractional SINR, peaks at an end."""
    return _max_min(sic, k, r_u, u0, d1, t2.max(axis=0))


def _quarters(row, u0, u1, d0, d1):
    """The four quarters of each cell, cut along its one nonzero side (the
    other, of zero width, stays as it is), a cell's lowest quarter first."""
    us, ds = (np.vstack([lo + _QUARTER_CUTS * (hi - lo), hi]) for lo, hi in ((u0, u1), (d0, d1)))
    return np.tile(row, 4), us[:-1].ravel(), us[1:].ravel(), ds[:-1].ravel(), ds[1:].ravel()


def _packed(parts, size: int):
    """The cells of parts, a sequence of (row, u0, u1, d0, d1) arrays,
    regrouped into groups of at most size cells."""
    pending, count = [], 0
    for part in parts:
        for at in range(0, part[0].size, size):
            piece = tuple(x[at : at + size] for x in part)
            if count + piece[0].size > size:
                yield tuple(np.concatenate(xs) for xs in zip(*pending))
                pending, count = [], 0
            pending.append(piece)
            count += piece[0].size
    if pending:
        yield tuple(np.concatenate(xs) for xs in zip(*pending))


def certified_max_min(family: str, sic: SicMode, points, argmaxes) -> list[Certified]:
    """Certified max over the power box of min(r_u, r_d) for full-duplex
    processing family ('scp' or 'cran', zero forcing) and receiver sic, at
    each of a sequence of operating points, all searched at once, each
    point's uplink on the ring its own alpha sizes (_Form's cells).

    Each point starts from its two upper budget edges, the zero-width cells
    {p_u_max} x [0, p_d_max] and [0, p_u_max] x {p_d_max}: scaling both
    powers up lowers neither receiver's objective (each SINR is a standard
    interference function, Yates, IEEE JSAC 1995), so its maximum over the
    box lies on them.  Each point's three upper budget corners and its
    argmax from argmaxes, a (p_u, p_d) such as a solver's, are scored, and
    the corners bound the two edges (_bound).  Every round, each cell whose
    bound exceeds its point's best score by more than eps is cut in four
    (_quarters), each rated once at three points, r_u at its centre, its top
    end and its corner (u1, d0) and t2 at its centre and both ends, which
    score its centre and top end and bound it.  A round's scores prune cells
    from the next round on, so a point gets the same result in any batch.
    When no cell is left, the point's maximum lies in [r_eq, r_eq + eps]:
    eps is CERTIFIED_EPS, or, for a point whose next round would take it past
    _MAX_CELLS cells, the largest bound of its cells left, which ends its
    search.  The edges are scanned in the point's unit of power (_form), so
    no budget overflows a form.  Cells are cut in groups of
    _BLOCK_ELEMENTS // 12, and _ring_rate groups the points it rates by the
    ring, so no temporary holds more than _BLOCK_ELEMENTS values.
    Returns one Certified(r_eq, eps, cells) per point, cells counting the
    bounds evaluated, and [] for no points.
    """
    n = len(points)
    if n == 0:
        return []
    cols = _columns(family, points)
    rings = {m: tuple(_half_ring(m)) for m in set(cols.cells.tolist())}
    eps = np.full(n, CERTIFIED_EPS)
    size = _BLOCK_ELEMENTS // 12  # a group of cells: four quarters a cell, three points each
    unit = cols.unit  # the scan runs in each point's unit of power (_form)
    u_max, d_max = (np.array(x) * unit for x in zip(*((p.p_u_max, p.p_d_max) for p in points)))
    arg_u, arg_d = (np.array(x, dtype=float) * unit for x in zip(*argmaxes))

    best = np.full(n, -np.inf)
    cells = np.full(n, 2, dtype=np.int64)  # each point's two edges
    bounded = []  # (cells, their bounds), each cell to be kept or discarded
    for at in range(0, n, size):
        row = np.arange(at, min(n, at + size))
        k = _Form(*(c[row] for c in cols))
        u, d, zero = u_max[row], d_max[row], np.zeros(row.size)
        # its three upper budget corners and its argmax: (4, points) points
        pu, pd = np.stack([u, zero, u, arg_u[row]]), np.stack([zero, d, d, arg_d[row]])
        r_u = _uplink(k, rings, pu, pd)
        t2 = _t2(k, pu, pd) if sic is SicMode.SIC else r_u  # read by SIC alone
        np.fmax.at(best, row, _max_min(sic, k, r_u, pu, pd, t2).max(axis=0))
        for edge, corner, ends in (((u, u, zero, d), 0, [0, 2]), ((zero, u, d, d), 2, [1, 2])):
            bounded.append(((row, *edge), _bound(sic, k, r_u[corner], t2[ends], edge[0], d)))
    while bounded:
        kept, quarters = [], np.zeros(n, dtype=np.int64)
        for cell, bound in bounded:
            row = cell[0]
            keep = bound > best[row] + eps[row]
            kept.append((cell, bound, keep))
            quarters += 4 * np.bincount(row[keep], minlength=n)
        # a point whose quarters would take it past _MAX_CELLS cells stops, its
        # eps widened to the largest bound of its cells left
        spent = cells + quarters > _MAX_CELLS
        if spent.any():
            top = np.full(n, -np.inf)
            for cell, bound, keep in kept:
                stop = keep & spent[cell[0]]
                np.fmax.at(top, cell[0][stop], bound[stop])
                keep &= ~stop
            eps = np.maximum(eps, top - best)
            quarters[spent] = 0
        cells += quarters
        live = [tuple(x[keep] for x in cell) for cell, _, keep in kept]
        bounded, scored = [], best.copy()
        for cell in _packed(live, size):
            quarter = _quarters(*cell)
            row, u0, u1, d0, d1 = quarter
            k = _Form(*(c[row] for c in cols))
            uc, pd = u0 + 0.5 * (u1 - u0), np.stack([d0 + 0.5 * (d1 - d0), d1, d0])
            r_u = _uplink(k, rings, np.stack([uc, u1, u1]), pd)
            t2 = _t2(k, np.stack([uc, u1, u0]), pd) if sic is SicMode.SIC else r_u
            centre_and_top = _max_min(sic, k, r_u[:2], np.stack([uc, u1]), pd[:2], t2[:2])
            np.fmax.at(scored, row, centre_and_top.max(axis=0))
            bounded.append((quarter, _bound(sic, k, r_u[2], t2[1:], u0, d1)))
        best = scored
    return [Certified(float(b), float(e), int(c)) for b, e, c in zip(best, eps, cells)]
