"""Independent validators for the analytical rate expressions and the
full-duplex power optimum.

The C-RAN uplink spectral integrals are the large-system limit of a per-cell
log-determinant over a circulant channel matrix; building that matrix for a
finite ring of cells and evaluating the log-det directly checks the limit
without sharing any code with the closed form.  Cells wrap around (a ring
rather than a truncated line) so no border effects pollute the comparison
with the infinite-array formulas.

The full-duplex max-min power optimum is certified by branch and bound
(certified_max_min; monotonic optimization, H. Tuy, SIAM J. Optim. 2000, and
MAPEL, Qian, Zhang and Huang, IEEE TWC 2009).  A SIC mobile faces the
co-located uplink codeword at any carried rate up to the uplink capacity,
so its objective is the larger of the treat-as-noise one and min(r_u, t1,
t2/2).  Neither falls as both powers scale up, so every search covers only
the two upper budget edges, in cells of one nonzero side.  Each rate term is
monotone in each power, and the SIC term t2 is linear-fractional, so its
maximum over such a cell lies at one of its two ends; that bounds the
objective over any cell.  A cell is discarded once its bound is at most
CERTIFIED_EPS above the best point scored, so when none is left the true
maximum lies in [best, best + CERTIFIED_EPS].  exhaustive_power_opt scores a
single dense grid, with no refinement, for full-duplex single-cell processing
through the same single-cell form (_Form), in its unit of power.

Each oracle keeps formulas of its own rather than calling the rate kernels it
checks, so a fault in a kernel cannot hide in its own gate.  All three hold
every temporary to at most _BLOCK_ELEMENTS (8,192) values, 64 KiB: the ring
takes its elements in groups whose samples fit, the grid is evaluated in
blocks of rows, keeping only each row's maximum, and the branch and bound
takes its cells in groups small enough that even the circulant uplink's
samples of a group fit.
"""

import math
from collections import namedtuple

import numpy as np

from .rates import SicMode

__all__ = [
    "CERTIFIED_EPS",
    "DEFAULT_CELLS",
    "Certified",
    "certified_max_min",
    "circulant_uplink_rate",
    "circulant_uplink_rate_dense",
    "exhaustive_power_opt",
]

DEFAULT_CELLS = 512
_MIN_CELLS = 8
_DENSE_CELL_CAP = 64  # O(n^3) second-layer check stays small
_TIE_TOL = 1e-9
# elements per oracle temporary: 64 KiB, below glibc's 128 KiB mmap threshold
# and within a core's L2 cache
_BLOCK_ELEMENTS = 8192
# the certificate: the true maximum lies within this of the best point found
CERTIFIED_EPS = 1e-6
# most cells bounded for one point, 20 times fig2's and fig3's most.  Far
# above the noise the objective depends on the power ratio alone, so its
# near-optimal set runs along a ray, which cells of the box cover only by
# the billion at budgets of thousands of dB; eps widens there instead
_MAX_CELLS = 1 << 16
# where _quarters cuts a cell, as fractions of its nonzero side from its lower end
_QUARTER_CUTS = np.array([[0.0], [0.25], [0.5], [0.75]])
# ring cells times acosh(1/(2 alpha)): the ring then misses the infinite
# array's uplink rate by about e**-21, below 1e-9
_RING_DEPTH = 21.0


def circulant_uplink_rate(alpha, p_u, sigma_u_sq, n: int = DEFAULT_CELLS):
    """Per-cell uplink rate of a finite ring of n cells.

    Evaluates (1/n) log2 det(I + p_u/(1 + sigma_u_sq) H H^T) through the
    circulant eigenvalues 1 + 2 alpha cos(2 pi j / n), in _log2_1p's form,
    which holds up to the top of the float range; as n grows this converges
    to the unit-interval spectral integral.  alpha, p_u and sigma_u_sq
    broadcast against each other: floats give a float, arrays an array of
    their broadcast shape.  The elements are evaluated in groups of
    max(1, _BLOCK_ELEMENTS // n), each the mean of its n samples, so the
    samples of a group fit one temporary however many elements there are.
    """
    if n < _MIN_CELLS:
        raise ValueError(f"need at least {_MIN_CELLS} cells, got {n}")
    alpha, p_u, sigma_u_sq = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (alpha, p_u, sigma_u_sq))
    )
    if (p_u < 0).any() or (sigma_u_sq < 0).any():
        raise ValueError("p_u and sigma_u_sq must be >= 0")
    cosines = np.cos(2.0 * np.pi * np.arange(n) / n)
    two_alpha, s = (2.0 * alpha).ravel(), (p_u / (1.0 + sigma_u_sq)).ravel()
    rate = np.empty(s.size)
    step = max(1, _BLOCK_ELEMENTS // n)
    for at in range(0, s.size, step):
        lam = 1.0 + two_alpha[at : at + step, None] * cosines
        rate[at : at + step] = np.mean(_log2_1p(s[at : at + step, None], lam * lam), axis=-1)
    return float(rate[0]) if alpha.ndim == 0 else rate.reshape(alpha.shape)


def _log2_1p(s, lam2):
    """log2(1 + s lam2) for SINR scales s >= 0 and squared eigenvalues lam2,
    broadcast; where s lam2 passes the float range, as log2 s + log2(1/s + lam2)."""
    with np.errstate(over="ignore"):
        x = s * lam2
    samples = np.log2(1.0 + x)
    big = np.isinf(x)
    if big.any():
        s_big, lam2_big = (y[big] for y in np.broadcast_arrays(s, lam2))
        samples[big] = np.log2(s_big) + np.log2(1.0 / s_big + lam2_big)
    return samples


def circulant_uplink_rate_dense(
    alpha: float, p_u: float, sigma_u_sq: float, n: int
) -> float:
    """Same rate from an explicit dense log-det (second-layer check, 8 <= n <= 64)."""
    if n < _MIN_CELLS:
        raise ValueError(f"need at least {_MIN_CELLS} cells, got {n}")
    if n > _DENSE_CELL_CAP:
        raise ValueError(f"dense check limited to n <= {_DENSE_CELL_CAP}, got {n}")
    # the Wyner ring: 1 on the diagonal, alpha to each neighbor, wrapping around
    eye = np.eye(n)
    h = eye + alpha * (np.roll(eye, 1, axis=1) + np.roll(eye, -1, axis=1))
    b = eye + (p_u / (1.0 + sigma_u_sq)) * (h @ h.T)
    sign, logdet = np.linalg.slogdet(b)
    if sign <= 0:
        raise ValueError("log-det argument is not positive definite")
    return float(logdet / (n * math.log(2.0)))


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
    cols, ring, _ = _constants("scp", [params])
    k, samples = _terms(cols, ring, np.zeros(1, dtype=int))

    def value(pu, pd):  # powers as the budgets give them, scored in _form's unit
        return _value(sic, k, samples, pu * k.unit, pd * k.unit)

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
#   r_u = min(sum_j weight_j log2(1 + s lam_j^2), cap_u),
#         s = p_u / (unit + quant 2**-shift (base + f p_u + h p_d)),
#   t1 = C(a p_d / den), t2 = C((a p_d + g p_u) / den), t3 = C(a p_d / (den + g p_u)),
#         den = unit + b p_d + c p_u,
#   r_d = t3 (treat as noise) or max(t3, min(t1, t2/2)) (SIC), capped at cap_d,
# and the objective min(r_u, r_d), every power in the point's unit of power
# (_form), in which the noise power is unit.  Single-cell processing decodes
# each cell alone (one eigenvalue, lam = 1, base = 0, quant = 1, shift = 0)
# under the fronthaul caps c_u and c_d.  C-RAN decodes the ring jointly
# (lam_j = 1 + 2 alpha cos(2 pi j / n)) after quantization at sigma_u^2 =
# (1 + (1 + 2 alpha^2) p_u + 2 beta_du^2 (1 + R_g(2)) p_d) / (2**c_u - 1)
# (base = unit, quant 2**-shift = 1 / (2**c_u - 1)), and precodes with zero
# forcing at stream power p_d (1 - 2**-c_d) and quantization noise
# p_d 2**-c_d.  A SIC mobile facing the uplink codeword at a carried rate
# R <= r_u gets max(t3, min(t1, t2 - R)) (treating it as noise, or decoding
# jointly without having to decode it), and min(R, that) is largest at
# max(min(r_u, t3), min(r_u, t1, t2/2)): the SIC r_d above, in min(r_u, r_d).

_Form = namedtuple("_Form", "two_alpha quant base f h cap_u a b c g cap_d unit shift")

# a point's certificate: its maximum lies in [r_eq, r_eq + eps], found after
# bounding the objective over that many cells
Certified = namedtuple("Certified", "r_eq eps cells")


def _form(family: str, p) -> _Form:
    """One point's _Form constants, its powers in units of 2**-k: k = 0
    unless the form's largest gain times the larger budget passes 2**1016;
    then k brings that product down to 2**1016, so that no product or sum of
    the form overflows a float, while every SINR stays as it is."""
    a2, du, ud, g2 = p.alpha**2, 2.0 * p.beta_du**2, 2.0 * p.beta_ud**2, p.gamma_ud**2
    if family == "scp":
        k = _Form(0.0, 1.0, 0.0, 2.0 * a2, du, p.c_u, 1.0, 2.0 * a2, ud, g2, p.c_d, 1.0, 0)
    else:
        # zero forcing's h~_0^2 = (1 - 4 alpha^2)^(3/2) and R_g(2) = r^2 (1 + 2d),
        # d = sqrt(1 - 4 alpha^2), r = (1 - d) / (2 alpha) = 2 alpha / (1 + d)
        d = math.sqrt(1.0 - 4.0 * a2)
        r = 2.0 * p.alpha / (1.0 + d)
        h0sq, rg2 = d * d * d, r * r * (1.0 + 2.0 * d)
        # 1 / (2**c_u - 1) = quant 2**-shift, inf at c_u = 0, where the
        # quantizer passes nothing; shift keeps quant from underflowing
        shift, c = min(max(math.floor(p.c_u) - 1000, 0), 1100), p.c_u
        quant = math.inf if c <= 0.0 else 2.0 ** (shift - c) / -math.expm1(-c * math.log(2.0))
        q_d = 2.0**-p.c_d
        k = _Form(
            2.0 * p.alpha, quant, 1.0, 1.0 + 2.0 * a2, du * (1.0 + rg2), math.inf,
            (1.0 - q_d) * h0sq, q_d * (1.0 + 2.0 * a2), ud, g2, math.inf, 1.0, shift,
        )
    gain = max(1.0, k.f, k.h, k.a, k.b, k.c, k.g)
    e = math.frexp(gain)[1] + math.frexp(max(p.p_u_max, p.p_d_max))[1] - 1016
    unit = math.ldexp(1.0, -max(e, 0))
    return k._replace(base=k.base * unit, unit=unit)


def _ring(family: str, points):
    """(ring, error per point) of the uplink, ring being (cosines, weights):
    for single-cell processing, which decodes each cell alone, one cosine
    of weight 1, whose eigenvalue is 1 as _form sets two_alpha = 0.

    For C-RAN an n-cell ring samples the infinite array's rate integrand at
    n points; its error falls as e**(-n acosh(1/(2 alpha))), so n =
    _RING_DEPTH / acosh(1/(2 alpha)) for the largest alpha of the points,
    capped at DEFAULT_CELLS, where the error is then returned for each point
    it exceeds e**-_RING_DEPTH.  The eigenvalues 1 + 2 alpha cos(2 pi j / n)
    come in pairs j, n - j, so only j <= n/2 are kept, weighted by their
    count / n.
    """
    if family == "scp":
        return (np.ones(1), np.ones(1)), [0.0] * len(points)
    decay = [math.acosh(0.5 / p.alpha) if p.alpha > 0.0 else math.inf for p in points]
    n = min(DEFAULT_CELLS, max(_MIN_CELLS, math.ceil(_RING_DEPTH / min(decay))))
    j = np.arange(n // 2 + 1)
    weights = np.where((j == 0) | (2 * j == n), 1.0, 2.0) / n
    errors = [math.exp(-n * x) if n * x < _RING_DEPTH else 0.0 for x in decay]
    return (np.cos(2.0 * np.pi * j / n), weights), errors


def _constants(family: str, points):
    """(columns, ring, ring error per point): each _Form constant as an array
    over the points, and the ring as _ring gives it."""
    cols = [np.array(col) for col in zip(*(_form(family, p) for p in points))]
    return (cols, *_ring(family, points))


def _terms(cols, ring, row):
    """(k, samples) at the points row, an index array: their _Form
    constants, and their ring's (lam_j^2, weights)."""
    k = _Form(*(col[row] for col in cols))
    lam = 1.0 + k.two_alpha[:, None] * ring[0]
    return k, (lam * lam, ring[1])


def _uplink(k, ring, pu, pd):
    """r_u at powers whose last axis runs over k's points, ring their samples
    from _terms."""
    s = pu / (k.unit + np.ldexp(k.quant * (k.base + k.f * pu + k.h * pd), -k.shift))
    lam2, weights = ring
    return np.minimum((_log2_1p(s[..., None], lam2) * weights).sum(axis=-1), k.cap_u)


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


def _value(sic, k, ring, pu, pd):
    """The objective at the points (pu, pd)."""
    t2 = _t2(k, pu, pd) if sic is SicMode.SIC else None
    return _max_min(sic, k, _uplink(k, ring, pu, pd), pu, pd, t2)


def _bound(sic, k, ring, u0, u1, d0, d1):
    """An upper bound of the objective over each cell [u0, u1] x [d0, d1], a
    segment of a budget edge: r_u rises in p_u and falls in p_d, t1 and t3
    the other way round, and t2, of a linear-fractional SINR, peaks at an
    end, (u0, d0) or (u1, d1)."""
    t2 = None
    if sic is SicMode.SIC:
        t2 = np.maximum(_t2(k, u0, d0), _t2(k, u1, d1))
    return _max_min(sic, k, _uplink(k, ring, u1, d0), u0, d1, t2)


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
    each of a sequence of operating points, all searched at once.

    Each point starts from its two upper budget edges, the zero-width cells
    {p_u_max} x [0, p_d_max] and [0, p_u_max] x {p_d_max}: scaling both
    powers up lowers neither receiver's objective (each SINR is a standard
    interference function, Yates, IEEE JSAC 1995), so its maximum over the
    box lies on them.  Each point's three upper budget corners and its
    argmax from argmaxes, a (p_u, p_d) such as a solver's, are scored.  Every
    round, each cell whose bound (_bound) exceeds its point's best score by
    more than eps is cut in four (_quarters), and each new cell's top end and
    centre are scored.  A round's scores prune cells from the next round on,
    so a point gets the same result in any batch.  When no cell is left, the
    point's maximum lies in [r_eq, r_eq + eps]: eps is CERTIFIED_EPS plus,
    for C-RAN at an alpha so close to 1/2 that the ring reaches DEFAULT_CELLS,
    the ring's error (_ring), or, for a point whose next round would take it
    past _MAX_CELLS cells, the largest bound of its cells left, which ends
    its search.  The edges are scanned in the point's unit of power (_form),
    so no budget overflows a form.  Cells are cut in groups small enough that
    no temporary, the ring's samples included, holds more than
    _BLOCK_ELEMENTS values.  Returns one Certified(r_eq, eps, cells) per
    point, cells counting the bounds evaluated.
    """
    n = len(points)
    cols, ring, ring_error = _constants(family, points)
    eps = CERTIFIED_EPS + np.array(ring_error)
    # a group of cells is scored at four times as many quarters, at two points each
    size = max(1, _BLOCK_ELEMENTS // (8 * ring[0].size))
    unit = _Form(*cols).unit  # the scan runs in each point's unit of power (_form)
    u_max = np.array([p.p_u_max for p in points]) * unit
    d_max = np.array([p.p_d_max for p in points]) * unit
    arg_u, arg_d = (np.array(x, dtype=float) * unit for x in zip(*argmaxes))

    best = np.full(n, -np.inf)
    cells = np.full(n, 2, dtype=np.int64)  # each point's two edges
    bounded = []  # (cells, their bounds), each cell to be kept or discarded
    for at in range(0, n, size):
        row = np.arange(at, min(n, at + size))
        k, samples = _terms(cols, ring, row)
        u, d, zero = u_max[row], d_max[row], np.zeros(row.size)
        for pu, pd in ((u, zero), (zero, d), (u, d), (arg_u[row], arg_d[row])):
            np.fmax.at(best, row, _value(sic, k, samples, pu, pd))
        for edge in ((u, u, zero, d), (zero, u, d, d)):
            bounded.append(((row, *edge), _bound(sic, k, samples, *edge)))
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
            k, samples = _terms(cols, ring, row)
            # each quarter's centre and top end: (2, quarters) points
            centre_and_top = _value(
                sic, k, samples, np.stack([u0 + 0.5 * (u1 - u0), u1]),
                np.stack([d0 + 0.5 * (d1 - d0), d1]),
            )
            np.fmax.at(scored, row, centre_and_top.max(axis=0))
            bounded.append((quarter, _bound(sic, k, samples, u0, u1, d0, d1)))
        best = scored
    return [Certified(float(b), float(e), int(c)) for b, e, c in zip(best, eps, cells)]
