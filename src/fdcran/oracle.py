"""Independent brute-force validators for the analytical rate expressions.

The C-RAN uplink spectral integrals are the large-system limit of a per-cell
log-determinant over a circulant channel matrix; building that matrix for a
finite ring of cells and evaluating the log-det directly checks the limit
without sharing any code with the quadrature path.  Likewise the
full-duplex power solver is validated against a single dense grid with no
refinement.  Cells wrap around (a ring rather than a truncated line) so no
border effects pollute the comparison with the infinite-array formulas.

Each oracle keeps formulas of its own rather than calling the rate kernels it
checks, so a fault in a kernel cannot hide in its own gate.

The exhaustive grid is evaluated in blocks of rows of at most _BLOCK_ELEMENTS
(8,192) values, keeping only each row's maximum; the row that holds the
argmax is then evaluated once more.  Every temporary therefore holds at most
8,192 values (64 KiB), or one row where a row is longer, and the result is
bit for bit that of evaluating the whole grid as one array.  One pass over
the grid scores several downlink receivers at one operating point
(exhaustive_power_opts): each block computes the uplink rate, the downlink
denominator and the treat-as-noise rate once for all of them, under the same
block bound.
"""

import math
from dataclasses import dataclass

import numpy as np

from .rates import SicMode

__all__ = [
    "DEFAULT_CELLS",
    "CirculantChannel",
    "circulant_uplink_rate",
    "circulant_uplink_rate_dense",
    "exhaustive_power_opt",
    "exhaustive_power_opts",
]

DEFAULT_CELLS = 512
_MIN_CELLS = 8
_DENSE_CELL_CAP = 64  # O(n^3) second-layer check stays small
_TIE_TOL = 1e-9
# elements per block of the exhaustive grid: each temporary is 64 KiB, below
# glibc's 128 KiB mmap threshold and within a core's L2 cache
_BLOCK_ELEMENTS = 8192


@dataclass(frozen=True, eq=False)
class CirculantChannel:
    """Ring-of-cells channel matrix, stored by its first row.

    Row k is row 0 rotated right by k, so the matrix is fully determined by
    first_row.
    """

    n: int
    first_row: np.ndarray

    def __post_init__(self):
        if self.n < _MIN_CELLS:
            raise ValueError(f"need at least {_MIN_CELLS} cells, got {self.n}")
        row = np.asarray(self.first_row, dtype=float)
        if row.shape != (self.n,):
            raise ValueError(f"first_row must have shape ({self.n},)")
        object.__setattr__(self, "first_row", row)

    @classmethod
    def wyner(cls, alpha: float, n: int) -> "CirculantChannel":
        """Direct channel of the ring: 1 on the diagonal, alpha to each neighbor."""
        row = np.zeros(n)
        row[0] = 1.0
        row[1] = alpha
        row[-1] = alpha
        return cls(n=n, first_row=row)

    def matrix(self) -> np.ndarray:
        return np.array([np.roll(self.first_row, k) for k in range(self.n)])


def circulant_uplink_rate(
    alpha: float, p_u: float, sigma_u_sq: float, n: int = DEFAULT_CELLS
) -> float:
    """Per-cell uplink rate of a finite ring of n cells.

    Evaluates (1/n) log2 det(I + p_u/(1 + sigma_u_sq) H H^T) through the
    circulant eigenvalues 1 + 2 alpha cos(2 pi j / n); as n grows this
    converges to the unit-interval spectral integral.
    """
    if n < _MIN_CELLS:
        raise ValueError(f"need at least {_MIN_CELLS} cells, got {n}")
    if p_u < 0 or sigma_u_sq < 0:
        raise ValueError("p_u and sigma_u_sq must be >= 0")
    lam = 1.0 + 2.0 * alpha * np.cos(2.0 * np.pi * np.arange(n) / n)
    scale = p_u / (1.0 + sigma_u_sq)
    return float(np.mean(np.log2(1.0 + scale * lam * lam)))


def circulant_uplink_rate_dense(
    alpha: float, p_u: float, sigma_u_sq: float, n: int
) -> float:
    """Same rate from an explicit dense log-det (second-layer check, n <= 64)."""
    if n > _DENSE_CELL_CAP:
        raise ValueError(f"dense check limited to n <= {_DENSE_CELL_CAP}, got {n}")
    h = CirculantChannel.wyner(alpha, n).matrix()
    b = np.eye(n) + (p_u / (1.0 + sigma_u_sq)) * (h @ h.T)
    sign, logdet = np.linalg.slogdet(b)
    if sign <= 0:
        raise ValueError("log-det argument is not positive definite")
    return float(logdet / (n * math.log(2.0)))


def exhaustive_power_opt(
    params, sic: SicMode, resolution: int = 512, candidate=None
) -> tuple[float, float, float]:
    """Brute-force max-min power optimization for full-duplex single-cell
    processing on one dense grid, no refinement.

    candidate, a (p_u, p_d) such as a solver's reported argmax, is scored by
    the same formulas and beats the grid by more than 1e-9: an optimum off the
    grid then agrees, a misreported rate still does not.  Ties within 1e-9 of
    the maximum resolve to the smallest (p_u, p_d), the same rule the solver
    uses, so argmax comparisons are meaningful.  The grid is evaluated in
    blocks of max(1, _BLOCK_ELEMENTS // resolution) rows.  Returns
    (r_eq, p_u, p_d).  This is exhaustive_power_opts for one receiver.
    """
    return exhaustive_power_opts(params, ((sic, candidate),), resolution)[0]


def exhaustive_power_opts(
    params, receivers, resolution: int = 512
) -> list[tuple[float, float, float]]:
    """exhaustive_power_opt for several downlink receivers at one operating
    point, in one pass over the grid.

    receivers is a sequence of (sic, candidate) pairs; the result holds one
    (r_eq, p_u, p_d) per pair, in order, each bit for bit what
    exhaustive_power_opt returns for that pair.  Each block of at most
    _BLOCK_ELEMENTS values computes the uplink rate, the downlink denominator
    and the treat-as-noise rate once for every receiver; each receiver keeps
    its own row maxima, tie rule, candidate check and winning row, so every
    temporary still holds at most _BLOCK_ELEMENTS values, or one row where a
    row is longer.
    """
    if resolution < 64:
        raise ValueError(f"resolution must be >= 64, got {resolution}")
    a2 = params.alpha**2
    bdu2 = params.beta_du**2
    bud2 = params.beta_ud**2
    g2 = params.gamma_ud**2

    def shared(pu, pd):
        """(r_u, downlink denominator, treat-as-noise downlink rate)."""
        r_u = np.minimum(
            np.log2(1.0 + pu / (1.0 + 2.0 * a2 * pu + 2.0 * bdu2 * pd)), params.c_u
        )
        den = 1.0 + 2.0 * a2 * pd + 2.0 * bud2 * pu
        return r_u, den, np.log2(1.0 + pd / (den + g2 * pu))

    def value(sic, pu, pd, r_u, den, t3):
        if sic is SicMode.TREAT_AS_NOISE:
            r_d = t3
        else:
            t1 = np.log2(1.0 + pd / den)
            t2 = np.log2(1.0 + (pd + g2 * pu) / den)
            r_d = np.minimum(t1, np.maximum(t2 - r_u, t3))
        return np.minimum(r_u, np.minimum(r_d, params.c_d))

    def score(sic, pu, pd):
        return value(sic, pu, pd, *shared(pu, pd))

    pu_grid = np.linspace(0.0, params.p_u_max, resolution)
    pd_grid = np.linspace(0.0, params.p_d_max, resolution)
    pd = pd_grid[None, :]

    step = max(1, _BLOCK_ELEMENTS // resolution)
    row_max = [[] for _ in receivers]
    for k in range(0, resolution, step):
        pu = pu_grid[k : k + step, None]
        terms = shared(pu, pd)
        for maxima, (sic, _) in zip(row_max, receivers):
            maxima.append(value(sic, pu, pd, *terms).max(axis=1))
    results = []
    for maxima, (sic, candidate) in zip(row_max, receivers):
        maxima = np.concatenate(maxima)
        vmax = float(maxima.max())
        if candidate is not None:
            off_grid = float(score(sic, *candidate))
            if off_grid > vmax + _TIE_TOL:
                results.append((off_grid, float(candidate[0]), float(candidate[1])))
                continue
        i = int(np.argmax(maxima >= vmax - _TIE_TOL))
        row = score(sic, pu_grid[i : i + 1, None], pd)[0]
        j = int(np.argmax(row >= vmax - _TIE_TOL))
        results.append((float(row[j]), float(pu_grid[i]), float(pd_grid[j])))
    return results
