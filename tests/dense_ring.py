"""Test-side dense model of the Wyner ring: the n-cell channel matrix built
explicitly and its log-det taken by numpy, an O(n^3) check that shares no
code with the eigenvalue ring of fdcran.oracle."""

import math

import numpy as np

from fdcran.oracle import _MIN_CELLS

_DENSE_CELL_CAP = 64  # O(n^3) second-layer check stays small


def circulant_uplink_rate_dense(
    alpha: float, p_u: float, sigma_u_sq: float, n: int
) -> float:
    """Per-cell uplink rate (1/n) log2 det(I + p_u/(1 + sigma_u_sq) H H^T)
    of an n-cell ring from an explicit dense log-det (8 <= n <= 64)."""
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
