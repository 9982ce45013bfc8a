"""Domain types and the dB conversion shared by every duplex/processing scheme,
and _Point, the fields of SystemParams that a sweep builds for each value.

Unit conventions: channel coefficients are amplitude gains (the power gain is
the square), transmit powers are linear on a unit-noise-power scale, and
fronthaul capacities are in bits/s/Hz.  The command-line layer accepts powers
in dB and converts once on the way in; "infinite" fronthaul is expressed by a
large finite capacity (e.g. 1000) so that 2**c stays finite.
"""

import math
import warnings
from collections import namedtuple
from dataclasses import dataclass, field, fields
from enum import Enum

__all__ = [
    "NumericDomainError",
    "ZfSingularError",
    "SystemParams",
    "PowerAllocation",
    "RateResult",
    "SchemeId",
    "db_to_linear",
]


class NumericDomainError(ValueError):
    """An operation received or produced a value outside its numeric domain."""


class ZfSingularError(NumericDomainError):
    """Zero-forcing inversion is impossible: H(f) has a zero on the unit interval."""

    def __init__(self, alpha: float):
        super().__init__(
            f"zero-forcing precoder undefined for alpha={alpha!r}: the channel "
            "response 1 + 2*alpha*cos(2*pi*f) touches zero for alpha >= 0.5"
        )
        self.alpha = alpha


def db_to_linear(x_db: float) -> float:
    """Convert dB to linear scale: 10**(x/10), inf where that overflows a float
    (above about 3,083 dB), so SystemParams rejects it as not finite."""
    try:
        return 10.0 ** (x_db / 10.0)
    except OverflowError:
        return math.inf


# gamma_du is accepted so configurations mirror the full interference diagram,
# but no rate formula reads it; warn the first time a nonzero value shows up.
_gamma_du_warned = False


def _warn_inert_gamma_du(value: float) -> None:
    global _gamma_du_warned
    if not _gamma_du_warned:
        warnings.warn(
            f"gamma_du={value:g} is carried for configuration fidelity but does "
            "not affect any computed rate",
            UserWarning,
            stacklevel=4,
        )
        _gamma_du_warned = True


_GAIN_FIELDS = ("alpha", "beta_du", "beta_ud", "gamma_ud")  # gamma_du is inert


@dataclass(frozen=True)
class SystemParams:
    """Deterministic Wyner-model parameters for one symmetric cellular setup.

    alpha     -- inter-cell amplitude gain of the direct channel
    beta_du   -- inter-cell downlink-to-uplink interference gain
    beta_ud   -- inter-cell uplink-to-downlink interference gain
    gamma_du  -- base-station self-interference gain (inert, see module note)
    gamma_ud  -- intra-cell uplink-to-downlink interference gain
    p_u_max   -- uplink power budget (linear, unit noise power)
    p_d_max   -- downlink power budget (linear)
    c_u, c_d  -- per-link fronthaul capacities in bits/s/Hz

    Every field must be finite and >= 0 (ValueError).  A rate-bearing gain
    whose power gain, doubled for the two neighboring cells, overflows a
    float (above about 9.5e153) raises NumericDomainError naming the field.
    """

    alpha: float
    beta_du: float
    beta_ud: float
    gamma_du: float
    gamma_ud: float
    p_u_max: float
    p_d_max: float
    c_u: float
    c_d: float

    def __post_init__(self):
        for name in _PARAM_FIELDS:
            v = getattr(self, name)
            if (checked := _check_field(name, v)) is not v:  # an exact float is kept as it is
                object.__setattr__(self, name, checked)
        if self.gamma_du > 0:
            _warn_inert_gamma_du(self.gamma_du)


_PARAM_FIELDS = tuple(f.name for f in fields(SystemParams))  # in validation order

# the SystemParams fields the rate constants read: a sweep builds one per
# value (config.SweepSpec.points) and solves it alone (rates._solve, which
# takes a SystemParams alike)
_Point = namedtuple("_Point", "alpha beta_du beta_ud gamma_ud p_u_max p_d_max c_u c_d")


def _check_field(name: str, v) -> float:
    """v as a float, if it is a valid value of the SystemParams field name
    (ValueError or NumericDomainError otherwise, as SystemParams raises)."""
    if type(v) is not float:
        if not isinstance(v, (int, float)):
            raise ValueError(f"{name} must be numeric, got {v!r}")
        v = float(v)
    if not 0.0 <= v < math.inf:  # false for NaN too
        raise ValueError(f"{name} must be finite and >= 0, got {v!r}")
    if name in _GAIN_FIELDS and math.isinf(2.0 * v * v):
        raise NumericDomainError(
            f"float overflow: {name}={v:g} has a power gain beyond the float range"
        )
    return v


@dataclass(frozen=True)
class PowerAllocation:
    """Operating transmit powers; budgets are enforced where the pair is used.
    A power that is not a finite number >= 0 raises NumericDomainError."""

    p_u: float
    p_d: float

    def __post_init__(self):
        for name in ("p_u", "p_d"):
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or not math.isfinite(v) or v < 0:
                raise NumericDomainError(f"{name} must be finite and >= 0, got {v!r}")
            object.__setattr__(self, name, float(v))


@dataclass(frozen=True)
class RateResult:
    """Per-cell rates of one scheme, in bits/s/Hz.

    diagnostics holds scheme-specific named scalars: quantization noise powers
    (sigma_u_sq, sigma_d_sq), the downlink stream power (p_s), the half-duplex
    time split (f_star) or the full-duplex power argmax (p_u_star, p_d_star).
    """

    r_u: float
    r_d: float
    r_eq: float
    diagnostics: dict[str, float] = field(default_factory=dict)


class SchemeId(Enum):
    """Scheme matrix: duplex mode x processing location x downlink receiver.

    Enum definition order is the canonical reporting order.  The bare
    full-duplex members treat the intra-cell uplink signal as noise; the
    ``*_SIC`` members cancel it at the downlink mobile first.
    """

    HD_SCP = "hd_scp"
    HD_CRAN = "hd_cran"
    FD_SCP = "fd_scp"
    FD_SCP_SIC = "fd_scp_sic"
    FD_CRAN = "fd_cran"
    FD_CRAN_SIC = "fd_cran_sic"
