"""Per-cell rate analysis for half/full-duplex cellular systems with
single-cell processing or C-RAN operation on the extended Wyner model.

Each public name loads on first use (PEP 562), with its module.  numpy loads
only with the oracles, a full-duplex power search and the sampled spectral
functions (zf_precoder, h_tilde, channel_response, rate_closed_form): every
half-duplex rate, sweep, CSV and chart runs without it."""

from importlib import import_module

__version__ = "0.1.0"

# each public name under the submodule that defines it
_NAMES = {
    "model": (
        "NumericDomainError",
        "PowerAllocation",
        "RateResult",
        "SchemeId",
        "SystemParams",
        "ZfSingularError",
        "db_to_linear",
    ),
    "config": ("ConfigError", "SweepBase", "SweepSpec", "parse_config", "preset_spec"),
    "oracle": ("circulant_uplink_rate", "exhaustive_power_opt"),
    "rates": (
        "DEFAULT_GRID",
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
    ),
    "spectral": (
        "DEFAULT_PANELS",
        "Precoder",
        "channel_response",
        "h_tilde",
        "zf_constants",
        "zf_precoder",
    ),
    "sweep": (
        "SweepRow",
        "VerificationError",
        "emit_csv",
        "run_sweep",
        "verification_failures",
    ),
    "svg": ("emit_svg",),
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """A public name or a submodule of _NAMES, imported on first use and then
    kept in the package's namespace."""
    if name in _NAMES:
        return import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
