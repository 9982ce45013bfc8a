"""The config surface: sweep specs, the presets and the config-file grammar.

Config files are plain ``key = value`` lines with dotted section prefixes and
``#`` comments.  Powers are given in dB, channel gains in amplitude, and
fronthaul capacities in bits/s/Hz:

    base.alpha      = 0.4
    base.beta_du    = 0.4
    base.beta_ud    = 0.04
    base.gamma_du   = 0
    base.gamma_ud   = 4
    base.p_u_db     = 20
    base.p_d_db     = 20
    base.c_u        = 10
    base.c_d        = 10
    sweep.var       = c_u_c_d_joint   # gamma_ud | alpha | beta_du | beta_ud | p_db_joint
    sweep.start     = 0
    sweep.stop      = 12
    sweep.step      = 0.5
    schemes         = hd_scp, hd_cran, fd_scp, fd_scp_sic, fd_cran, fd_cran_sic

Each ``base.*`` key is a SweepBase field, as is each ``compute`` flag.  The
downlink receiver is part of the scheme: the ``*_sic`` ids cancel the
co-located uplink signal first, the others treat it as noise.  Oracle
verification is not a config key: ``fdcran sweep --verify`` is its one switch.

_SWEPT decides which SystemParams fields a sweep value sets, for params_at
and SweepSpec.points alike.  This module imports only the standard library
and model, so a spec is built without importing numpy; sweep runs it.
"""

import math
from dataclasses import dataclass, field, fields, replace

from .model import SchemeId, SystemParams, _check_field, _Point, db_to_linear

__all__ = [
    "MAX_SWEEP_VALUES",
    "SWEEP_VARS",
    "ConfigError",
    "SweepBase",
    "SweepSpec",
    "base_params",
    "parse_config",
    "preset_spec",
]

# the SystemParams fields a value of each sweep variable sets, and the map
# from the value to theirs (None: the value itself)
_SWEPT = {
    "c_u_c_d_joint": (("c_u", "c_d"), None),
    "gamma_ud": (("gamma_ud",), None),
    "alpha": (("alpha",), None),
    "beta_du": (("beta_du",), None),
    "beta_ud": (("beta_ud",), None),
    "p_db_joint": (("p_u_max", "p_d_max"), db_to_linear),
}
SWEEP_VARS = tuple(_SWEPT)

# most values a sweep may have: a million rows per scheme, ~1e6 * 64 B of
# CSV each, is already far beyond any figure's resolution
MAX_SWEEP_VALUES = 1_000_000


class ConfigError(ValueError):
    """A config file failed to parse or validate; carries line, field and bare message."""

    def __init__(self, message: str, line: int | None = None, field_name: str | None = None):
        prefix = []
        if line is not None:
            prefix.append(f"line {line}")
        if field_name is not None:
            prefix.append(f"field {field_name!r}")
        super().__init__((": ".join([", ".join(prefix), message]) if prefix else message))
        self.message = message
        self.line = line
        self.field = field_name


@dataclass(frozen=True)
class SweepBase:
    """Baseline operating point in config-surface units (powers in dB).

    Each field is also a ``base.<name>`` config key and a ``compute`` flag."""

    alpha: float = 0.4
    beta_du: float = 0.4
    beta_ud: float = 0.04
    gamma_du: float = 0.0
    gamma_ud: float = 4.0
    p_u_db: float = 20.0
    p_d_db: float = 20.0
    c_u: float = 10.0
    c_d: float = 10.0


def _db_budget(key: str, db: float, line: int | None = None) -> float:
    """The budget db of a config key or compute flag in linear units, where it
    must be a float (db_to_linear is inf above about 3,082.5 dB)."""
    if (linear := db_to_linear(db)) == math.inf:
        raise ConfigError(f"must be finite in linear units, got {db} dB", line, key)
    return linear


def base_params(p_u_db: float, p_d_db: float, **given) -> SystemParams:
    """SystemParams at a point given by SweepBase's fields: the budgets in dB
    become linear (_db_budget) unless a linear budget (p_u_max, p_d_max) is
    given, which passes through in place of its dB one; every other field
    passes through."""
    for key, db in (("p_u", p_u_db), ("p_d", p_d_db)):
        if f"{key}_max" not in given:
            given[f"{key}_max"] = _db_budget(f"{key}_db", db)
    return SystemParams(**given)


@dataclass(frozen=True)
class SweepSpec:
    """One declarative sweep: a baseline, one swept variable, schemes, and
    whether to run the oracles; the defaults are the paper's Fig. 2 sweep."""

    base: SweepBase = field(default_factory=SweepBase)
    sweep_var: str = "c_u_c_d_joint"
    start: float = 0.0
    stop: float = 12.0
    step: float = 0.5
    schemes: tuple[SchemeId, ...] = tuple(SchemeId)
    oracle: bool = False

    def __post_init__(self):
        if self.sweep_var not in SWEEP_VARS:
            raise ConfigError(
                f"unknown sweep variable {self.sweep_var!r}; expected one of {SWEEP_VARS}",
                field_name="sweep.var",
            )
        if not self.schemes:
            raise ConfigError("scheme list must not be empty", field_name="schemes")
        if self.step <= 0:
            raise ConfigError(f"step must be > 0, got {self.step}", field_name="sweep.step")
        if self.start > self.stop:
            raise ConfigError(
                f"start {self.start} exceeds stop {self.stop}", field_name="sweep.start"
            )
        # values() has floor(steps) + 1 values; the test is false for inf and NaN
        if not self._steps() < MAX_SWEEP_VALUES:
            raise ConfigError(
                f"start {self.start}, stop {self.stop} and step {self.step} must give "
                f"at most {MAX_SWEEP_VALUES} sweep values",
                field_name="sweep.step",
            )
        # canonical order: dedupe and sort schemes by enum definition order
        listed = set(self.schemes)
        object.__setattr__(
            self, "schemes", tuple(s for s in SchemeId if s in listed)
        )

    def _steps(self) -> float:
        return (self.stop - self.start) / self.step + 1e-9

    def values(self) -> list[float]:
        """Inclusive sweep grid start, start + step, ... up to stop."""
        count = int(math.floor(self._steps())) + 1
        return [self.start + i * self.step for i in range(count)]

    def params_at(self, value: float) -> SystemParams:
        """Materialize SystemParams with the swept fields set by value."""
        names, to_field = _SWEPT[self.sweep_var]
        swept = dict.fromkeys(names, value if to_field is None else to_field(value))
        return base_params(**{**vars(self.base), **swept})

    def points(self, values):
        """Each value's model._Point, lazily, with no SystemParams per value:
        the fields of params_at(values[0]), but for the swept fields set by
        the value, checked as SystemParams checks them (the joint fields
        share their rules)."""
        names, to_field = _SWEPT[self.sweep_var]
        first = _Point._make(getattr(self.params_at(values[0]), f) for f in _Point._fields)
        for v in values if to_field is None else map(to_field, values):
            yield first._replace(**dict.fromkeys(names, _check_field(names[0], v)))


_PRESETS = {
    "fig2": SweepSpec(),
    "fig3": SweepSpec(sweep_var="gamma_ud", stop=8.0, step=0.25),
}


def preset_spec(name: str) -> SweepSpec:
    """Built-in sweeps: 'fig2' (joint fronthaul sweep) and 'fig3' (gamma_ud sweep)."""
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}; expected 'fig2' or 'fig3'")
    return _PRESETS[name]


# ----------------------------------------------------------------------------
# config text parsing

_BASE_KEYS = {f"base.{f.name}": f.name for f in fields(SweepBase)}
_GRID_KEYS = ("sweep.start", "sweep.stop", "sweep.step")


def _parse_float(raw: str, line: int, key: str) -> float:
    try:
        v = float(raw)
    except ValueError:
        raise ConfigError(f"expected a number, got {raw!r}", line, key) from None
    if not math.isfinite(v):
        raise ConfigError(f"expected a finite number, got {raw!r}", line, key)
    return v


def _parse_schemes(raw: str, line: int) -> tuple[SchemeId, ...]:
    names = [part.strip() for part in raw.split(",") if part.strip()]
    out = []
    valid = {s.value: s for s in SchemeId}
    for name in names:
        if name == "all":
            out.extend(SchemeId)
            continue
        if name not in valid:
            raise ConfigError(
                f"unknown scheme {name!r}; expected one of {sorted(valid)} or 'all'",
                line,
                "schemes",
            )
        out.append(valid[name])
    return tuple(out)


def parse_config(text: str, defaults: SweepSpec | None = None) -> SweepSpec:
    """Parse key = value config text into a SweepSpec.

    Errors are ConfigErrors with the offending line number and field: bad
    lines, keys and values in line order, then SweepSpec's sweep rules at the
    line of the key they name, else (a grid rule) of the last grid key set.
    When defaults is given (a preset), config keys override it.
    """
    spec = defaults if defaults is not None else SweepSpec()
    base_kw = {}
    spec_kw = {}
    lines = {}  # each key's last line
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw_line.strip()!r}", lineno)
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if not raw:
            raise ConfigError("missing value", lineno, key)
        if key in _BASE_KEYS:
            value = _parse_float(raw, lineno, key)
            if value < 0 and not key.endswith("_db"):  # a budget in dB may be negative
                raise ConfigError(f"must be >= 0, got {value}", lineno, key)
            if key.endswith("_db"):
                _db_budget(key, value, lineno)
            base_kw[_BASE_KEYS[key]] = value
        elif key == "sweep.var":
            spec_kw["sweep_var"] = raw
        elif key in _GRID_KEYS:
            spec_kw[key.split(".", 1)[1]] = _parse_float(raw, lineno, key)
        elif key == "schemes":
            spec_kw["schemes"] = _parse_schemes(raw, lineno)
        else:
            raise ConfigError(f"unknown key {key!r}", lineno, key)
        lines[key] = lineno
    try:
        return replace(spec, base=replace(spec.base, **base_kw), **spec_kw)
    except ConfigError as err:  # a rule of SweepSpec, which defaults met
        at = lines.get(err.field) or max(lines[k] for k in _GRID_KEYS if k in lines)
        raise ConfigError(err.message, at, err.field) from None
