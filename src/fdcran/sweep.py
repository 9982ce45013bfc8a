"""Declarative parameter sweeps, the config surface, CSV emission and the
oracle verification pass behind the command line.

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
    numerics.grid   = 64
    numerics.oracle = off

The downlink receiver is part of the scheme: the ``*_sic`` ids cancel the
co-located uplink signal first, the others treat it as noise.

Rows come out one per (sweep value, scheme), sweep value major and scheme in
enum order minor, so identical configs produce byte-identical CSV output.
A sweep is solved in blocks of up to 64 values: each full-duplex scheme's
max-min power search runs once for the whole block (rates.compute_fd_batch),
in kernel calls no larger than those of a one-point search, while half-duplex
rows are computed one at a time.  The block size bounds the solver's memory
whatever the sweep length.  C-RAN rows are exact (closed forms, see rates),
so a sweep has no quadrature setting.
"""

import math
from dataclasses import dataclass, field, replace

from .model import SchemeId, SystemParams, db_to_linear
from .oracle import DEFAULT_CELLS, circulant_uplink_rate, exhaustive_power_opt
from .rates import DEFAULT_GRID, SCHEMES, compute_fd_batch, compute_scheme

__all__ = [
    "CSV_COLUMNS",
    "ORACLE_COLUMNS",
    "ORACLE_RATE_TOL",
    "SWEEP_VARS",
    "ConfigError",
    "SweepBase",
    "SweepRow",
    "SweepSpec",
    "VerificationError",
    "emit_csv",
    "load_csv",
    "oracle_gaps",
    "parse_config",
    "preset_spec",
    "run_sweep",
    "serialize_spec",
    "verification_failures",
]

SWEEP_VARS = (
    "c_u_c_d_joint",
    "gamma_ud",
    "alpha",
    "beta_du",
    "beta_ud",
    "p_db_joint",
)

CSV_COLUMNS = (
    "sweep_var",
    "value",
    "scheme",
    "r_u",
    "r_d",
    "r_eq",
    "sigma_u_sq",
    "sigma_d_sq",
    "p_u_star",
    "p_d_star",
    "f_star",
)

ORACLE_COLUMNS = ("oracle_r_u", "oracle_r_eq")

# agreement demanded between analytical rates and their brute-force oracles
ORACLE_RATE_TOL = 1e-3
_ORACLE_RESOLUTION = 512


class ConfigError(ValueError):
    """A config file failed to parse or validate; carries line and field."""

    def __init__(self, message: str, line: int | None = None, field_name: str | None = None):
        prefix = []
        if line is not None:
            prefix.append(f"line {line}")
        if field_name is not None:
            prefix.append(f"field {field_name!r}")
        super().__init__((": ".join([", ".join(prefix), message]) if prefix else message))
        self.line = line
        self.field = field_name


class VerificationError(RuntimeError):
    """Oracle verification found disagreements beyond tolerance."""

    def __init__(self, failures: list[str]):
        super().__init__("; ".join(failures))
        self.failures = failures


@dataclass(frozen=True)
class SweepBase:
    """Baseline operating point in config-surface units (powers in dB)."""

    alpha: float = 0.4
    beta_du: float = 0.4
    beta_ud: float = 0.04
    gamma_du: float = 0.0
    gamma_ud: float = 4.0
    p_u_db: float = 20.0
    p_d_db: float = 20.0
    c_u: float = 10.0
    c_d: float = 10.0


@dataclass(frozen=True)
class SweepSpec:
    """One declarative sweep: a baseline, one swept variable, schemes, numerics."""

    base: SweepBase = field(default_factory=SweepBase)
    sweep_var: str = "c_u_c_d_joint"
    start: float = 0.0
    stop: float = 12.0
    step: float = 0.5
    schemes: tuple[SchemeId, ...] = tuple(SchemeId)
    grid: int = DEFAULT_GRID
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
        # canonical order: dedupe and sort schemes by enum definition order
        listed = set(self.schemes)
        object.__setattr__(
            self, "schemes", tuple(s for s in SchemeId if s in listed)
        )

    def values(self) -> list[float]:
        """Inclusive sweep grid start, start + step, ... up to stop."""
        count = int(math.floor((self.stop - self.start) / self.step + 1e-9)) + 1
        return [self.start + i * self.step for i in range(count)]

    def params_at(self, value: float) -> SystemParams:
        """Materialize SystemParams with the swept variable set to value."""
        surface = dict(vars(self.base))
        if self.sweep_var == "c_u_c_d_joint":
            surface["c_u"] = surface["c_d"] = value
        elif self.sweep_var == "p_db_joint":
            surface["p_u_db"] = surface["p_d_db"] = value
        else:
            surface[self.sweep_var] = value
        return SystemParams(
            p_u_max=db_to_linear(surface.pop("p_u_db")),
            p_d_max=db_to_linear(surface.pop("p_d_db")),
            **surface,
        )


def preset_spec(name: str) -> SweepSpec:
    """Built-in sweeps: 'fig2' (joint fronthaul sweep) and 'fig3' (gamma_ud sweep)."""
    if name == "fig2":
        return SweepSpec(
            base=SweepBase(),
            sweep_var="c_u_c_d_joint",
            start=0.0,
            stop=12.0,
            step=0.5,
            schemes=tuple(SchemeId),
        )
    if name == "fig3":
        return SweepSpec(
            base=SweepBase(),
            sweep_var="gamma_ud",
            start=0.0,
            stop=8.0,
            step=0.25,
            schemes=tuple(SchemeId),
        )
    raise ConfigError(f"unknown preset {name!r}; expected 'fig2' or 'fig3'")


# ----------------------------------------------------------------------------
# config text parsing / serialization

_BASE_KEYS = {
    "base.alpha": "alpha",
    "base.beta_du": "beta_du",
    "base.beta_ud": "beta_ud",
    "base.gamma_du": "gamma_du",
    "base.gamma_ud": "gamma_ud",
    "base.p_u_db": "p_u_db",
    "base.p_d_db": "p_d_db",
    "base.c_u": "c_u",
    "base.c_d": "c_d",
}

_ON_OFF = {"on": True, "true": True, "1": True, "off": False, "false": False, "0": False}


def _parse_float(raw: str, line: int, key: str) -> float:
    try:
        v = float(raw)
    except ValueError:
        raise ConfigError(f"expected a number, got {raw!r}", line, key) from None
    if not math.isfinite(v):
        raise ConfigError(f"expected a finite number, got {raw!r}", line, key)
    return v


def _parse_int(raw: str, line: int, key: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"expected an integer, got {raw!r}", line, key) from None


def _parse_schemes(raw: str, line: int) -> tuple[SchemeId, ...]:
    names = [part.strip() for part in raw.split(",") if part.strip()]
    if not names:
        raise ConfigError("scheme list must not be empty", line, "schemes")
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

    Unknown keys, malformed lines and out-of-range values raise ConfigError
    with the offending line number and field.  When defaults is given (a
    preset), config keys override it.
    """
    spec = defaults if defaults is not None else SweepSpec()
    base_kw = {}
    spec_kw = {}
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
            if value < 0:
                raise ConfigError(f"must be >= 0, got {value}", lineno, key)
            base_kw[_BASE_KEYS[key]] = value
        elif key == "sweep.var":
            if raw not in SWEEP_VARS:
                raise ConfigError(
                    f"unknown sweep variable {raw!r}; expected one of {SWEEP_VARS}",
                    lineno,
                    key,
                )
            spec_kw["sweep_var"] = raw
        elif key in ("sweep.start", "sweep.stop", "sweep.step"):
            spec_kw[key.split(".", 1)[1]] = _parse_float(raw, lineno, key)
        elif key == "schemes":
            spec_kw["schemes"] = _parse_schemes(raw, lineno)
        elif key == "numerics.grid":
            spec_kw["grid"] = _parse_int(raw, lineno, key)
        elif key == "numerics.oracle":
            token = raw.lower()
            if token not in _ON_OFF:
                raise ConfigError(f"expected on/off, got {raw!r}", lineno, key)
            spec_kw["oracle"] = _ON_OFF[token]
        else:
            raise ConfigError(f"unknown key {key!r}", lineno, key)
    if base_kw:
        spec_kw["base"] = replace(spec.base, **base_kw)
    try:
        return replace(spec, **spec_kw) if spec_kw else spec
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def serialize_spec(spec: SweepSpec) -> str:
    """Canonical config text for a spec; parse_config round-trips it."""
    lines = []
    for key, attr in _BASE_KEYS.items():
        lines.append(f"{key} = {getattr(spec.base, attr)!r}")
    lines.append(f"sweep.var = {spec.sweep_var}")
    lines.append(f"sweep.start = {spec.start!r}")
    lines.append(f"sweep.stop = {spec.stop!r}")
    lines.append(f"sweep.step = {spec.step!r}")
    lines.append("schemes = " + ", ".join(s.value for s in spec.schemes))
    lines.append(f"numerics.grid = {spec.grid}")
    lines.append(f"numerics.oracle = {'on' if spec.oracle else 'off'}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------------
# running sweeps

_BLOCK = 64  # sweep values solved together; fig2 and fig3 take one block each


@dataclass
class SweepRow:
    """One computed operating point of one scheme; None marks inapplicable."""

    sweep_var: str
    value: float
    scheme: SchemeId
    r_u: float
    r_d: float
    r_eq: float
    sigma_u_sq: float | None = None
    sigma_d_sq: float | None = None
    p_u_star: float | None = None
    p_d_star: float | None = None
    f_star: float | None = None
    oracle_r_u: float | None = None
    oracle_r_eq: float | None = None


def _attach_oracle(row: SweepRow, params, scheme: SchemeId) -> None:
    family, receiver = SCHEMES[scheme]
    if family == "cran":
        sigma = row.sigma_u_sq
        if sigma is not None and math.isfinite(sigma):
            p_u = row.p_u_star if row.p_u_star is not None else params.p_u_max
            row.oracle_r_u = circulant_uplink_rate(params.alpha, p_u, sigma, DEFAULT_CELLS)
    elif receiver is not None:
        row.oracle_r_eq = exhaustive_power_opt(
            params, receiver, _ORACLE_RESOLUTION, (row.p_u_star, row.p_d_star)
        )[0]


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Compute one row per (sweep value, scheme) in deterministic order.

    Sweep values are taken in blocks of _BLOCK, which bounds the solver's
    memory.  Within a block each full-duplex scheme is solved for all values
    at once (compute_fd_batch); half-duplex rows go one at a time through
    compute_scheme.  A block that raises is recomputed row by row, so the
    error is that of the first failing row in (value, scheme) order.
    """
    values = spec.values()
    rows = []
    for start in range(0, len(values), _BLOCK):
        block = values[start : start + _BLOCK]
        try:
            points = [spec.params_at(value) for value in block]
            solved = {
                scheme: compute_fd_batch(scheme, points, spec.grid)
                for scheme in spec.schemes
                if SCHEMES[scheme][1] is not None  # full duplex
            }
            rows += _block_rows(spec, block, points, solved)
        except ValueError:
            rows += _block_rows(spec, block, map(spec.params_at, block), {})
    return rows


def _block_rows(spec: SweepSpec, block, points, solved: dict) -> list[SweepRow]:
    """Rows of one block at its points (any iterable, so a replay can build
    them one at a time), taking each scheme's results from solved where
    present and from compute_scheme otherwise."""
    rows = []
    for i, (value, params) in enumerate(zip(block, points)):
        for scheme in spec.schemes:
            if scheme in solved:
                result = solved[scheme][i]
            else:
                result = compute_scheme(scheme, params, grid=spec.grid)
            diag = result.diagnostics
            row = SweepRow(
                sweep_var=spec.sweep_var,
                value=value,
                scheme=scheme,
                r_u=result.r_u,
                r_d=result.r_d,
                r_eq=result.r_eq,
                sigma_u_sq=diag.get("sigma_u_sq"),
                sigma_d_sq=diag.get("sigma_d_sq"),
                p_u_star=diag.get("p_u_star"),
                p_d_star=diag.get("p_d_star"),
                f_star=diag.get("f_star"),
            )
            if spec.oracle:
                _attach_oracle(row, params, scheme)
            rows.append(row)
    return rows


def _oracle_checks(rows: list[SweepRow]):
    """(row, quantity, reported, oracle name, oracle value, |gap|) for every
    oracle value a row carries."""
    for row in rows:
        for quantity, reported, name, oracle in (
            ("uplink rate", row.r_u, "circulant", row.oracle_r_u),
            ("equal rate", row.r_eq, "exhaustive", row.oracle_r_eq),
        ):
            if oracle is not None:
                yield row, quantity, reported, name, oracle, abs(oracle - reported)


def verification_failures(rows: list[SweepRow]) -> list[str]:
    """Oracle disagreements beyond tolerance, as human-readable strings."""
    return [
        f"{row.scheme.value} at {row.sweep_var}={row.value:g}: {quantity} "
        f"{reported:.6g} vs {name} oracle {oracle:.6g} (|delta|={gap:.3g})"
        for row, quantity, reported, name, oracle, gap in _oracle_checks(rows)
        if gap > ORACLE_RATE_TOL
    ]


def oracle_gaps(rows: list[SweepRow]) -> list[str]:
    """One line per scheme with an oracle, in canonical scheme order: its
    largest |oracle - reported| gap and the row where it occurs (the first
    such row on a tie)."""
    worst = {}
    for row, quantity, _, _, _, gap in _oracle_checks(rows):
        if row.scheme not in worst or gap > worst[row.scheme][0]:
            worst[row.scheme] = (gap, quantity, row)
    lines = []
    for scheme in SchemeId:
        if scheme in worst:
            gap, quantity, row = worst[scheme]
            lines.append(
                f"verified {scheme.value}: worst |oracle - reported| {quantity} "
                f"gap {gap:.3g} at {row.sweep_var}={row.value:g}"
            )
    return lines


# ----------------------------------------------------------------------------
# CSV


def _fmt(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, SchemeId):
        return value.value
    if isinstance(value, str):
        return value
    v = float(value)
    if not math.isfinite(v):
        return "NA"
    return f"{v:.9g}"


def emit_csv(rows: list[SweepRow], path) -> None:
    """Write rows as UTF-8 CSV, nine significant digits, NA for inapplicable.

    Oracle columns are appended only when some row carries oracle values.
    """
    with_oracle = any(
        row.oracle_r_u is not None or row.oracle_r_eq is not None for row in rows
    )
    columns = CSV_COLUMNS + ORACLE_COLUMNS if with_oracle else CSV_COLUMNS
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(getattr(row, col)) for col in columns))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_csv(path) -> list[SweepRow]:
    """Parse a CSV produced by emit_csv back into rows (NA becomes None)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty CSV")
    header = lines[0].split(",")
    if tuple(header[: len(CSV_COLUMNS)]) != CSV_COLUMNS:
        raise ValueError(f"{path}: unexpected header {header!r}")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        record = dict(zip(header, cells))

        def num(name):
            raw = record.get(name, "NA")
            return None if raw == "NA" else float(raw)

        rows.append(
            SweepRow(
                sweep_var=record["sweep_var"],
                value=float(record["value"]),
                scheme=SchemeId(record["scheme"]),
                r_u=num("r_u"),
                r_d=num("r_d"),
                r_eq=num("r_eq"),
                sigma_u_sq=num("sigma_u_sq"),
                sigma_d_sq=num("sigma_d_sq"),
                p_u_star=num("p_u_star"),
                p_d_star=num("p_d_star"),
                f_star=num("f_star"),
                oracle_r_u=num("oracle_r_u"),
                oracle_r_eq=num("oracle_r_eq"),
            )
        )
    return rows
