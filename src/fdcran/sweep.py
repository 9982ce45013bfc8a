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

Each ``base.*`` key is a SweepBase field, as is each ``compute`` flag.  The
downlink receiver is part of the scheme: the ``*_sic`` ids cancel the
co-located uplink signal first, the others treat it as noise.  Oracle
verification is not a config key: ``fdcran sweep --verify`` is its one switch.

Rows come out one per (sweep value, scheme), sweep value major and scheme in
enum order minor, so identical configs produce byte-identical CSV output.
Each scheme's rows of a block of values are solved by one rates._solve
call on the block's parameter columns: the half-duplex kernels at every
value's budgets, or one full-duplex max-min power search for the whole
block, exact on the budget edges.  Nothing splits the search's kernel calls,
so blocks of up to 64 values bound its memory (a block's edge search takes
64 x 2 x 17 powers), and each oracle call's under --verify; other sweeps
are one block, which MAX_SWEEP_VALUES bounds.  C-RAN rows are exact (closed
forms, see rates), and the search has no grid, so a sweep has no quadrature
or resolution setting.  A sweep runs in this one process: with the search
this cheap, worker processes would cost more than they save.

A row's r_u is the uplink capacity at its powers (p_u*, p_d*).  A SIC
mobile faces the co-located uplink codeword at any carried rate up to that
capacity, and its row's r_d is the downlink rate at the best carried rate,
so r_eq = min(r_u, r_d) is the rate the uplink carries (rates._receive).

Under --verify the oracles run in this process after each block's solve,
one pass per scheme over its rows of the block: the circulant ring checks
a C-RAN scheme's uplink rates in one call, at the sigma_u^2 the oracle
forms itself, and oracle.certified_max_min
certifies the optimum of a full-duplex scheme's rows, one branch-and-bound
search over the two upper budget edges, where the optimum of either
receiver lies.  It proves that the true max-min lies at most eps
(CERTIFIED_EPS, more only for points whose search reaches
oracle._MAX_CELLS cells) above its best point.  Both oracles hold
every temporary to 8,192 values, so their memory grows neither with the
block nor with the budgets.
"""

import math
from dataclasses import dataclass, field, fields, replace
from itertools import compress, repeat

import numpy as np

from .model import SchemeId, SystemParams, _check_field, db_to_linear
from .oracle import certified_max_min, circulant_uplink_rate, sigma_u_sq
from .rates import SCHEMES, _Columns, _solve, compute_scheme

__all__ = [
    "CSV_COLUMNS",
    "MAX_SWEEP_VALUES",
    "ORACLE_COLUMNS",
    "ORACLE_RATE_TOL",
    "SWEEP_VARS",
    "ConfigError",
    "SweepBase",
    "SweepRow",
    "SweepSpec",
    "VerificationError",
    "base_params",
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

# most values a sweep may have: a million rows per scheme, ~1e6 * 64 B of
# CSV each, is already far beyond any figure's resolution
MAX_SWEEP_VALUES = 1_000_000

# agreement demanded between analytical rates and their brute-force oracles
ORACLE_RATE_TOL = 1e-3


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


def base_params(p_u_db: float, p_d_db: float, **gains) -> SystemParams:
    """SystemParams at a point given by SweepBase's fields: the budgets in dB
    become linear, every other field passes through."""
    return SystemParams(p_u_max=db_to_linear(p_u_db), p_d_max=db_to_linear(p_d_db), **gains)


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
        """Materialize SystemParams with the swept variable set to value."""
        surface = dict(vars(self.base))
        if self.sweep_var == "c_u_c_d_joint":
            surface["c_u"] = surface["c_d"] = value
        elif self.sweep_var == "p_db_joint":
            surface["p_u_db"] = surface["p_d_db"] = value
        else:
            surface[self.sweep_var] = value
        return base_params(**surface)


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
# config text parsing / serialization

_BASE_KEYS = {f"base.{f.name}": f.name for f in fields(SweepBase)}


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
            if value < 0 and not key.endswith("_db"):  # a budget in dB may be negative
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
        else:
            raise ConfigError(f"unknown key {key!r}", lineno, key)
    if base_kw:
        spec_kw["base"] = replace(spec.base, **base_kw)
    return replace(spec, **spec_kw) if spec_kw else spec


def serialize_spec(spec: SweepSpec) -> str:
    """Canonical config text for a spec; parse_config round-trips every field
    but oracle, which only --verify sets."""
    lines = []
    for key, attr in _BASE_KEYS.items():
        lines.append(f"{key} = {getattr(spec.base, attr)!r}")
    lines.append(f"sweep.var = {spec.sweep_var}")
    lines.append(f"sweep.start = {spec.start!r}")
    lines.append(f"sweep.stop = {spec.stop!r}")
    lines.append(f"sweep.step = {spec.step!r}")
    lines.append("schemes = " + ", ".join(s.value for s in spec.schemes))
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------------
# running sweeps

# sweep values solved together, fig2's and fig3's in one block, which bounds
# the search's largest kernel call, the edge search (module docstring)
_BLOCK = 64
_DIAGNOSTICS = CSV_COLUMNS[6:]  # the RateResult.diagnostics a row carries, in SweepRow's order


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
    # a certified row's optimum lies in [oracle_r_eq, oracle_r_eq + oracle_eps],
    # found after bounding the objective over oracle_cells cells
    oracle_eps: float | None = None
    oracle_cells: int | None = None


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Compute one row per (sweep value, scheme) in deterministic order.

    Sweep values are taken in blocks of _BLOCK where a scheme searches its
    powers, which bounds the search's memory, and under spec.oracle, where
    each block's rows get their oracle values, which bounds each oracle
    call's arrays; else the sweep is one block.  Each
    scheme is solved for all values of a block at once (rates._solve), on
    parameters built inside that replayed solve: after it raises,
    compute_scheme replays the block's rows in (value, scheme) order, so the
    error is that of the first failing row.
    """
    values = spec.values()
    searched = any(SCHEMES[s][1] is not None for s in spec.schemes)
    size = _BLOCK if searched or spec.oracle else len(values)
    blocks = (values[at : at + size] for at in range(0, len(values), size))
    return [row for block in blocks for row in _run_block(spec, block)]


# the SystemParams fields of a joint sweep variable; any other is one field
_JOINT_FIELDS = {"c_u_c_d_joint": ("c_u", "c_d"), "p_db_joint": ("p_u_max", "p_d_max")}


def _block_columns(spec: SweepSpec, block) -> _Columns:
    """A block's rates._Columns, with no SystemParams per value: the fields
    of params_at(block[0]), but for the swept field, or both joint fields, an
    (n, 1, 1) column of the values, each checked as SystemParams checks the
    field (the joint fields share their rules)."""
    first = spec.params_at(block[0])
    names = _JOINT_FIELDS.get(spec.sweep_var, (spec.sweep_var,))
    values = map(db_to_linear, block) if spec.sweep_var == "p_db_joint" else block
    column = np.array([_check_field(names[0], v) for v in values])[:, None, None]
    return _Columns._make(column if f in names else getattr(first, f) for f in _Columns._fields)


def _run_block(spec: SweepSpec, block) -> list[SweepRow]:
    """Rows of one block, each scheme's columns solved by rates._solve, and
    under spec.oracle with their oracle values: the circulant check of each
    C-RAN row and the certified optima."""
    try:
        columns = _block_columns(spec, block)
        solved = [_solve(*SCHEMES[s], columns, len(block)) for s in spec.schemes]
    except ValueError:
        for value in block:  # the first failing row in (value, scheme) order raises
            for scheme in spec.schemes:
                compute_scheme(scheme, spec.params_at(value))
        raise
    by_scheme = [
        map(SweepRow, repeat(spec.sweep_var), block, repeat(scheme), r_u, r_d, r_eq,
            *(diag.get(name, repeat(None)) for name in _DIAGNOSTICS))
        for scheme, (r_u, r_d, r_eq, diag) in zip(spec.schemes, solved)
    ]
    rows = [row for at_value in zip(*by_scheme) for row in at_value]
    if spec.oracle:  # each scheme's rows are one stride of the block, one per point
        points = [spec.params_at(value) for value in block]
        for at, scheme in enumerate(spec.schemes):
            _attach_oracles(scheme, rows[at :: len(spec.schemes)], points)
    return rows


def _attach_oracles(scheme: SchemeId, rows: list[SweepRow], points) -> None:
    """The oracle values of one scheme's rows, one row per point: for C-RAN,
    oracle_r_u of each row whose sigma_u^2 by the oracle's own form
    (oracle.sigma_u_sq, not the row's) is finite, the circulant ring's
    uplink rate at the row's uplink powers and that sigma_u^2, all in one
    call; for full duplex, oracle_r_eq, oracle_eps and oracle_cells from one
    certified_max_min search over the points, each scoring its row's argmax."""
    family, receiver = SCHEMES[scheme]
    if family == "cran":
        # the uplink runs at (P_u, 0) in half duplex, at the argmax in full duplex
        p_u = [p.p_u_max if r.p_u_star is None else r.p_u_star for r, p in zip(rows, points)]
        noise = sigma_u_sq(points, p_u, [r.p_d_star or 0.0 for r in rows])
        checked = noise < math.inf  # inf at c_u = 0, where no uplink is carried
        alpha = np.array([p.alpha for p in points])[checked]
        found = circulant_uplink_rate(alpha, np.array(p_u)[checked], noise[checked])
        for row, rate in zip(compress(rows, checked), found.tolist()):
            row.oracle_r_u = rate
    if receiver is not None:
        argmaxes = [(r.p_u_star, r.p_d_star) for r in rows]
        for row, found in zip(rows, certified_max_min(family, receiver, points, argmaxes)):
            row.oracle_r_eq, row.oracle_eps, row.oracle_cells = found


def _oracle_checks(rows: list[SweepRow]):
    """(row, quantity, reported, oracle name, oracle value, gap) for every
    oracle value a row carries.  An uplink rate's gap is |oracle - reported|;
    an equal rate's is its distance from the certified interval
    [oracle_r_eq, oracle_r_eq + oracle_eps] that holds the true optimum."""
    for row in rows:
        if row.oracle_r_u is not None:
            gap = abs(row.oracle_r_u - row.r_u)
            yield row, "uplink rate", row.r_u, "circulant", row.oracle_r_u, gap
        if row.oracle_r_eq is not None:
            best, eps = row.oracle_r_eq, row.oracle_eps or 0.0
            gap = max(best - row.r_eq, row.r_eq - best - eps, 0.0)
            yield row, "equal rate", row.r_eq, "certified", best, gap


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
    largest oracle gap and the row where it occurs (the first such row on a
    tie), and for a certified scheme the largest eps of its certificates and
    the cells bounded for all its rows."""
    worst, certified = {}, {}
    for row, quantity, _, _, _, gap in _oracle_checks(rows):
        if row.scheme not in worst or gap > worst[row.scheme][0]:
            worst[row.scheme] = (gap, quantity, row)
    for row in rows:
        if row.oracle_cells is not None:
            eps, cells = certified.get(row.scheme, (0.0, 0))
            certified[row.scheme] = (max(eps, row.oracle_eps), cells + row.oracle_cells)
    lines = []
    for scheme in SchemeId:
        if scheme in worst:
            gap, quantity, row = worst[scheme]
            line = (
                f"verified {scheme.value}: worst |oracle - reported| {quantity} "
                f"gap {gap:.3g} at {row.sweep_var}={row.value:g}"
            )
            if scheme in certified:
                line += "; certified to eps {:.3g} over {:,} cells".format(*certified[scheme])
            lines.append(line)
    return lines


# ----------------------------------------------------------------------------
# CSV


def _fmt(v) -> str:
    """A number's CSV cell: nine significant digits, NA for None or a value
    that is not finite."""
    return "NA" if v is None or not math.isfinite(v) else f"{v:.9g}"


def emit_csv(rows: list[SweepRow], path) -> None:
    """Write rows as UTF-8 CSV, nine significant digits, NA for inapplicable.

    Oracle columns are appended only when some row carries oracle values.
    """
    with_oracle = any(
        row.oracle_r_u is not None or row.oracle_r_eq is not None for row in rows
    )
    columns = CSV_COLUMNS + ORACLE_COLUMNS if with_oracle else CSV_COLUMNS
    lines = [",".join(columns)]
    for r in rows:  # the cells of CSV_COLUMNS, then of ORACLE_COLUMNS
        line = (
            f"{r.sweep_var},{_fmt(r.value)},{r.scheme.value},{_fmt(r.r_u)},{_fmt(r.r_d)},"
            f"{_fmt(r.r_eq)},{_fmt(r.sigma_u_sq)},{_fmt(r.sigma_d_sq)},{_fmt(r.p_u_star)},"
            f"{_fmt(r.p_d_star)},{_fmt(r.f_star)}"
        )
        if with_oracle:
            line += f",{_fmt(r.oracle_r_u)},{_fmt(r.oracle_r_eq)}"
        lines.append(line)
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
        record = dict(zip(header, line.split(",")))
        numbers = {
            name: None if record.get(name, "NA") == "NA" else float(record[name])
            for name in CSV_COLUMNS[3:] + ORACLE_COLUMNS
        }
        scheme = SchemeId(record["scheme"])
        rows.append(SweepRow(record["sweep_var"], float(record["value"]), scheme, **numbers))
    return rows
