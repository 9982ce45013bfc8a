"""Declarative parameter sweeps, CSV emission and the oracle verification
pass behind the command line.  Sweep specs, the points of their values
(SweepSpec.points) and the config grammar live in config.  Like rates,
this module loads numpy only where the oracles run (--verify): a sweep
without them, its CSV and its chart run without numpy, the full-duplex
power search included.

Rows come out one per (sweep value, scheme), sweep value major and scheme in
enum order minor, so identical configs produce byte-identical CSV output.
Each value's rows come from one rates._solve of its point, in that order:
half duplex at the value's budgets, full duplex by one max-min power search
per processing family for its receivers, in floats and exact on the budget
edges.  So a failing sweep raises at its first failing row, before a later
point is built.  C-RAN rows are exact (closed forms, see rates), and the
search has no grid, so a sweep has no quadrature or resolution setting.
A sweep runs in this one process: with the search this cheap, worker
processes would cost more than they save.

A row's r_u is the uplink capacity at its powers (p_u*, p_d*).  A SIC
mobile faces the co-located uplink codeword at any carried rate up to that
capacity, and its row's r_d is the downlink rate at the best carried rate,
so r_eq = min(r_u, r_d) is the rate the uplink carries (rates._downlink).

Under --verify the oracles run in this process once every row is solved,
in blocks of 64 values, one pass per scheme over its rows of a block: the
circulant ring checks a C-RAN scheme's uplink rates in one call, at the
sigma_u^2 the oracle forms itself, and oracle.certified_max_min certifies
the optimum of a full-duplex scheme's rows, one branch-and-bound search over
the two upper budget edges, where the optimum of either receiver lies.  It
proves that the true max-min lies at most eps (CERTIFIED_EPS, more only for
points whose search reaches oracle._MAX_CELLS cells) above its best point.
Both oracles hold every temporary to 8,192 values, so their memory grows
neither with the block nor with the budgets.
"""

import math
from dataclasses import dataclass
from itertools import compress

from .config import SweepSpec, preset_spec  # preset_spec stays importable from here
from .model import SchemeId
from .rates import SCHEMES, _solve

__all__ = [
    "CSV_COLUMNS",
    "ORACLE_COLUMNS",
    "ORACLE_RATE_TOL",
    "SweepRow",
    "VerificationError",
    "emit_csv",
    "oracle_gaps",
    "run_sweep",
    "verification_failures",
]

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
ORACLE_RATE_TOL = 1e-9


class VerificationError(RuntimeError):
    """Oracle verification found disagreements beyond tolerance."""

    def __init__(self, failures: list[str]):
        super().__init__("; ".join(failures))
        self.failures = failures


# ----------------------------------------------------------------------------
# running sweeps

# sweep values whose rows an oracle takes in one batch, fig2's and fig3's in
# one block (module docstring)
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

    Each value's rows come from rates._solve of its point (SweepSpec.points),
    lazily, so the error of a failing sweep is that of its first failing row
    in (value, scheme) order, and no later point is built.  Under spec.oracle
    the rows then get their oracle values (_attach_oracles) in blocks of
    _BLOCK values, which bounds the oracles' batches.
    """
    values, kinds = spec.values(), [SCHEMES[s] for s in spec.schemes]
    rows = [
        SweepRow(spec.sweep_var, value, scheme, r_u, r_d, r_eq, *map(diag.get, _DIAGNOSTICS))
        for value, p in zip(values, spec.points(values))
        for scheme, (r_u, r_d, r_eq, diag) in zip(spec.schemes, _solve(p, kinds))
    ]
    if spec.oracle:  # each scheme's rows of a block are one stride of it, one per point
        n = len(spec.schemes)
        for at in range(0, len(values), _BLOCK):
            points = list(spec.points(values[at : at + _BLOCK]))
            for i, scheme in enumerate(spec.schemes):
                _attach_oracles(scheme, rows[at * n + i : (at + _BLOCK) * n : n], points)
    return rows


def circulant_uplink_rate(alpha, p_u, sigma_u_sq):
    """oracle.circulant_uplink_rate, which loads numpy, imported on first
    use; it stays a name of this module, where perfbench's tracer rebinds it."""
    from .oracle import circulant_uplink_rate as rate

    return rate(alpha, p_u, sigma_u_sq)


def _attach_oracles(scheme: SchemeId, rows: list[SweepRow], points) -> None:
    """The oracle values of one scheme's rows, one row per point: for C-RAN,
    oracle_r_u of each row whose sigma_u^2 by the oracle's own form
    (oracle.sigma_u_sq, not the row's) is finite, the circulant ring's
    uplink rate at the row's uplink powers and that sigma_u^2, all in one
    call; for full duplex, oracle_r_eq, oracle_eps and oracle_cells from one
    certified_max_min search over the points, each scoring its row's argmax."""
    import numpy as np

    from .oracle import certified_max_min, sigma_u_sq

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
        f"{row.scheme.value} at {row.sweep_var}={_fmt(row.value)}: {quantity} "
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
                f"gap {gap:.3g} at {row.sweep_var}={_fmt(row.value)}"
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
