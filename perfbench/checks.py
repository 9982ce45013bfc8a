"""Row checks on the CSV an `fdcran sweep` child wrote.

Every row is checked against the parameters the benchmark itself assigned to
it (workloads.Sweep), never against values read back from the program:

  rows          the CSV holds exactly the expected (sweep_var, value, scheme) rows
  caps          rates are finite, >= 0, within the fronthaul capacity and the
                single-link power cap, and powers within their budgets
  equal_rate    HD rows satisfy r_eq = r_u r_d / (r_u + r_d), FD rows r_eq = min
  sic_ge_tan    SIC r_eq >= treat-as-noise r_eq at every point, both families
  fd_scp_recompute  FD-SCP rates recomputed at the reported (p_u*, p_d*) through
                the public fd_scp_uplink_rate / fd_scp_downlink_rate
  oracle_shortfall  oracle_r_eq - r_eq <= 1e-3 (the grid oracle is a lower bound)
  hd_reference  HD rows agree with a closed-form evaluation of the model

A row rejected by any check, or flagged by the program's own --verify, counts
as failed.  A child that crashed fails all of its rows.
"""

import csv
import math
import re
from dataclasses import dataclass, field

import numpy as np

from workloads import HD_SCHEMES

RATE_TOL = 1e-3  # the agreement the program demands of its own oracles
CSV_REL = 1e-7  # CSV values carry nine significant digits
RECOMPUTE_TOL = 1e-6  # rates re-evaluated at nine-digit powers
CHECKS = (
    "rows",
    "caps",
    "equal_rate",
    "sic_ge_tan",
    "fd_scp_recompute",
    "oracle_shortfall",
    "hd_reference",
)
_FLAG = re.compile(r"^\s+(\S+) at (\S+)=([^:\s]+):")


@dataclass
class Verdict:
    """Outcome of checking one child's output."""

    attempted: int
    rejected: dict = field(default_factory=dict)  # row index -> failed check names
    flagged: set = field(default_factory=set)  # row indices --verify reported
    crashed: bool = False
    r_eq: list = field(default_factory=list)
    r_ref: list = field(default_factory=list)
    oracle_gap: float = 0.0

    @property
    def failed(self) -> int:
        if self.crashed:
            return self.attempted
        return len(self.flagged | set(self.rejected))


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _capacity(s):
    return np.log2(1.0 + s)


def wyner_rate_integral(s, alpha):
    """Closed form of the integral over f of log2(1 + s (1 + 2 alpha cos 2 pi f)^2).

    With a = 1 + i sqrt(s) and b = 2 i alpha sqrt(s) the integrand is
    log2|a + b cos 2 pi f|^2, whose mean is 2 log2|z| for z the larger-modulus
    root of (a +- sqrt(a^2 - b^2)) / 2 (Jensen's formula).
    """
    a = 1.0 + 1j * np.sqrt(s)
    b = 2j * alpha * np.sqrt(s)
    root = np.sqrt(a * a - b * b)
    return 2.0 * np.log2(np.maximum(np.abs(a + root), np.abs(a - root)) / 2.0)


def hd_reference(scheme: str, p: dict) -> tuple[float, float]:
    """(r_u, r_d) of a half-duplex scheme from the model's closed forms."""
    a2 = p["alpha"] ** 2
    if scheme == "hd_scp":
        r_u = min(_capacity(p["p_u"] / (1.0 + 2.0 * a2 * p["p_u"])), p["c_u"])
        r_d = min(_capacity(p["p_d"] / (1.0 + 2.0 * a2 * p["p_d"])), p["c_d"])
        return float(r_u), float(r_d)
    r_u = 0.0
    if p["c_u"] > 0.0:
        sigma_u = (1.0 + (1.0 + 2.0 * a2) * p["p_u"]) / (2.0 ** p["c_u"] - 1.0)
        r_u = float(wyner_rate_integral(p["p_u"] / (1.0 + sigma_u), p["alpha"]))
    # zero forcing leaves the single tap h0^2 = (1 - 4 alpha^2)^(3/2)
    h0sq = (1.0 - 4.0 * a2) ** 1.5
    stream = p["p_d"] * (1.0 - 2.0 ** -p["c_d"])
    quant = p["p_d"] * 2.0 ** -p["c_d"]
    r_d = float(_capacity(stream * h0sq / (1.0 + quant * (1.0 + 2.0 * a2))))
    return r_u, r_d


def equal_rate(scheme: str, r_u: float, r_d: float) -> float:
    if scheme in HD_SCHEMES:
        return r_u * r_d / (r_u + r_d) if r_u + r_d > 0.0 else 0.0
    return min(r_u, r_d)


def flagged_rows(log_text: str, expected) -> set:
    """Indices of the rows named in the program's 'verification failed' report."""
    out = set()
    for line in log_text.splitlines():
        m = _FLAG.match(line)
        if not m:
            continue
        scheme, value = m.group(1), float(m.group(3))
        for i, (v, s, _) in enumerate(expected):
            if s == scheme and _close(v, value, 1e-5):
                out.add(i)
    return out


def _read(csv_path):
    with open(csv_path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _num(record, key):
    raw = record.get(key)
    if raw is None or raw == "NA":
        return None
    return float(raw)


def check_rows(sweep_var, expected, records, fdcran) -> tuple[dict, list, list, float]:
    """Run the row checks; returns (rejected, r_eq, r_ref, oracle_gap)."""
    rejected = {}
    r_eq_values, r_ref_values = [], []
    oracle_gap = 0.0

    def reject(i, name):
        rejected.setdefault(i, []).append(name)

    tan_r_eq = {}
    for i, (value, scheme, p) in enumerate(expected):
        if i >= len(records):
            reject(i, "rows")
            continue
        rec = records[i]
        try:
            r_u, r_d, r_eq = (_num(rec, k) for k in ("r_u", "r_d", "r_eq"))
            same_row = (
                rec["sweep_var"] == sweep_var
                and rec["scheme"] == scheme
                and _close(float(rec["value"]), value, CSV_REL)
            )
        except (KeyError, ValueError):
            same_row = False
        if not same_row or None in (r_u, r_d, r_eq):
            reject(i, "rows")
            continue
        r_eq_values.append(r_eq)
        rates = (r_u, r_d, r_eq)
        power_cap = _capacity((1.0 + 2.0 * p["alpha"]) ** 2 * max(p["p_u"], p["p_d"]))
        in_caps = (
            all(math.isfinite(r) and r >= 0.0 for r in rates)
            and r_u <= p["c_u"] * (1.0 + CSV_REL)
            and r_d <= p["c_d"] * (1.0 + CSV_REL)
            and max(rates) <= power_cap * (1.0 + CSV_REL)
        )
        p_u_star, p_d_star = _num(rec, "p_u_star"), _num(rec, "p_d_star")
        if p_u_star is not None and p_d_star is not None:
            in_caps = in_caps and (
                0.0 <= p_u_star <= p["p_u"] * (1.0 + CSV_REL)
                and 0.0 <= p_d_star <= p["p_d"] * (1.0 + CSV_REL)
            )
        if not in_caps:
            reject(i, "caps")
        if not _close(r_eq, equal_rate(scheme, r_u, r_d), 4 * CSV_REL):
            reject(i, "equal_rate")

        if scheme in ("fd_scp", "fd_cran"):
            tan_r_eq[(value, scheme)] = r_eq
        elif scheme in ("fd_scp_sic", "fd_cran_sic"):
            tan = tan_r_eq.get((value, scheme[: -len("_sic")]))
            if tan is not None and r_eq < tan - CSV_REL * max(1.0, tan):
                reject(i, "sic_ge_tan")

        if scheme in ("fd_scp", "fd_scp_sic"):
            if p_u_star is None or p_d_star is None:
                reject(i, "fd_scp_recompute")
            else:
                params = fdcran.SystemParams(
                    alpha=p["alpha"], beta_du=p["beta_du"], beta_ud=p["beta_ud"],
                    gamma_du=p["gamma_du"], gamma_ud=p["gamma_ud"],
                    p_u_max=p["p_u"], p_d_max=p["p_d"], c_u=p["c_u"], c_d=p["c_d"],
                )
                sic = fdcran.SicMode.SIC if scheme == "fd_scp_sic" else fdcran.SicMode.TREAT_AS_NOISE
                ru2 = fdcran.fd_scp_uplink_rate(params, p_u_star, p_d_star)
                rd2 = fdcran.fd_scp_downlink_rate(params, p_u_star, p_d_star, sic, ru2)
                if abs(ru2 - r_u) > RECOMPUTE_TOL or abs(rd2 - r_d) > RECOMPUTE_TOL:
                    reject(i, "fd_scp_recompute")

        oracle_r_u, oracle_r_eq = _num(rec, "oracle_r_u"), _num(rec, "oracle_r_eq")
        if oracle_r_u is not None:
            oracle_gap = max(oracle_gap, abs(r_u - oracle_r_u))
        if oracle_r_eq is not None:
            shortfall = oracle_r_eq - r_eq
            oracle_gap = max(oracle_gap, shortfall)
            if shortfall > RATE_TOL:
                reject(i, "oracle_shortfall")

        if scheme in HD_SCHEMES:
            ref_u, ref_d = hd_reference(scheme, p)
            ref_eq = equal_rate(scheme, ref_u, ref_d)
            r_ref_values.append(ref_eq)
            if max(abs(r_u - ref_u), abs(r_d - ref_d), abs(r_eq - ref_eq)) > RATE_TOL:
                reject(i, "hd_reference")
    if len(records) > len(expected):
        reject(len(expected) - 1, "rows")
    return rejected, r_eq_values, r_ref_values, oracle_gap


def check_child(sweep, csv_path, exit_code: int, log_text: str, fdcran) -> Verdict:
    """Verdict on one child: exit code 0, or 4 with its flagged rows, and a
    CSV that passes the row checks."""
    expected = sweep.rows()
    verdict = Verdict(attempted=len(expected))
    if exit_code not in (0, 4):
        verdict.crashed = True
        return verdict
    try:
        records = _read(csv_path)
    except (OSError, csv.Error, UnicodeDecodeError):
        verdict.crashed = True
        return verdict
    if exit_code == 4:
        verdict.flagged = flagged_rows(log_text, expected) or set(range(len(expected)))
    verdict.rejected, verdict.r_eq, verdict.r_ref, verdict.oracle_gap = check_rows(
        sweep.var, expected, records, fdcran
    )
    return verdict
