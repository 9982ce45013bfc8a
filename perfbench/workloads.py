"""The benchmark's workloads, described independently of the program.

A workload is a list of sweeps, each run as one `fdcran sweep` child process.
The benchmark keeps its own description of every sweep (base point, swept
variable, grid, schemes) so that it can check each CSV row against the
parameters that produced it without reading them back from the program.
"""

import math
from dataclasses import dataclass, field

SCHEMES = ("hd_scp", "hd_cran", "fd_scp", "fd_scp_sic", "fd_cran", "fd_cran_sic")
HD_SCHEMES = ("hd_scp", "hd_cran")
CRAN_SCHEMES = ("hd_cran", "fd_cran", "fd_cran_sic")

# the paper's baseline point, as documented for the fig2/fig3 presets
PAPER_BASE = {
    "alpha": 0.4,
    "beta_du": 0.4,
    "beta_ud": 0.04,
    "gamma_du": 0.0,
    "gamma_ud": 4.0,
    "p_u_db": 20.0,
    "p_d_db": 20.0,
    "c_u": 10.0,
    "c_d": 10.0,
}

# Mean r_eq of the fixed sweeps at the commit that introduced this benchmark.
# r_eq_rel divides by it, so that a worse optimum reads as a ratio below 1.
SEED_R_EQ_MEAN = {"fig2": 1.3074443412186667, "fig3_verify": 1.839670241520202}


@dataclass(frozen=True)
class Sweep:
    """One `fdcran sweep` invocation and the rows it must produce."""

    var: str
    start: float
    stop: float
    step: float
    base: dict = field(default_factory=lambda: dict(PAPER_BASE))
    schemes: tuple = SCHEMES
    preset: str | None = None  # run as --preset instead of --config
    verify: bool = False
    svg: bool = True

    def values(self) -> list[float]:
        """The sweep grid, by the rule the config format documents."""
        count = int(math.floor((self.stop - self.start) / self.step + 1e-9)) + 1
        return [self.start + i * self.step for i in range(count)]

    def point(self, value: float) -> dict:
        """Config-surface parameters (powers in dB) with the swept variable set."""
        p = dict(self.base)
        if self.var == "c_u_c_d_joint":
            p["c_u"] = p["c_d"] = value
        elif self.var == "p_db_joint":
            p["p_u_db"] = p["p_d_db"] = value
        else:
            p[self.var] = value
        p["p_u"] = 10.0 ** (p["p_u_db"] / 10.0)
        p["p_d"] = 10.0 ** (p["p_d_db"] / 10.0)
        return p

    def rows(self) -> list[tuple[float, str, dict]]:
        """Expected rows in CSV order: sweep value major, scheme minor."""
        return [(v, s, self.point(v)) for v in self.values() for s in self.schemes]

    def config_text(self) -> str:
        lines = [f"base.{key} = {value!r}" for key, value in self.base.items()]
        lines += [
            f"sweep.var = {self.var}",
            f"sweep.start = {self.start!r}",
            f"sweep.stop = {self.stop!r}",
            f"sweep.step = {self.step!r}",
            "schemes = " + ", ".join(self.schemes),
        ]
        return "\n".join(lines) + "\n"


FIG2 = Sweep("c_u_c_d_joint", 0.0, 12.0, 0.5, preset="fig2")
FIG3_VERIFY = Sweep("gamma_ud", 0.0, 8.0, 0.25, preset="fig3", verify=True, svg=False)


def shared_alpha_frac(sweeps) -> float:
    """Share of C-RAN rows (the rows that build a ZF precoder) whose alpha
    equals that of the previous C-RAN row of the same sweep."""
    total = shared = 0
    for sweep in sweeps:
        previous = None
        for _, scheme, p in sweep.rows():
            if scheme not in CRAN_SCHEMES:
                continue
            total += 1
            shared += previous == p["alpha"]
            previous = p["alpha"]
    return shared / total if total else 0.0


def fixed(name: str) -> list[Sweep]:
    return {"fig2": [FIG2], "fig3_verify": [FIG3_VERIFY]}[name]


def describe(sweeps) -> dict:
    rows = sum(len(s.rows()) for s in sweeps)
    return {"sweeps": len(sweeps), "rows": rows, "shared_alpha_frac": shared_alpha_frac(sweeps)}

