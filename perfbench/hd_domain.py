"""Seeded generator of the hd_domain workload: half-duplex sweeps over the
paper's parameter domain, written out as `fdcran sweep --config` files.

    python3 perfbench/hd_domain.py --seed 7 --out DIR

Each sweep has a random base point with alpha in [0, 0.5), budgets of 0-30 dB,
and fronthaul capacities drawn from 0-12 bits/s/Hz or the "unconstrained"
value 1000.  The mix of swept variables is fixed so that the cost of a run
does not depend on the seed: alpha sweeps give every row a new alpha (a new
ZF precoder), while the c_u_c_d_joint and p_db_joint sweeps keep one alpha for
all rows.  Each sweep covers the whole range of its variable on a grid whose
offset is drawn from the seed.
"""

import argparse
import json
import os
import random

from workloads import HD_SCHEMES, Sweep, describe

SWEEPS_PER_KIND = 2
POINTS_PER_SWEEP = 834  # 6 sweeps x 834 points x 2 schemes = 10008 rows
RANGES = {"alpha": (0.0, 0.5), "c_u_c_d_joint": (0.0, 12.0), "p_db_joint": (0.0, 30.0)}
UNCONSTRAINED_C = 1000.0
UNCONSTRAINED_SHARE = 0.25


def generate(seed: int) -> list[Sweep]:
    rng = random.Random(seed)

    def capacity() -> float:
        if rng.random() < UNCONSTRAINED_SHARE:
            return UNCONSTRAINED_C
        return rng.uniform(0.0, 12.0)

    kinds = [kind for kind in RANGES for _ in range(SWEEPS_PER_KIND)]
    rng.shuffle(kinds)
    sweeps = []
    for kind in kinds:
        base = {
            "alpha": rng.uniform(0.0, 0.5),
            "beta_du": rng.uniform(0.0, 1.0),
            "beta_ud": rng.uniform(0.0, 1.0),
            "gamma_du": 0.0,
            "gamma_ud": rng.uniform(0.0, 8.0),
            "p_u_db": rng.uniform(0.0, 30.0),
            "p_d_db": rng.uniform(0.0, 30.0),
            "c_u": capacity(),
            "c_d": capacity(),
        }
        lo, hi = RANGES[kind]
        # the grid stays strictly below hi, which keeps alpha < 0.5
        step = (hi - lo) / POINTS_PER_SWEEP
        start = lo + rng.random() * step
        stop = start + (POINTS_PER_SWEEP - 1) * step
        sweeps.append(Sweep(kind, start, stop, step, base=base, schemes=HD_SCHEMES))
    return sweeps


def write_configs(sweeps, out_dir) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for i, sweep in enumerate(sweeps):
        path = os.path.join(out_dir, f"sweep{i}.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(sweep.config_text())
        paths.append(path)
    return paths


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the config files")
    args = parser.parse_args()
    sweeps = generate(args.seed)
    paths = write_configs(sweeps, args.out)
    print(json.dumps({"seed": args.seed, "configs": paths, **describe(sweeps)}))


if __name__ == "__main__":
    main()
