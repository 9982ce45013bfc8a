"""Set-up probe: a fresh interpreter imports fdcran and builds the sweep specs
of one workload through the public API, computing no row.

    python3 perfbench/setup_probe.py preset:fig3 verify
    python3 perfbench/setup_probe.py config:a.cfg config:b.cfg
"""

import sys
from dataclasses import replace

import fdcran

specs = []
for arg in sys.argv[1:]:
    kind, _, value = arg.partition(":")
    if kind == "preset":
        specs.append(fdcran.preset_spec(value))
    elif kind == "config":
        with open(value, encoding="utf-8") as fh:
            specs.append(fdcran.parse_config(fh.read()))
    elif kind == "verify":
        specs[-1] = replace(specs[-1], oracle=True)
    else:
        sys.exit(f"unknown probe argument {arg!r}")
if not specs:
    sys.exit("nothing to set up")
