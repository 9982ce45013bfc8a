"""Command line: single-point rate computation and declarative sweeps.

Exit codes: 0 success, 2 configuration error, 3 numeric-domain error
(including a singular zero-forcing inversion or a rate that overflows), 4
oracle verification failure.  Rates are exact closed forms: no quadrature flag.
Every full-duplex power search, SIC's at its best carried uplink rate, is
exact on the budget edges: no grid flag.
"""

import argparse
import gc
import math
import sys
from dataclasses import fields, replace

from .config import ConfigError, SweepBase, SweepSpec, base_params, parse_config, preset_spec
from .model import NumericDomainError, SchemeId
from .rates import compute_scheme
from .svg import emit_svg
from .sweep import VerificationError, emit_csv, oracle_gaps, run_sweep, verification_failures

__all__ = ["main", "run"]

# help text of the compute flag for each SweepBase field
_BASE_HELP = {
    "alpha": "inter-cell gain",
    "beta_du": "inter-cell D-U gain",
    "beta_ud": "inter-cell U-D gain",
    "gamma_du": "self-interference gain (inert)",
    "gamma_ud": "intra-cell U-D gain",
    "p_u_db": "uplink budget in dB",
    "p_d_db": "downlink budget in dB",
    "c_u": "uplink fronthaul, bits/s/Hz",
    "c_d": "downlink fronthaul, bits/s/Hz",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdcran",
        description=(
            "Per-cell achievable rates for half/full-duplex cellular systems "
            "under single-cell processing or C-RAN operation.  Full-duplex powers "
            "are searched exactly on the budget edges, SIC at its best carried "
            "uplink rate."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser(
        "compute", help="evaluate one scheme at one operating point"
    )
    compute.add_argument(
        "--scheme",
        required=True,
        choices=[s.value for s in SchemeId],
        help="scheme to evaluate",
    )
    for f in fields(SweepBase):
        flag = "--" + f.name.replace("_", "-")
        compute.add_argument(flag, type=float, default=f.default, help=_BASE_HELP[f.name])
    compute.add_argument(
        "--full-power",
        action="store_true",
        help="full-duplex schemes: spend both budgets instead of optimizing "
        "(half-duplex schemes always do)",
    )

    sweep = sub.add_parser("sweep", help="run a declarative parameter sweep")
    sweep.add_argument("--config", help="config file (key = value lines)")
    sweep.add_argument("--preset", choices=["fig2", "fig3"], help="built-in sweep")
    sweep.add_argument("--out", required=True, help="CSV output path")
    sweep.add_argument("--svg", help="also render an SVG line chart here")
    sweep.add_argument(
        "--verify",
        action="store_true",
        help="append oracle columns and fail on disagreement beyond tolerance",
    )
    return parser


def _cmd_compute(args) -> int:
    import json  # only compute prints JSON; a sweep process skips the import

    base = SweepBase(**{f.name: getattr(args, f.name) for f in fields(SweepBase)})
    params = base_params(**vars(base))
    result = compute_scheme(SchemeId(args.scheme), params, full_power=args.full_power)

    def clean(x: float):
        return x if math.isfinite(x) else None

    payload = {
        "scheme": args.scheme,
        "r_u": clean(result.r_u),
        "r_d": clean(result.r_d),
        "r_eq": clean(result.r_eq),
        "diagnostics": {k: clean(v) for k, v in result.diagnostics.items()},
    }
    print(json.dumps(payload, indent=2))
    return 0


def _load_spec(args) -> SweepSpec:
    if args.config is None and args.preset is None:
        raise ConfigError("either --config or --preset is required")
    spec = preset_spec(args.preset) if args.preset else None
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}") from None
        spec = parse_config(text, defaults=spec)
    return replace(spec, oracle=True) if args.verify else spec


def _cmd_sweep(args) -> int:
    spec = _load_spec(args)
    rows = run_sweep(spec)
    try:
        emit_csv(rows, args.out)
        if args.svg:
            emit_svg(rows, args.svg)
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from None
    if spec.oracle:
        failures = verification_failures(rows)
        if failures:
            raise VerificationError(failures)
        for line in oracle_gaps(rows):
            print(line, file=sys.stderr)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "compute":
            return _cmd_compute(args)
        return _cmd_sweep(args)
    except NumericDomainError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except OverflowError as exc:
        # a finite input whose square or power exceeds a float, e.g. a gain of 1e200
        print(f"numeric error: float overflow ({exc.args[-1]})", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print("verification failed:", file=sys.stderr)
        for failure in exc.failures:
            print(f"  {failure}", file=sys.stderr)
        return 4
    except ValueError as exc:
        # a ConfigError, a bad flag combination or an out-of-range parameter
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """Process entry of ``fdcran`` and ``python -m fdcran``: main() on the
    command line's arguments, then exit with its code.

    gc.freeze() first moves every object left alive into the collector's
    permanent generation, so interpreter teardown skips its collection pass
    over them: about 8 ms of a half-duplex sweep process's exit, and 17 ms of
    one that loaded numpy.
    Unlike os._exit, sys.exit still runs atexit handlers and flushes the
    standard streams.  main() does not freeze, so in-process callers keep
    their collector as it was."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
