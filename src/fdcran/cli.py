"""Command line: single-point rate computation and declarative sweeps.

Exit codes: 0 success, 2 configuration error, 3 numeric-domain error
(including a singular zero-forcing inversion or a rate that overflows), 4
oracle verification failure.  Rates are exact closed forms: no quadrature flag.
"""

import argparse
import json
import math
import sys
from dataclasses import replace

from .model import NumericDomainError, SchemeId, SystemParams, db_to_linear
from .rates import DEFAULT_GRID, compute_scheme
from .svg import PlotSpec, emit_svg
from .sweep import (
    ConfigError,
    SweepSpec,
    VerificationError,
    emit_csv,
    oracle_gaps,
    parse_config,
    preset_spec,
    run_sweep,
    verification_failures,
)

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdcran",
        description=(
            "Per-cell achievable rates for half/full-duplex cellular systems "
            "under single-cell processing or C-RAN operation."
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
    compute.add_argument("--alpha", type=float, default=0.4, help="inter-cell gain")
    compute.add_argument("--beta-du", type=float, default=0.4, help="inter-cell D-U gain")
    compute.add_argument("--beta-ud", type=float, default=0.04, help="inter-cell U-D gain")
    compute.add_argument("--gamma-du", type=float, default=0.0, help="self-interference gain (inert)")
    compute.add_argument("--gamma-ud", type=float, default=4.0, help="intra-cell U-D gain")
    compute.add_argument("--p-u-db", type=float, default=20.0, help="uplink budget in dB")
    compute.add_argument("--p-d-db", type=float, default=20.0, help="downlink budget in dB")
    compute.add_argument("--c-u", type=float, default=10.0, help="uplink fronthaul, bits/s/Hz")
    compute.add_argument("--c-d", type=float, default=10.0, help="downlink fronthaul, bits/s/Hz")
    compute.add_argument("--grid", type=int, default=DEFAULT_GRID, help="SIC power-scan resolution")
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
    sweep.add_argument("--grid", type=int, help="override SIC power-scan resolution")
    return parser


def _cmd_compute(args) -> int:
    params = SystemParams(
        alpha=args.alpha,
        beta_du=args.beta_du,
        beta_ud=args.beta_ud,
        gamma_du=args.gamma_du,
        gamma_ud=args.gamma_ud,
        p_u_max=db_to_linear(args.p_u_db),
        p_d_max=db_to_linear(args.p_d_db),
        c_u=args.c_u,
        c_d=args.c_d,
    )
    result = compute_scheme(
        SchemeId(args.scheme), params, grid=args.grid, full_power=args.full_power
    )

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
    overrides = {}
    if args.grid is not None:
        overrides["grid"] = args.grid
    if args.verify:
        overrides["oracle"] = True
    return replace(spec, **overrides) if overrides else spec


def _cmd_sweep(args) -> int:
    spec = _load_spec(args)
    rows = run_sweep(spec)
    emit_csv(rows, args.out)
    if args.svg:
        emit_svg(rows, args.svg, PlotSpec(x_label=spec.sweep_var))
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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
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
        # bad flag combinations and out-of-range parameters count as config errors
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
