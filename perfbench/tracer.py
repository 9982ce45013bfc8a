"""Outside-in layer trace of one `fdcran` run.

As a script it is the traced child:

    python3 perfbench/tracer.py SPANS.json sweep --preset fig2 --out fig2.csv

It rebinds the public functions that each module's callers resolve through
their own module globals, so every call across a layer boundary records a
span (name, start, end, parent span, row id, detail), then calls
fdcran.cli.main with the remaining arguments.  Spans stay in memory and are
written to SPANS.json when main returns; the child exits with main's code.
A binding that the program no longer has is listed as absent.

As a module, layer_metrics() turns the span files of one traced iteration
into the per-layer metrics.
"""

import importlib
import json
import os
import statistics
import sys
import time

from workloads import SCHEMES

# (module, global name) -> span name; callers resolve these names at call time
BINDINGS = {
    ("fdcran.rates", "rate_integral"): "spectral.rate_integral",
    ("fdcran.rates", "zf_precoder"): "spectral.zf_precoder",
    ("fdcran.rates", "rg"): "spectral.rg",
    ("fdcran.rates", "h_tilde"): "spectral.h_tilde",
    ("fdcran.sweep", "compute_scheme"): "rates.compute_scheme",
    ("fdcran.sweep", "exhaustive_power_opt"): "oracle.exhaustive_power_opt",
    ("fdcran.sweep", "circulant_uplink_rate"): "oracle.circulant_uplink_rate",
    ("fdcran.cli", "run_sweep"): "sweep.run_sweep",
    ("fdcran.cli", "emit_csv"): "sweep.emit_csv",
    ("fdcran.cli", "emit_svg"): "svg.emit_svg",
    ("fdcran.cli", "verification_failures"): "sweep.verification_failures",
}
ROW_SPAN = "rates.compute_scheme"  # one call per CSV row
TAIL_BEYOND = 10  # samples the tail percentile must leave above it


def _detail(name, args, kwargs, result, default_panels):
    """Per-call counts measured at the boundary."""
    if name == "spectral.rate_integral":
        panels = kwargs.get("panels", args[2] if len(args) > 2 else default_panels)
        return [int(getattr(args[0], "size", 1)), int(panels)]
    if name == ROW_SPAN:
        return getattr(args[0], "value", str(args[0]))
    if name in ("sweep.emit_csv", "svg.emit_svg"):
        return os.path.getsize(args[1])
    if name == "sweep.verification_failures":
        return len(result)
    return None


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, row, detail]
        self.stack = []
        self.rows = 0

    def span(self, name, fn, default_panels=None):
        def traced(*args, **kwargs):
            if name == ROW_SPAN:
                self.rows += 1
            row = self.rows if self._in_rows() else None
            record = [name, 0.0, 0.0, self.stack[-1] if self.stack else None, row, None]
            index = len(self.spans)
            self.spans.append(record)
            self.stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self.stack.pop()
            record[5] = _detail(name, args, kwargs, result, default_panels)
            return result

        return traced

    def _in_rows(self):
        return any(self.spans[i][0] == "sweep.run_sweep" for i in self.stack)


def run(spans_path, argv) -> int:
    tracer = Tracer()
    t0 = time.perf_counter()
    import fdcran.cli

    imported = time.perf_counter()
    default_panels = getattr(fdcran, "DEFAULT_PANELS", 4096)
    absent = []
    for (module_name, attr), name in BINDINGS.items():
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            absent.append(name)
            continue
        setattr(module, attr, tracer.span(name, fn, default_panels))
    main = tracer.span("cli.main", fdcran.cli.main)
    try:
        code = main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(
                {"import_s": imported - t0, "absent": absent, "spans": tracer.spans},
                fh,
            )
    return code


# ----------------------------------------------------------------------------
# aggregation in the benchmark process


def _tail(samples):
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it."""
    n = len(samples)
    if n <= TAIL_BEYOND:
        return 0.0, 0.0
    ordered = sorted(samples)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def layer_metrics(span_files, traced_wall_s: float) -> tuple[dict, list]:
    """Per-layer metrics from the span files of one traced iteration.

    Returns (metrics, absent bindings).  Self time is a span's duration minus
    the durations of its child spans.
    """
    calls, self_s, detail_sum = {}, {}, {}
    row_ms = {s: [] for s in SCHEMES}
    evals = 0
    import_s = spanned_s = 0.0
    span_count = 0
    absent = set()
    for path in span_files:
        if not os.path.exists(path):  # the child was killed before writing
            continue
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        absent.update(data["absent"])
        spans = data["spans"]
        import_s += data["import_s"]
        span_count += len(spans)
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        for i, (name, start, end, parent, _, detail) in enumerate(spans):
            key = name
            if name == ROW_SPAN:
                key = f"{name}.{detail}"
                row_ms.setdefault(detail, []).append(1e3 * (end - start))
            calls[key] = calls.get(key, 0) + 1
            own = (end - start) - child_time[i]
            self_s[key] = self_s.get(key, 0.0) + own
            spanned_s += own
            if name == "spectral.rate_integral":
                values, panels = detail
                evals += values * (panels // 2 + 1)
            elif isinstance(detail, int):
                detail_sum[name] = detail_sum.get(name, 0) + detail

    m = {}
    for name in (
        "spectral.rate_integral",
        "spectral.zf_precoder",
        "spectral.h_tilde",
        "spectral.rg",
        "oracle.exhaustive_power_opt",
        "oracle.circulant_uplink_rate",
    ):
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
        m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    m["spectral.rate_integral.evals"] = (evals, "count")
    m["spectral.rate_integral.bytes"] = (8 * evals, "B")
    for scheme in SCHEMES:
        key = f"{ROW_SPAN}.{scheme}"
        samples = row_ms.get(scheme, [])
        tail, pct = _tail(samples)
        m[f"{key}.calls"] = (calls.get(key, 0), "count")
        m[f"{key}.self_s"] = (self_s.get(key, 0.0), "s")
        m[f"{key}.ms_p50"] = (statistics.median(samples) if samples else 0.0, "ms")
        m[f"{key}.ms_tail"] = (tail, "ms")
        m[f"{key}.ms_tail_pct"] = (pct, "%")
    m["sweep.run_sweep.self_s"] = (self_s.get("sweep.run_sweep", 0.0), "s")
    m["sweep.emit_csv.self_s"] = (self_s.get("sweep.emit_csv", 0.0), "s")
    m["sweep.emit_csv.bytes"] = (detail_sum.get("sweep.emit_csv", 0), "B")
    m["svg.emit_svg.self_s"] = (self_s.get("svg.emit_svg", 0.0), "s")
    m["svg.emit_svg.bytes"] = (detail_sum.get("svg.emit_svg", 0), "B")
    m["sweep.verification_failures.self_s"] = (
        self_s.get("sweep.verification_failures", 0.0),
        "s",
    )
    m["sweep.verification_failures.flagged"] = (
        detail_sum.get("sweep.verification_failures", 0),
        "count",
    )
    m["cli.main.self_s"] = (self_s.get("cli.main", 0.0), "s")
    m["cli.import_s"] = (import_s, "s")
    m["trace.wall_s"] = (traced_wall_s, "s")
    m["trace.spans"] = (span_count, "count")
    m["trace.spanned_frac"] = ((spanned_s + import_s) / traced_wall_s, "ratio")
    # interpreter start-up and exit of the traced children, outside any span
    m["trace.unspanned_s"] = (traced_wall_s - spanned_s - import_s, "s")
    return m, sorted(absent)


if __name__ == "__main__":
    if len(sys.argv) < 3:
        sys.exit("usage: tracer.py SPANS.json FDCRAN-ARGS...")
    sys.exit(run(sys.argv[1], sys.argv[2:]))
