"""End-to-end benchmark of the integrated task/data-parallel runtime.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload stencil --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing installed on the
machine.  ``--trace 1`` is the separate traced run: half the time with the
tracer installed (per-layer spans and counts), then the tracer is removed,
the machine is checked to be back to an empty transport stack with no
observer, and the other half runs untraced for the exact traffic counters
and for ``trace_overhead_frac``.  The spans and counts of a traced run are
written to ``.bench_out/trace-<workload>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md in
this directory for the workloads, the metrics and the layer map.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Set-ups per run; setup_s is their median.
SETUPS = 41


def end_to_end(setups, tally) -> dict:
    lat = tally.latencies
    return {
        "throughput_per_s": (tally.throughput(), "1/s", len(tally.rates)),
        "latency_p50_ms": (statistics.median(lat) * 1e3 if lat else 0.0, "ms", len(lat)),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1,
        ),
    }


def perf_counters(machine) -> tuple:
    diag = machine.diagnostics()["perf"]
    return dict(diag["coalescer"]), dict(diag["comm_plans"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS, Tally

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    wl = WORKLOADS[args.workload](args.seed)
    setup_tally = Tally()
    setups = []
    for _ in range(SETUPS):
        # The previous set-up's runtime is garbage now; collect it outside
        # the timed region.
        gc.collect()
        t0 = time.perf_counter()
        ok = wl.setup()
        setups.append(time.perf_counter() - t0)
        setup_tally.attempted += 1
        if not ok:
            setup_tally.fail(f"{wl.name} warm-up result is wrong")
    gc.collect()

    extras: dict = {}
    if args.trace:
        tallies, metrics, extras = traced_run(wl, args)
    else:
        tally = Tally()
        wl.run(time.perf_counter() + args.seconds, tally)
        wl.finish(tally)
        tallies = [tally]
        metrics = end_to_end(setups, tally)

    attempted = setup_tally.attempted + sum(t.attempted for t in tallies)
    failed = setup_tally.failed + sum(t.failed for t in tallies)
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}")
    print(f"unit of work: {wl.unit}; latency: {wl.latency_of}")
    for name, (value, unit, samples) in {**metrics, **extras}.items():
        print(f"  {name:40s} {value:16.6g} {unit:8s} n={samples}")
    print(f"  {'error_rate':40s} {failed / attempted:16.6g} {'':8s} n={attempted}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in metrics.items()
        },
    }))
    return 0


def traced_run(wl, args):
    from tracing import LAYER_UNITS, WORKLOAD_UNITS, Tracer, layer_metrics
    from workloads import Tally

    machine = wl.rt.machine
    half = args.seconds / 2.0
    traced = Tally()
    with Tracer(wl) as tracer:
        wl.run(time.perf_counter() + half, traced)

    # The untraced half must run on a bare machine.
    isolation = Tally(attempted=1)
    if len(machine.transport_stack) != 0 or machine.observer is not None:
        isolation.fail("tracer left an interceptor or observer installed")

    plain = Tally()
    coalescer0, _ = perf_counters(machine)
    traffic0 = machine.traffic_snapshot()
    wl.run(time.perf_counter() + half, plain)
    traffic1 = machine.traffic_snapshot()
    coalescer1, plans = perf_counters(machine)
    wl.finish(plain)

    perf_delta = {
        key: coalescer1[key] - coalescer0[key]
        for key in ("flushes", "flushed_ops", "retries", "lost_batches")
    }
    check = plain.extra.get("check_traffic", {})
    traffic = {k: traffic1[k] - traffic0[k] - check.get(k, 0) for k in traffic0}
    values = layer_metrics(wl, tracer, traced, plain, perf_delta, traffic, plans)
    write_trace(wl, args, tracer, values)
    metrics, extras = (
        {
            name: (values[name], unit, traced.units)
            for name, unit in units.items()
        }
        for units in (LAYER_UNITS, WORKLOAD_UNITS)
    )
    return [traced, isolation, plain], metrics, extras


def write_trace(wl, args, tracer, values) -> None:
    """Spans and counts of the traced half, written once the run ends."""
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    payload = {
        "workload": wl.name,
        "seed": args.seed,
        "span_fields": ["id", "name", "start", "end", "parent", "unit", "tag"],
        "spans": tracer.spans.rows,
        "spans_dropped": tracer.spans.dropped,
        "messages_by_kind": {
            kind: dict(zip(("messages", "nbytes", "payload_bytes"), row))
            for kind, row in tracer.interceptor.by_kind.items()
        },
        "observer_metrics": tracer.metrics,
        "per_layer": values,
    }
    with open(out / f"trace-{wl.name}.json", "w") as fh:
        json.dump(payload, fh, default=str)


if __name__ == "__main__":
    sys.exit(main())
