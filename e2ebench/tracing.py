"""The traced run: spans, message counts and per-layer metrics.

Everything here measures the program from outside.  A :class:`Tracer`

* records the benchmark's own spans (name, start, end, parent, unit id)
  around calls into each layer's public functions, through shims that it
  installs on entry and removes on exit: ``IntegratedRuntime.call`` and the
  SPMD program passed to it (``repro.calls``/``repro.spmd``), the
  ``allreduce``/``allgather`` collectives (``repro.spmd``), element and
  region access on ``DistributedArray`` (``repro.arrays``), parallel
  composition ``par`` (``repro.pcn``) and the stage bodies of a
  ``Pipeline`` (``repro.core``);
* pushes a counting interceptor through the public
  ``Machine.transport_stack.push``, which sizes payloads recursively;
* enables ``Machine.observe()`` for the mailbox receive-wait histogram and
  the DefVar suspension counter.

An installed interceptor disables the machine's same-node routing fast
path, so end-to-end numbers never come from a traced phase.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import statistics
import threading
import time
from typing import Any, Optional

import numpy as np

from repro import DistributedArray
from repro.apps import polymul
from repro.pcn import composition
from repro.spmd import collectives
from workloads import CHECK_TRACE, Stencil, serial_sweep_ms

# Message kinds reported under vp.msgs_by_kind.<kind>; any other kind is
# counted under "other".
KINDS = ("user", "server_request", "replica_update", "array_batch", "halo_bulk")
# The polymul pipeline's stage names (core.stage_busy_frac.<stage>).
STAGES = ("phase1-inverse-fft", "combine", "phase2-forward-fft")
FFT_PROGRAMS = ("fft_reverse", "fft_natural")

# Every per-layer metric of BENCHMARK.json with its unit: the ones the
# gated workloads (stencil, solve_farm) exercise.  Each is reported on every
# workload, reading 0 where a workload does not exercise the layer, and
# every time among them is measured by both gated workloads.
LAYER_UNITS = {
    "latency_p90_ms": "ms",
    "calls.count_per_unit": "count",
    "calls.wall_ms_p50": "ms",
    "calls.overhead_ms_p50": "ms",
    "spmd.program_ms_p50": "ms",
    "spmd.copy_skew_ms": "ms",
    "arrays.region_read_ms_p50": "ms",
    "arrays.region_ops_per_unit": "count",
    "arrays.io_share": "fraction",
    "perf.halo_msgs_per_sweep": "count",
    "perf.halo_bytes_per_sweep": "B",
    "perf.plan_hit_ratio": "fraction",
    "spmd.serial_sweep_ms": "ms",
    "spmd.stencil_vs_serial": "ratio",
    "spmd.allreduce_us_p50": "us",
    "spmd.allreduce_count_per_solve": "count",
    "spmd.cg_iterations": "count",
    "vp.msgs_per_unit": "count",
    "vp.bytes_per_unit": "B",
    **{f"vp.msgs_by_kind.{kind}": "count" for kind in KINDS + ("other",)},
    "vp.payload_bytes_per_unit": "B",
    "vp.recv_wait_ms_per_unit": "ms",
    "pcn.defvar_suspensions_per_unit": "count",
    "core.farm_load_imbalance": "ratio",
    "core.farm_idle_frac": "fraction",
    "trace_overhead_frac": "fraction",
}
# Metrics only the ungated workloads (polymul_pipeline, element_mix) or one
# gated workload exercise.  They are printed and written to the trace file
# but kept out of the result line: there they would read 0 on every run,
# and a time that never changes looks like a constant.
WORKLOAD_UNITS = {
    "arrays.read_element_us_p50": "us",
    "arrays.write_element_us_p50": "us",
    "arrays.element_op_p99_us": "us",
    "arrays.replica_msgs_per_write": "count",
    "arrays.region_write_ms_p50": "ms",
    "perf.coalesced_ops_per_flush": "count",
    "perf.flushes_per_read": "count",
    "perf.coalescer_retries": "count",
    "perf.lost_batches": "count",
    "spmd.allgather_us_p50": "us",
    "spmd.fft_ms_p50": "ms",
    **{f"core.stage_busy_frac.{stage}": "fraction" for stage in STAGES},
    "core.pipeline_overlap_frac": "fraction",
}


class SpanRecorder:
    """In-memory spans: ``(id, name, start, end, parent, unit, tag)``.

    The parent and unit id are inherited through a thread-local; code that
    hops threads (an SPMD copy, a collective inside it) is handed its
    parent explicitly.
    """

    def __init__(self, limit: int = 1_000_000) -> None:
        self.rows: list = []
        self.limit = limit
        self.dropped = 0
        self._ids = itertools.count(1)
        self._local = threading.local()

    def current(self) -> tuple:
        return getattr(self._local, "ctx", (None, None))

    @contextlib.contextmanager
    def span(self, name: str, unit: Optional[int] = None,
             parent: Optional[tuple] = None, tag: Any = None):
        parent_id, parent_unit = parent if parent is not None else self.current()
        span_id = next(self._ids)
        if unit is None:
            unit = parent_unit
        saved = self.current()
        self._local.ctx = (span_id, unit)
        start = time.perf_counter()
        try:
            yield (span_id, unit)
        finally:
            end = time.perf_counter()
            self._local.ctx = saved
            self._keep((span_id, name, start, end, parent_id, unit, tag))

    def add(self, name: str, start: float, end: float, unit: int) -> None:
        """Record a span whose times the program measured itself."""
        self._keep((next(self._ids), name, start, end, None, unit, None))

    def _keep(self, row: tuple) -> None:
        if len(self.rows) < self.limit:
            self.rows.append(row)
        else:
            self.dropped += 1


def payload_nbytes(obj: Any, depth: int = 0) -> int:
    """Payload size: an object's own ``nbytes`` when it declares one,
    otherwise the sum over the items of tuples, lists and dicts and the
    fields of dataclasses (``Message.nbytes`` counts a tuple or list as 8 B
    per item).  Scalars and opaque objects count 8 B."""
    declared = getattr(obj, "nbytes", None)
    if isinstance(declared, (int, np.integer)):
        return int(declared)
    if isinstance(obj, (bytes, bytearray, str)):
        return len(obj)
    if depth >= 6:
        return 8
    if isinstance(obj, (list, tuple, set, frozenset)):
        return sum(payload_nbytes(item, depth + 1) for item in obj) or 8
    if isinstance(obj, dict):
        return sum(
            payload_nbytes(k, depth + 1) + payload_nbytes(v, depth + 1)
            for k, v in obj.items()
        ) or 8
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sum(
            payload_nbytes(getattr(obj, f.name), depth + 1)
            for f in dataclasses.fields(obj)
        ) or 8
    return 8


class CountingInterceptor:
    """Transport-stack layer counting messages, ``Message.nbytes()`` and
    recursively sized payload bytes per envelope kind.  Traffic of the
    benchmark's own correctness checks is not counted."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.by_kind: dict = {}

    def __call__(self, message: Any, forward: Any) -> None:
        if message.trace_id == CHECK_TRACE:
            forward(message)
            return
        size = payload_nbytes(message.payload)
        with self._lock:
            row = self.by_kind.setdefault(message.kind, [0, 0, 0])
            row[0] += 1
            row[1] += message.nbytes()
            row[2] += size
        forward(message)

    def totals(self, kind: Optional[str] = None) -> list:
        with self._lock:
            rows = [
                r for k, r in self.by_kind.items() if kind is None or k == kind
            ]
        return [sum(r[i] for r in rows) for i in range(3)]


class Tracer:
    """Installs every shim, the interceptor and the observer on entry;
    removes all of them on exit."""

    def __init__(self, workload: Any) -> None:
        self.workload = workload
        self.spans = SpanRecorder()
        self.interceptor = CountingInterceptor()
        self.metrics: dict = {}
        self._stack = contextlib.ExitStack()

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self._stack.close()
            raise
        return self

    def _install(self) -> None:
        wl = self.workload
        machine = wl.rt.machine
        stack = self._stack
        machine.transport_stack.push(self.interceptor)
        stack.callback(machine.transport_stack.remove, self.interceptor)
        observer = machine.observe(spans=False, messages=False)
        stack.callback(observer.close)
        stack.callback(self._keep_metrics, observer)

        self._shim_call(wl.rt)
        for name in ("allreduce", "allgather"):
            self._patch(collectives, name, self._timed(
                getattr(collectives, name), f"spmd.{name}", rank_tag=True
            ))
        for attr, span_name in (
            ("__getitem__", "arrays.read_element"),
            ("__setitem__", "arrays.write_element"),
            ("read_region", "arrays.region_read"),
            ("write_region", "arrays.region_write"),
        ):
            self._patch(
                DistributedArray, attr,
                self._timed(getattr(DistributedArray, attr), span_name),
            )
        par = self._par_shim(composition.par)
        self._patch(composition, "par", par)
        self._patch(polymul, "par", par)
        pipeline = getattr(wl, "pipeline", None)
        if pipeline is not None:
            for stage in pipeline.stages:
                self._patch(stage, "work", self._stage_shim(stage))
        self._patch(wl, "probe", self.spans)

    def __exit__(self, *exc_info: Any) -> None:
        self._stack.close()

    # -- shims ---------------------------------------------------------------

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        original = vars(owner).get(attr)
        setattr(owner, attr, replacement)
        if original is None:
            self._stack.callback(delattr, owner, attr)
        else:
            self._stack.callback(setattr, owner, attr, original)

    def _keep_metrics(self, observer: Any) -> None:
        self.metrics = observer.metrics.snapshot()

    def _shim_call(self, rt: Any) -> None:
        """``rt.call`` timed as ``calls.call``; the SPMD program it runs is
        wrapped so each copy's run is a ``spmd.program`` child span."""
        spans = self.spans
        original = rt.call

        def program_shim(program, parent):
            @functools.wraps(program)
            def timed(ctx, *args, **kwargs):
                with spans.span("spmd.program", parent=parent,
                                tag=getattr(program, "__name__", "program")):
                    return program(ctx, *args, **kwargs)

            return timed

        def call(processors, program, parameters, *args, **kwargs):
            with spans.span(
                "calls.call", tag=getattr(program, "__name__", "program")
            ) as parent:
                return original(
                    processors, program_shim(program, parent), parameters,
                    *args, **kwargs,
                )

        self._patch(rt, "call", call)

    def _par_shim(self, original):
        """``par`` runs each statement on a fresh thread; hand every one
        the caller's span so work inside keeps its unit id."""
        spans = self.spans

        def adopt(statement, parent):
            def run():
                with spans.span("pcn.process", parent=parent):
                    return statement()

            return run

        @functools.wraps(original)
        def par(*statements, **kwargs):
            with spans.span("pcn.par") as parent:
                return original(
                    *(adopt(s, parent) for s in statements), **kwargs
                )

        return par

    def _timed(self, original, span_name: str, rank_tag: bool = False):
        """``original`` timed as ``span_name``; a collective's span is
        tagged with the calling rank (its first argument is the comm)."""
        spans = self.spans

        @functools.wraps(original)
        def timed(first, *args, **kwargs):
            with spans.span(span_name, tag=first.rank if rank_tag else None):
                return original(first, *args, **kwargs)

        return timed

    def _stage_shim(self, stage: Any):
        """Stage bodies run on the pipeline's own threads, one item at a
        time in stream order, so a per-stage counter is the item id."""
        spans = self.spans
        work = stage.work
        counter = itertools.count(self.workload.items + 1)

        def timed(item):
            with spans.span(f"core.stage.{stage.name}", unit=next(counter)):
                return work(item)

        return timed


# -- derivation of the per-layer metrics ------------------------------------------


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def _metric_sum(snapshot: dict, name: str, field_name: Optional[str] = None) -> float:
    total = 0.0
    for key, sample in snapshot.items():
        if key == name or key.startswith(name + "{"):
            total += sample[field_name] if field_name else sample
    return total


def layer_metrics(wl: Any, tracer: Tracer, traced: Any, plain: Any,
                  perf_delta: dict, traffic: dict, plans: dict) -> dict:
    """Every metric of LAYER_UNITS and WORKLOAD_UNITS.  ``traced`` and
    ``plain`` are the Tallies of the traced and untraced halves; a layer a
    workload does not exercise reads 0."""
    rows = [r for r in tracer.spans.rows if r[5] is not None]
    by_name: dict = {}
    for row in rows:
        by_name.setdefault(row[1], []).append(row)

    def durations(name, scale, tag=None):
        return [
            (r[3] - r[2]) * scale for r in by_name.get(name, ())
            if tag is None or r[6] in tag
        ]

    units = traced.units
    m: dict = {
        "latency_p90_ms": float(np.percentile(plain.latencies, 90)) * 1e3
        if len(plain.latencies) else 0.0
    }

    # repro.calls / repro.spmd: a call's overhead is its wall time minus its
    # slowest copy; skew is slowest minus fastest copy.
    copies: dict = {}
    for r in by_name.get("spmd.program", ()):
        copies.setdefault(r[4], []).append(r[3] - r[2])
    calls = by_name.get("calls.call", ())
    overheads = [
        (r[3] - r[2] - max(copies[r[0]])) * 1e3 for r in calls if r[0] in copies
    ]
    skews = [(max(c) - min(c)) * 1e3 for c in copies.values()]
    m["calls.count_per_unit"] = _ratio(len(calls), units)
    m["calls.wall_ms_p50"] = _median(durations("calls.call", 1e3))
    m["calls.overhead_ms_p50"] = _median(overheads)
    m["spmd.program_ms_p50"] = _median(durations("spmd.program", 1e3))
    m["spmd.copy_skew_ms"] = _median(skews)

    # repro.arrays; the region read latency also counts the read-backs of
    # the benchmark's checks, the only region reads stencil makes.
    writes = len(by_name.get("arrays.write_element", ()))
    m["arrays.read_element_us_p50"] = _median(durations("arrays.read_element", 1e6))
    m["arrays.write_element_us_p50"] = _median(durations("arrays.write_element", 1e6))
    m["arrays.element_op_p99_us"] = (
        float(np.percentile(plain.latencies, 99)) * 1e6
        if wl.name == "element_mix" and plain.latencies else 0.0
    )
    m["arrays.replica_msgs_per_write"] = _ratio(
        tracer.interceptor.totals("replica_update")[0], writes
    )
    region_s = sum(
        r[3] - r[2] for name in ("arrays.region_read", "arrays.region_write")
        for r in by_name.get(name, ())
    )
    m["arrays.region_read_ms_p50"] = _median(
        (r[3] - r[2]) * 1e3 for r in tracer.spans.rows
        if r[1] == "arrays.region_read"
    )
    m["arrays.region_ops_per_unit"] = _ratio(
        len(by_name.get("arrays.region_read", ()))
        + len(by_name.get("arrays.region_write", ())),
        units,
    )
    m["arrays.region_write_ms_p50"] = _median(durations("arrays.region_write", 1e3))
    unit_time = (
        sum(traced.latencies) if wl.name in ("polymul_pipeline", "solve_farm") else 0.0
    )
    m["arrays.io_share"] = _ratio(region_s, unit_time)

    # repro.perf (exported counters, untraced phase)
    m["perf.coalesced_ops_per_flush"] = _ratio(
        perf_delta["flushed_ops"], perf_delta["flushes"]
    )
    m["perf.flushes_per_read"] = _ratio(
        perf_delta["flushes"], plain.extra.get("reads", 0)
    )
    m["perf.coalescer_retries"] = float(perf_delta["retries"])
    m["perf.lost_batches"] = float(perf_delta["lost_batches"])
    halo = tracer.interceptor.totals("halo_bulk")
    sweeps = units if wl.name == "stencil" else 0
    m["perf.halo_msgs_per_sweep"] = _ratio(halo[0], sweeps)
    m["perf.halo_bytes_per_sweep"] = _ratio(halo[2], sweeps)
    m["perf.plan_hit_ratio"] = _ratio(
        plans["hits"], plans["hits"] + plans["compiled"]
    )

    # repro.spmd kernels and collectives
    serial_ms = serial_sweep_ms(wl.seed)
    m["spmd.serial_sweep_ms"] = serial_ms
    cells = Stencil.N ** 2 if wl.name == "stencil" else 0
    m["spmd.stencil_vs_serial"] = _ratio(
        plain.throughput(), _ratio(cells, serial_ms / 1e3)
    )
    m["spmd.allreduce_us_p50"] = _median(durations("spmd.allreduce", 1e6))
    m["spmd.allgather_us_p50"] = _median(durations("spmd.allgather", 1e6))
    solves = units if wl.name == "solve_farm" else 0
    rank0_allreduce = len(durations("spmd.allreduce", 1, tag=(0,)))
    rank0_allgather = len(durations("spmd.allgather", 1, tag=(0,)))
    m["spmd.allreduce_count_per_solve"] = _ratio(rank0_allreduce, solves)
    # conjugate_gradient makes one allgather before its loop and one per
    # iteration.
    m["spmd.cg_iterations"] = _ratio(rank0_allgather - solves, solves)
    m["spmd.fft_ms_p50"] = _median(durations("spmd.program", 1e3, tag=FFT_PROGRAMS))

    # repro.vp
    m["vp.msgs_per_unit"] = _ratio(traffic["messages"], plain.units)
    m["vp.bytes_per_unit"] = _ratio(traffic["bytes"], plain.units)
    by_kind = dict(tracer.interceptor.by_kind)
    other = sum(r[0] for k, r in by_kind.items() if k not in KINDS)
    for kind in KINDS:
        m[f"vp.msgs_by_kind.{kind}"] = _ratio(by_kind.get(kind, [0])[0], units)
    m["vp.msgs_by_kind.other"] = _ratio(other, units)
    m["vp.payload_bytes_per_unit"] = _ratio(tracer.interceptor.totals()[2], units)
    m["vp.recv_wait_ms_per_unit"] = _ratio(
        _metric_sum(tracer.metrics, "repro_mailbox_recv_wait_seconds", "sum") * 1e3,
        units,
    )

    # repro.pcn
    m["pcn.defvar_suspensions_per_unit"] = _ratio(
        _metric_sum(tracer.metrics, "repro_defvar_suspensions_total"), units
    )

    # repro.core: pipeline stages and farm scheduling
    results = traced.extra.get("pipeline_results", [])
    wall = sum(r.wall_time for r in results)
    busy = {name: 0.0 for name in STAGES}
    for result in results:
        for name, seconds in result.stage_busy_times().items():
            busy[name] = busy.get(name, 0.0) + seconds
    for name in STAGES:
        m[f"core.stage_busy_frac.{name}"] = _ratio(busy[name], wall)
    m["core.pipeline_overlap_frac"] = _ratio(
        sum(r.overlap_intervals() for r in results), wall
    )
    per_group = traced.extra.get("jobs_per_group", [])
    mean = _ratio(sum(per_group), len(per_group))
    m["core.farm_load_imbalance"] = _ratio(max(per_group, default=0), mean)
    groups = len(per_group)
    m["core.farm_idle_frac"] = (
        1.0 - _ratio(sum(traced.extra.get("job_busy_s", [])), groups * traced.busy)
        if groups else 0.0
    )

    m["trace_overhead_frac"] = 1.0 - _ratio(traced.throughput(), plain.throughput())
    return m
