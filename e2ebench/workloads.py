"""The four end-to-end workloads.

Every workload is a closed loop: a client issues its next unit of work only
after the previous one has returned.  Inputs come from a NumPy generator
seeded on the command line; the program under test only ever sees the
generated arrays.  Each workload

* ``setup()`` builds a fresh runtime, creates and loads its arrays and makes
  one checked warm-up call or op (this is what ``setup_s`` times);
* ``run(deadline, tally)`` runs units until ``deadline`` and checks every
  output against a NumPy reference, counting a wrong answer as a failed
  operation;
* ``finish(tally)`` makes the end-of-run checks.

``self.probe`` is a no-op span recorder; the traced run replaces it with a
real one so that spans carry the id of the unit (call, item, solve or op)
that caused them.
"""

from __future__ import annotations

import contextlib
import time
from array import array
import traceback
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro import DistributedArray, IntegratedRuntime
from repro.apps.polymul import PolynomialMultiplier, polymul_reference
from repro.core.farm import TaskFarm
from repro.spmd.linalg import conjugate_gradient
from repro.spmd.stencil import heat_steps
from repro.status import Status
from repro.vp.fabric import execution_context

# Blocked receives fail after this long instead of hanging the run.
RECV_TIMEOUT_S = 30.0
# Trace id carried by the messages of the benchmark's own correctness
# checks, so the traced run can leave them out of its counts.
CHECK_TRACE = "e2ebench-check"


@dataclass
class Tally:
    """What one measured phase produced."""

    units: int = 0  # sweeps, items, solves or element ops completed
    busy: float = 0.0  # seconds the clients spent waiting on the system
    # Seconds, one per sample; a compact array keeps peak RSS independent
    # of how many ops a run completes.
    latencies: array = field(default_factory=lambda: array("d"))
    attempted: int = 0
    failed: int = 0
    extra: dict = field(default_factory=dict)
    # Rate of each closed-loop round trip (a call, batch, round or op).
    rates: array = field(default_factory=lambda: array("d"))

    def add(self, work: float, busy: float) -> None:
        """Count ``work`` (cell updates on stencil, else units) done in one
        round trip of ``busy`` seconds."""
        self.busy += busy
        self.rates.append(work / busy)

    def throughput(self) -> float:
        """Median rate over round trips: a burst of outside load on a
        shared machine slows a few of them, not the figure."""
        return float(np.median(self.rates)) if len(self.rates) else 0.0

    def fail(self, what: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"FAILED: {what}", flush=True)


class NullProbe:
    """Span recorder used outside the traced run: records nothing."""

    @staticmethod
    def span(name: str, unit: Optional[int] = None, **_: object):
        return contextlib.nullcontext()

    @staticmethod
    def add(name: str, start: float, end: float, unit: int) -> None:
        pass


def _crashed(tally: Tally, what: str, count: int = 1) -> None:
    traceback.print_exc()
    tally.failed += count
    print(f"FAILED: {what} raised", flush=True)


class Workload:
    name = ""
    # Throughput is reported per this unit of work.
    unit = ""
    # Latency samples time this.
    latency_of = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.probe = NullProbe()
        self.rt: Optional[IntegratedRuntime] = None

    def setup(self) -> bool:
        raise NotImplementedError

    def run(self, deadline: float, tally: Tally) -> None:
        raise NotImplementedError

    def finish(self, tally: Tally) -> None:
        """End-of-run checks (none by default)."""


# -- stencil ---------------------------------------------------------------------


def serial_sweeps(full: np.ndarray, sweeps: int) -> None:
    """Plain single-threaded 5-point Jacobi over ``full``'s interior, with
    the outer frame held fixed.  Operand order matches
    ``repro.spmd.stencil.jacobi_sweep``, so results are bit-identical."""
    for _ in range(sweeps):
        full[1:-1, 1:-1] = 0.25 * (
            full[:-2, 1:-1] + full[2:, 1:-1] + full[1:-1, :-2] + full[1:-1, 2:]
        )


def serial_sweep_ms(seed: int, sweeps: int = 64) -> float:
    """Median time of one serial sweep over the stencil's grid with the
    stencil's inputs: the single-threaded NumPy baseline, and a gauge of
    the machine's speed during the run."""
    n = Stencil.N
    full = np.zeros((n + 2, n + 2))
    full[1:-1, 1:-1] = Stencil(seed).initial
    times = []
    for _ in range(sweeps):
        t0 = time.perf_counter()
        serial_sweeps(full, 1)
        times.append(time.perf_counter() - t0)
    return float(np.median(times)) * 1e3


class Stencil(Workload):
    """Heat relaxation of a 256x256 bordered field, (block, block) on a 2x2
    grid of 4 VPs, in distributed calls of SWEEPS sweeps each."""

    name = "stencil"
    unit = "sweep"
    latency_of = "one heat_steps distributed call"
    N = 256
    GRID = (2, 2)
    SWEEPS = 16

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = np.random.default_rng(seed)
        self.initial = rng.uniform(0.0, 100.0, (self.N, self.N))

    def setup(self) -> bool:
        n = self.N
        self.rt = IntegratedRuntime(4, default_recv_timeout=RECV_TIMEOUT_S)
        self.procs = self.rt.processors(0, 4)
        self.field = self.rt.array(
            "double", (n, n), self.procs,
            [("block", self.GRID[0]), ("block", self.GRID[1])],
            borders=[1, 1, 1, 1],
        )
        self.field.from_numpy(self.initial)
        # Zero Dirichlet frame around the serial reference field.
        self.reference = np.zeros((n + 2, n + 2))
        self.reference[1:-1, 1:-1] = self.initial
        self.unchecked_sweeps = 0
        self.calls = 0
        return self._call(1)

    def _call(self, sweeps: int) -> bool:
        result = self.rt.call(
            self.procs, heat_steps,
            [self.GRID[0], self.GRID[1], sweeps, self.field],
        )
        self.unchecked_sweeps += sweeps
        return result.status is Status.OK

    def _matches_reference(self, tally: Optional[Tally] = None) -> bool:
        """Advance the serial reference to the distributed field's sweep
        count and require bit-identical interiors."""
        serial_sweeps(self.reference, self.unchecked_sweeps)
        self.unchecked_sweeps = 0
        machine = self.rt.machine
        before = machine.traffic_snapshot()
        with execution_context(trace_id=CHECK_TRACE):
            got = self.field.to_numpy()
        after = machine.traffic_snapshot()
        if tally is not None:
            check = tally.extra.setdefault("check_traffic", {"messages": 0, "bytes": 0})
            for key in check:
                check[key] += after[key] - before[key]
        same = bool(np.array_equal(got, self.reference[1:-1, 1:-1]))
        if not same:
            # Resynchronise so one divergence is counted once.
            self.reference[1:-1, 1:-1] = got
        return same

    def run(self, deadline: float, tally: Tally) -> None:
        if self.unchecked_sweeps and not self._matches_reference():
            tally.fail("stencil warm-up call differs from the serial reference")
        cells = self.N * self.N
        while time.perf_counter() < deadline:
            tally.attempted += 1
            self.calls += 1
            t0 = time.perf_counter()
            try:
                with self.probe.span("unit", unit=self.calls):
                    ok = self._call(self.SWEEPS)
            except Exception:  # noqa: BLE001 - a crash is a failed op
                _crashed(tally, "stencil call")
                return
            dt = time.perf_counter() - t0
            tally.add(self.SWEEPS * cells, dt)
            tally.latencies.append(dt)
            tally.units += self.SWEEPS
            if not (ok and self._matches_reference(tally)):
                tally.fail(f"stencil call {self.calls} differs from the serial reference")


# -- polymul pipeline ----------------------------------------------------------------


class PolymulPipeline(Workload):
    """The §6.2 / Fig 6.1 program: seeded pairs of 256-coefficient
    polynomials streamed through the 3-stage FFT pipeline on 8 VPs (four
    groups of 2), BATCH pairs per ``Pipeline.run``."""

    name = "polymul_pipeline"
    unit = "item"
    latency_of = "one item, start of stage 1 to end of stage 3"
    NODES = 8
    N = 256
    BATCH = 48
    TOLERANCE = 1e-9

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.rng = np.random.default_rng(seed)
        self.items = 0

    def _pairs(self, count: int) -> list:
        return [
            (self.rng.uniform(-1, 1, self.N), self.rng.uniform(-1, 1, self.N))
            for _ in range(count)
        ]

    def _correct(self, out: np.ndarray, pair: tuple) -> bool:
        want = polymul_reference(*pair)
        return out.shape == want.shape and float(
            np.max(np.abs(out - want))
        ) <= self.TOLERANCE

    def setup(self) -> bool:
        self.rt = IntegratedRuntime(
            self.NODES, default_recv_timeout=RECV_TIMEOUT_S
        )
        self.multiplier = PolynomialMultiplier(self.rt, self.N)
        self.pipeline = self.multiplier.pipeline()
        (pair,) = self._pairs(1)
        return self._correct(self.multiplier.multiply_one(*pair), pair)

    def run(self, deadline: float, tally: Tally) -> None:
        while time.perf_counter() < deadline:
            pairs = self._pairs(self.BATCH)
            tally.attempted += len(pairs)
            try:
                result = self.pipeline.run(pairs)
            except Exception:  # noqa: BLE001 - a crash fails the batch
                _crashed(tally, "polymul pipeline batch", count=len(pairs))
                return
            tally.extra.setdefault("pipeline_results", []).append(result)
            starts = {i: s for i, s, _ in result.records[0].intervals}
            ends = {i: e for i, _, e in result.records[-1].intervals}
            good = 0
            for index, pair in enumerate(pairs):
                if index >= len(result.outputs) or not self._correct(
                    result.outputs[index], pair
                ):
                    tally.fail(f"polymul item {self.items + index} is wrong")
                    continue
                good += 1
                tally.latencies.append(ends[index] - starts[index])
                self.probe.add(
                    "core.item", starts[index], ends[index],
                    unit=self.items + index + 1,
                )
            tally.units += good
            tally.add(good, result.wall_time)
            self.items += len(pairs)


# -- solve farm ---------------------------------------------------------------------


class SolveFarm(Workload):
    """CG solves of a fixed SPD 128x128 system on a TaskFarm of 2 groups x 2
    VPs.  Two clients each submit one right-hand side per round and wait
    for their own reply; a round is one ``TaskFarm.run`` of their jobs."""

    name = "solve_farm"
    unit = "solve"
    latency_of = "one solve, submission to reply"
    NODES = 4
    GROUPS = 2
    CLIENTS = 2
    N = 128
    CG_TOLERANCE = 1e-8
    CG_MAX_ITERATIONS = 500
    # ||Ax - b||_inf recomputed with NumPy must stay within this.
    CHECK_TOLERANCE = 1e-7

    # The system matrix is part of the workload, not of its inputs: the
    # same for every seed, so the work per solve does not vary with it.
    MATRIX_SEED = 128

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.rng = np.random.default_rng(seed)
        m = np.random.default_rng(self.MATRIX_SEED).standard_normal(
            (self.N, self.N)
        )
        self.matrix = m @ m.T / self.N + np.eye(self.N)
        self.solves = 0

    def setup(self) -> bool:
        n = self.N
        self.rt = IntegratedRuntime(
            self.NODES, default_recv_timeout=RECV_TIMEOUT_S
        )
        groups = self.rt.split_processors(self.GROUPS)
        self.arrays = {}
        for group in groups:
            a = self.rt.array("double", (n, n), group, ["block", "*"])
            a.from_numpy(self.matrix)
            b = self.rt.array("double", (n,), group, ["block"])
            x = self.rt.array("double", (n,), group, ["block"])
            self.arrays[tuple(int(p) for p in group)] = (a, b, x)
        self.farm = TaskFarm(groups)
        rhs = self.rng.standard_normal(n)
        x, _, _ = self._job(rhs, 0)(self.farm.groups[0])
        return self._correct(x, rhs)

    def _correct(self, x: Optional[np.ndarray], rhs: np.ndarray) -> bool:
        return x is not None and float(
            np.max(np.abs(self.matrix @ x - rhs))
        ) <= self.CHECK_TOLERANCE

    def _job(self, rhs: np.ndarray, solve_id: int):
        def job(group):
            a, b, x = self.arrays[tuple(group)]
            start = time.perf_counter()
            with self.probe.span("unit", unit=solve_id):
                b.from_numpy(rhs)
                x.from_numpy(np.zeros(self.N))
                result = self.rt.call(
                    group, conjugate_gradient,
                    [self.N, self.CG_MAX_ITERATIONS, self.CG_TOLERANCE, a, b, x],
                )
                out = x.to_numpy() if result.status is Status.OK else None
            return out, start, time.perf_counter()

        return job

    def run(self, deadline: float, tally: Tally) -> None:
        jobs_per_group = tally.extra.setdefault(
            "jobs_per_group", [0] * self.GROUPS
        )
        job_busy = tally.extra.setdefault("job_busy_s", [])
        while time.perf_counter() < deadline:
            rhss = [self.rng.standard_normal(self.N) for _ in range(self.CLIENTS)]
            jobs = [self._job(r, self.solves + k + 1) for k, r in enumerate(rhss)]
            self.solves += len(jobs)
            tally.attempted += len(jobs)
            submitted = time.perf_counter()
            try:
                outcome = self.farm.run(jobs)
            except Exception:  # noqa: BLE001 - a crash fails the round
                _crashed(tally, "solve farm round", count=len(jobs))
                return
            tally.add(len(outcome.results), time.perf_counter() - submitted)
            for g, count in enumerate(outcome.jobs_per_group):
                jobs_per_group[g] += count
            for (x, start, end), rhs in zip(outcome.results, rhss):
                job_busy.append(end - start)
                if not self._correct(x, rhs):
                    tally.fail("CG solution misses ||Ax-b||_inf tolerance")
                    continue
                tally.units += 1
                tally.latencies.append(end - submitted)


# -- element mix ---------------------------------------------------------------------


class ElementMix(Workload):
    """Seeded random element reads and writes (80/20) through
    ``DistributedArray.__getitem__``/``__setitem__`` on a 64x64 (block,
    block) array over 8 VPs with one backup replica per section."""

    name = "element_mix"
    unit = "op"
    latency_of = "one element read or write"
    NODES = 8
    SHAPE = (64, 64)
    GRID = (4, 2)
    READ_SHARE = 0.8
    CHUNK = 4096

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.rng = np.random.default_rng(seed)
        self.initial = self.rng.uniform(size=self.SHAPE)
        self.ops = 0

    def setup(self) -> bool:
        self.rt = IntegratedRuntime(
            self.NODES, default_recv_timeout=RECV_TIMEOUT_S
        )
        self.array = DistributedArray.create(
            self.rt.machine, "double", self.SHAPE, self.rt.all_processors(),
            [("block", self.GRID[0]), ("block", self.GRID[1])],
            replication=1,
        )
        self.array.from_numpy(self.initial)
        self.mirror = self.initial.copy()
        return bool(self.array[0, 0] == self.mirror[0, 0])

    def _chunk(self):
        rows, cols = self.SHAPE
        return zip(
            (self.rng.random(self.CHUNK) < self.READ_SHARE).tolist(),
            self.rng.integers(0, rows, self.CHUNK).tolist(),
            self.rng.integers(0, cols, self.CHUNK).tolist(),
            self.rng.random(self.CHUNK).tolist(),
        )

    def run(self, deadline: float, tally: Tally) -> None:
        array, mirror, probe = self.array, self.mirror, self.probe
        clock = time.perf_counter
        latencies = tally.latencies
        reads = writes = 0
        while clock() < deadline:
            for is_read, i, j, value in self._chunk():
                if clock() >= deadline:
                    break
                self.ops += 1
                tally.attempted += 1
                try:
                    with probe.span("unit", unit=self.ops):
                        t0 = clock()
                        if is_read:
                            got = array[i, j]
                        else:
                            array[i, j] = value
                        dt = clock() - t0
                except Exception:  # noqa: BLE001 - a crash is a failed op
                    _crashed(tally, f"element op {self.ops}")
                    return
                latencies.append(dt)
                tally.add(1, dt)
                if is_read:
                    reads += 1
                    if got != mirror[i, j]:
                        tally.fail(f"element read {(i, j)} differs from the mirror")
                        continue
                else:
                    writes += 1
                    mirror[i, j] = value
                tally.units += 1
        tally.extra["reads"] = tally.extra.get("reads", 0) + reads
        tally.extra["writes"] = tally.extra.get("writes", 0) + writes

    def finish(self, tally: Tally) -> None:
        tally.attempted += 1
        self.array.flush()
        if not np.array_equal(self.array.to_numpy(), self.mirror):
            tally.fail("flushed array differs from the client-side mirror")


WORKLOADS = {
    cls.name: cls for cls in (Stencil, PolymulPipeline, SolveFarm, ElementMix)
}
