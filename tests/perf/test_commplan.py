"""Precompiled halo-exchange plans (``repro.perf.commplan``).

Covers the three correctness pillars of planning: geometry (every fused
strip carries exactly the cells a brute-force neighbour read would),
epoch validity (recovery/migration/rebalance invalidate cached plans and
stale strips are fenced, never applied), and delivery discipline
(exactly-once border fill under drop/duplicate fault injection, with the
prefetch/complete overlap producing bit-identical results).
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.arrays import am_user, am_util
from repro.arrays.manager import get_array_manager
from repro.calls import Local, Reduce, distributed_call
from repro.core.darray import DistributedArray
from repro.faults import FaultPlan, FaultyTransport, install_recovery
from repro.perf import HALO_BULK_KIND, StalePlanError, get_perf_layer
from repro.perf.commplan import HaloStrip
from repro.spmd.stencil import exchange_halos, heat_steps, jacobi_sweep
from repro.status import Status
from repro.vp.fabric import TrafficMeter
from repro.vp.machine import Machine

DISTRIB_2X2 = (("block", 2), ("block", 2))


@pytest.fixture
def machine():
    m = Machine(6, default_recv_timeout=10)
    am_util.load_all(m)
    return m


def make_array(machine, shape=(8, 8), grid=(2, 2), borders=1,
               replication=0, procs=None):
    if procs is None:
        procs = list(range(int(np.prod(grid))))
    if isinstance(borders, int):
        borders = [borders] * (2 * len(shape))
    return DistributedArray.create(
        machine, "double", shape, procs,
        [("block", g) for g in grid], borders=borders,
        replication=replication,
    )


def plans_of(machine):
    return get_perf_layer(machine).plans


def serial_reference(field, steps):
    full = np.zeros((field.shape[0] + 2, field.shape[1] + 2))
    full[1:-1, 1:-1] = field
    for _ in range(steps):
        full[1:-1, 1:-1] = jacobi_sweep(full)
    return full[1:-1, 1:-1]


# ---------------------------------------------------------------------------
# Geometry: plan slices vs brute-force neighbour reads
# ---------------------------------------------------------------------------


def section_origin(layout, section):
    coords = layout.section_coords(section)
    return tuple(c * ld for c, ld in zip(coords, layout.local_dims))


def global_range(origin, pad, slc, axis):
    """Map one local full-view slice to global index bounds."""
    return (origin[axis] + slc.start - pad, origin[axis] + slc.stop - pad)


class TestPlanGeometry:
    @pytest.mark.parametrize(
        "shape,grid,borders",
        [
            ((8, 8), (2, 2), 2),     # (block, block), square sections
            ((8, 16), (2, 2), 1),    # unequal local dims (4 x 8)
            ((8, 8), (4, 1), 3),     # (block, *): thin 2x8 strips clip
                                     # the usable depth below the pad
            ((8, 8), (1, 4), 2),     # column strips, stage-1 only
        ],
    )
    def test_slices_map_to_identical_global_cells(
        self, machine, shape, grid, borders
    ):
        """Every transfer's source interior strip and destination border
        strip cover the *same* global cells — the fused message is exactly
        the brute-force per-region read it replaces."""
        arr = make_array(machine, shape, grid, borders)
        plan = arr.halo_plan()
        assert plan is not None
        layout = arr.layout
        assert plan.depth == min(borders, min(layout.local_dims))
        for k in range(1, plan.depth + 1):
            transfers = plan.transfers(k)
            for t in transfers:
                src_o = section_origin(layout, t.edge.src_section)
                dst_o = section_origin(layout, t.edge.dest_section)
                for axis, (s, d) in enumerate(
                    zip(t.src_slices, t.dest_slices)
                ):
                    assert global_range(src_o, plan.pad, s, axis) == \
                        global_range(dst_o, plan.pad, d, axis)
                # Destination cells are border cells only: along the edge
                # axis the strip sits strictly outside the interior.
                d = t.dest_slices[t.edge.axis]
                pad = plan.pad
                interior = layout.local_dims[t.edge.axis]
                assert d.stop <= pad or d.start >= pad + interior
        # Exactly one fused transfer per neighbour per stage at any depth.
        per_dest = {}
        for t in plan.transfers(plan.depth):
            key = (t.edge.dest_section, t.edge.side)
            per_dest[key] = per_dest.get(key, 0) + 1
        assert all(n == 1 for n in per_dest.values())

    def test_every_stage_one_strip_relays_corners(self, machine):
        """Stage-1 strips span the stage-0 halo rows at every depth,
        k = 1 included, so a plan fills border corners for kernels that
        read them."""
        arr = make_array(machine, (8, 8), (2, 2), borders=2)
        plan = arr.halo_plan()
        h = arr.layout.local_dims[0]
        for k in (1, 2):
            for t in plan.transfers(k, stage=1):
                rows = slice(plan.pad - k, plan.pad + h + k)
                assert t.src_slices[0] == rows == t.dest_slices[0]

    def test_depth_outside_range_rejected(self, machine):
        arr = make_array(machine, borders=2)
        plan = arr.halo_plan()
        with pytest.raises(ValueError):
            plan.transfers(0)
        with pytest.raises(ValueError):
            plan.transfers(plan.depth + 1)

    def test_non_uniform_borders_out_of_scope(self, machine):
        arr = make_array(machine, borders=[1, 1, 2, 2])
        assert arr.halo_plan() is None

    @pytest.mark.parametrize(
        "shape,grid,borders,k",
        [((8, 8), (2, 2), 2, 2), ((8, 16), (2, 2), 1, 1),
         ((12,), (4,), 2, 2)],
    )
    def test_manual_exchange_fills_borders_with_neighbour_data(
        self, machine, shape, grid, borders, k
    ):
        """Drive one exchange phase by hand on every section and check
        each border cell against a padded global mirror — the brute-force
        definition of a correct halo."""
        arr = make_array(machine, shape, grid, borders)
        values = np.arange(np.prod(shape), dtype=float).reshape(shape)
        arr.from_numpy(values)
        plan = arr.halo_plan()
        registry = plans_of(machine)
        manager = get_array_manager(machine)
        state = manager.durability_state(arr.array_id)
        pad = plan.pad
        mirror = np.zeros(tuple(s + 2 * pad for s in shape))
        mirror[tuple(slice(pad, pad + s) for s in shape)] = values
        exchanges = []
        for section, owner in enumerate(state.processors):
            record = manager._lookup(
                machine.processor(owner), arr.array_id
            )
            exchanges.append(
                (section, owner, record,
                 plan.begin(registry, record, record.section.full(),
                            section, k, ("test-call", 0), owner))
            )
        for _, _, _, ex in exchanges:
            ex.prefetch()
        threads = [
            threading.Thread(target=ex.complete) for _, _, _, ex in exchanges
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=20)
            assert not t.is_alive()
        for section, owner, record, ex in exchanges:
            full = record.section.full()
            origin = section_origin(arr.layout, section)
            for t in plan.transfers(k, section=section, role="recv"):
                got = full[t.dest_slices]
                want = mirror[tuple(
                    slice(origin[axis] + s.start, origin[axis] + s.stop)
                    for axis, s in enumerate(t.dest_slices)
                )]
                assert np.array_equal(got, want), (
                    f"section {section} side {t.edge.side}"
                )
        diag = registry.diagnostics()
        assert diag["exchanges"] == len(exchanges)
        assert diag["strips_claimed"] == sum(
            len(plan.transfers(k, section=s, role="recv"))
            for s, _, _, _ in exchanges
        )

    def test_selective_complete_claims_only_named_sides(self, machine):
        """complete(sides=...) blocks only on the borders the kernel
        reads; the other side's strip stays parked in its rendezvous."""
        arr = make_array(machine, (12,), (4,), borders=1)
        arr.from_numpy(np.arange(12, dtype=float))
        plan = arr.halo_plan()
        registry = plans_of(machine)
        manager = get_array_manager(machine)
        state = manager.durability_state(arr.array_id)
        exchanges = []
        for section, owner in enumerate(state.processors):
            record = manager._lookup(machine.processor(owner), arr.array_id)
            exchanges.append(
                (section, record,
                 plan.begin(registry, record, record.section.full(),
                            section, 1, ("sides-call", 0), owner))
            )
        for _, _, ex in exchanges:
            ex.prefetch()
        for section, record, ex in exchanges:
            ex.complete(sides=("west",))
            full = record.section.full()
            if ex.receives("west"):
                # west halo holds the neighbour's last interior cell
                assert full[0] == float(section * 3 - 1)
            if ex.receives("east"):
                # east strip arrived but was never claimed/applied
                assert full[-1] == 0.0
        assert registry.diagnostics()["pending_rendezvous"] > 0


# ---------------------------------------------------------------------------
# Planned vs unplanned equivalence + message fusion
# ---------------------------------------------------------------------------


def run_heat(machine, arr, grid, steps):
    res = distributed_call(
        machine, list(arr.processors), heat_steps,
        [grid[0], grid[1], steps, Local(arr.array_id),
         Reduce("double", 1, "max")],
    )
    assert res.status is Status.OK
    return res.reductions[0]


class TestPlannedEquivalence:
    @pytest.mark.parametrize("steps", [1, 3, 4, 7])
    def test_deep_border_sweeps_match_serial_reference(self, machine, steps):
        """Deep borders amortise one exchange over several sweeps; the
        redundant frame recomputation must stay bit-identical to the
        per-sweep exchange (= the serial single-domain reference)."""
        rng = np.random.default_rng(1)
        initial = rng.uniform(0, 100, (8, 8))
        arr = make_array(machine, (8, 8), (2, 2), borders=4)
        arr.from_numpy(initial)
        run_heat(machine, arr, (2, 2), steps)
        assert np.allclose(
            arr.to_numpy(), serial_reference(initial, steps),
            rtol=0, atol=0,
        )

    @pytest.mark.parametrize(
        "shape,grid,borders",
        [((8, 8), (2, 2), 6),    # borders deeper than the 4x4 sections
         ((8, 8), (4, 1), 3)],   # thin 2x8 strips clip the usable depth
    )
    def test_borders_deeper_than_working_depth(
        self, machine, shape, grid, borders
    ):
        """The working tile copies only the border ring the phases can
        reach; the result still matches the serial reference."""
        initial = np.random.default_rng(3).uniform(0, 100, shape)
        arr = make_array(machine, shape, grid, borders=borders)
        arr.from_numpy(initial)
        run_heat(machine, arr, grid, 7)
        assert np.array_equal(arr.to_numpy(), serial_reference(initial, 7))

    def test_planned_and_unplanned_deltas_agree(self, machine):
        rng = np.random.default_rng(2)
        initial = rng.uniform(0, 100, (8, 8))
        planned = make_array(machine, (8, 8), (2, 2), borders=4)
        planned.from_numpy(initial)
        d_planned = run_heat(machine, planned, (2, 2), 5)

        unplanned = make_array(
            machine, (8, 8), (2, 2), borders=1, procs=[0, 1, 2, 3]
        )
        unplanned.from_numpy(initial)
        registry = plans_of(machine)
        registry.enabled = False
        try:
            d_unplanned = run_heat(machine, unplanned, (2, 2), 5)
        finally:
            registry.enabled = True
        assert d_planned == d_unplanned
        assert np.array_equal(planned.to_numpy(), unplanned.to_numpy())

    def test_one_fused_message_per_neighbour_per_phase(self, machine):
        """Depth-4 borders: 9 sweeps = 3 exchange phases, 8 routed strips
        per phase on a fully remote 2x2 grid — versus 8 per *sweep* for
        the unplanned path."""
        arr = make_array(machine, (8, 8), (2, 2), borders=4)
        arr.from_numpy(np.ones((8, 8)))
        run_heat(machine, arr, (2, 2), 1)  # warm the plan cache
        meter = TrafficMeter()
        machine.transport_stack.push(meter)
        try:
            run_heat(machine, arr, (2, 2), 9)
            halo = meter.snapshot()["by_kind"].get(HALO_BULK_KIND, (0, 0))
        finally:
            machine.transport_stack.remove(meter)
        assert halo[0] == 3 * 8  # 3 phases x 8 neighbour edges

    def test_one_deep_borders_exchange_once_per_working_phase(self, machine):
        """1-deep borders on 128x128 sections: the runtime works at depth
        8 on private tiles, so 16 sweeps = 2 phases of 8 strips."""
        arr = make_array(machine, (256, 256), (2, 2), borders=1)
        arr.from_numpy(np.ones((256, 256)))
        run_heat(machine, arr, (2, 2), 1)  # warm the plan and tile caches
        meter = TrafficMeter()
        machine.transport_stack.push(meter)
        try:
            run_heat(machine, arr, (2, 2), 16)
            halo = meter.snapshot()["by_kind"].get(HALO_BULK_KIND, (0, 0))
        finally:
            machine.transport_stack.remove(meter)
        assert halo[0] == 2 * 8  # 2 phases x 8 neighbour edges

    def test_unplanned_fallback_rejects_deep_borders(self, machine):
        arr = make_array(machine, (8, 8), (2, 2), borders=4)
        arr.from_numpy(np.ones((8, 8)))
        registry = plans_of(machine)
        registry.enabled = False
        try:
            res = distributed_call(
                machine, list(arr.processors), heat_steps,
                [2, 2, 1, Local(arr.array_id)],
            )
        finally:
            registry.enabled = True
        assert res.status is Status.ERROR


class TestGridMismatch:
    def test_exchange_halos_names_grid_and_shape(self):
        class _Ctx:
            procs = [0, 1, 2]
            index = 0

        with pytest.raises(ValueError) as exc:
            exchange_halos(_Ctx(), np.zeros((4, 4)), 2, 3)
        msg = str(exc.value)
        assert "2x3" in msg and "6" in msg and "3" in msg
        assert "(4, 4)" in msg

    def test_distributed_call_with_wrong_grid_fails_cleanly(self, machine):
        arr = make_array(machine, (8, 8), (2, 2), borders=1)
        arr.from_numpy(np.ones((8, 8)))
        # Grid args disagree with the 4-owner layout: the planned path
        # refuses to engage and the fallback raises the descriptive error.
        res = distributed_call(
            machine, list(arr.processors), heat_steps,
            [4, 4, 1, Local(arr.array_id)],
        )
        assert res.status is Status.ERROR


# ---------------------------------------------------------------------------
# Plan cache: hits, invalidation, stale fencing
# ---------------------------------------------------------------------------


class TestPlanCache:
    def test_hit_then_invalidate_on_migration(self, machine):
        arr = make_array(machine)
        registry = plans_of(machine)
        base = registry.diagnostics()
        plan1 = arr.halo_plan()
        plan2 = arr.halo_plan()
        assert plan2 is plan1
        diag = registry.diagnostics()
        assert diag["compiled"] == base["compiled"] + 1
        assert diag["hits"] >= base["hits"] + 1
        arr.migrate({3: 4})  # epoch bump + membership rewrite
        plan3 = arr.halo_plan()
        assert plan3 is not plan1
        diag = registry.diagnostics()
        assert diag["invalidations"] == base["invalidations"] + 1
        assert plan3.processors[3] == 4
        assert plan3.epoch > plan1.epoch

    def test_invalidate_on_border_migration(self, machine):
        """``verify_borders`` reallocates sections with a new pad without
        bumping the epoch — geometry is part of plan validity, so the
        cached plan must recompile instead of computing stale slices."""
        arr = make_array(machine, borders=1)
        arr.from_numpy(np.arange(64, dtype=float).reshape(8, 8))
        plan1 = arr.halo_plan()
        assert plan1.pad == 1
        arr.verify_borders([2, 2, 2, 2])
        plan2 = arr.halo_plan()
        assert plan2 is not plan1 and plan2.pad == 2
        assert plans_of(machine).diagnostics()["invalidations"] >= 1
        run_heat(machine, arr, (2, 2), 3)  # deep path on the new pad

    def test_invalidate_on_rebalance_and_recovery(self, machine):
        install_recovery(machine)
        arr = make_array(machine, replication=1)
        arr.from_numpy(np.arange(64, dtype=float).reshape(8, 8))
        plan1 = arr.halo_plan()
        machine.fail(3)  # kill section 3's owner; recovery adopts mirror
        plan2 = arr.halo_plan()
        assert plan2 is not plan1 and plan2.epoch > plan1.epoch
        assert 3 not in plan2.processors
        # The recompiled plan must carry real data end-to-end.
        state = get_array_manager(machine).durability_state(arr.array_id)
        run_heat(machine, DistributedArray(
            machine, arr.array_id, arr.layout,
            tuple(state.processors), "double",
        ), (2, 2), 2)

    def test_stale_strip_is_fenced_never_applied(self, machine):
        """A strip stamped with a pre-rewrite epoch is refused: counted,
        fenced through the STALE_EPOCH machinery, and its rendezvous is
        poisoned so a claimer aborts instead of reading stale data."""
        observer = machine.observe()
        arr = make_array(machine)
        arr.from_numpy(np.zeros((8, 8)))
        arr.migrate({3: 4})  # epoch 0 -> 1
        manager = get_array_manager(machine)
        registry = plans_of(machine)
        state = manager.durability_state(arr.array_id)
        assert state.epoch >= 1
        owner = state.processors[1]
        record = manager._lookup(machine.processor(owner), arr.array_id)
        before = record.section.full().copy()
        strip = HaloStrip(
            arr.array_id, 0, 1, "west", 1, ("stale-call", 0),
            epoch=0,  # predates the migration's epoch bump
            dest_slices=(slice(0, 9), slice(0, 1)),
            data=np.full((9, 1), 1e9),
            done=None,
        )
        registry.apply_strip(owner, strip)
        assert registry.diagnostics()["stale_strips"] == 1
        # Never applied: border cells untouched.
        assert np.array_equal(record.section.full(), before)
        # The fence is the write path's fence.
        key = (
            "repro_fenced_writes_total"
            f'{{array="{arr.array_id.as_tuple()}"}}'
        )
        assert observer.metrics.snapshot()[key] >= 1
        # A claimer of that rendezvous aborts rather than blocking.
        with pytest.raises(StalePlanError):
            registry.await_strip(strip.key(), timeout=1)

    def test_strip_to_wrong_owner_refused_as_not_found(self, machine):
        arr = make_array(machine)
        registry = plans_of(machine)
        strip = HaloStrip(
            arr.array_id, 0, 1, "west", 1, ("lost-call", 0),
            epoch=0, dest_slices=(slice(0, 1), slice(0, 1)),
            data=np.zeros((1, 1)), done=None,
        )
        registry.apply_strip(5, strip)  # processor 5 owns nothing
        assert registry.diagnostics()["not_found_strips"] == 1

    def test_free_drops_plans_and_rendezvous(self, machine):
        arr = make_array(machine)
        arr.halo_plan()
        registry = plans_of(machine)
        assert registry.diagnostics()["plans"] >= 1
        arr.free()
        assert all(
            key[1] != arr.array_id.as_tuple() for key in registry._plans
        )

    def test_metrics_and_diagnostics_exposed(self, machine):
        observer = machine.observe()
        arr = make_array(machine, borders=2)
        arr.from_numpy(np.ones((8, 8)))
        arr.halo_plan()
        arr.halo_plan()
        run_heat(machine, arr, (2, 2), 2)
        snap = observer.metrics.snapshot()
        assert snap["repro_comm_plans_compiled_total"] >= 1
        assert snap["repro_comm_plans_hits_total"] >= 1
        assert snap["repro_halo_exchanges_total"] >= 4
        assert snap["repro_halo_strips_total"] >= 8
        diag = machine.diagnostics()["perf"]["comm_plans"]
        assert diag["compiled"] >= 1 and diag["exchanges"] >= 4
        spans = [
            s for s in observer.spans() if s["name"] == "perf:halo"
        ] if hasattr(observer, "spans") else []
        # span emission is best-effort introspection; presence of the
        # counters above is the hard requirement.
        assert spans is not None


# ---------------------------------------------------------------------------
# Fault injection: exactly-once border fill under drop/duplicate
# ---------------------------------------------------------------------------


class TestPlannedUnderFaults:
    @pytest.mark.parametrize(
        "plan_kwargs",
        [dict(drop=0.4), dict(duplicate=0.5), dict(drop=0.3, duplicate=0.3)],
    )
    def test_drop_duplicate_halo_traffic_is_exactly_once(
        self, machine, plan_kwargs
    ):
        """Faults scoped to ``halo_bulk`` messages only: dropped strips
        are reshipped after the ack timeout, duplicates collapse in the
        single-assignment rendezvous, and the result stays bit-identical
        to the fault-free serial reference."""
        rng = np.random.default_rng(3)
        initial = rng.uniform(0, 100, (8, 8))
        arr = make_array(machine, (8, 8), (2, 2), borders=4)
        arr.from_numpy(initial)
        registry = plans_of(machine)
        registry.retry_timeout = 0.25  # keep reship latency test-sized
        steps = 8
        fault_plan = FaultPlan(
            seed=11, kinds=(HALO_BULK_KIND,), **plan_kwargs
        )
        faulty = FaultyTransport(machine, fault_plan)
        faulty.install()
        try:
            run_heat(machine, arr, (2, 2), steps)
        finally:
            faulty.uninstall()
            registry.retry_timeout = 5.0
        assert np.allclose(
            arr.to_numpy(), serial_reference(initial, steps),
            rtol=0, atol=0,
        )
        diag = registry.diagnostics()
        if "drop" in plan_kwargs:
            assert diag["retries"] >= 1
        if "duplicate" in plan_kwargs:
            assert diag["duplicate_strips"] >= 1


# ---------------------------------------------------------------------------
# Working tiles: the runtime-chosen exchange depth on 1-deep borders
# ---------------------------------------------------------------------------


def section_storage(machine, arr):
    """Every section's full bordered storage (interior plus border ring),
    in section order."""
    manager = get_array_manager(machine)
    state = manager.durability_state(arr.array_id)
    return [
        manager._lookup(machine.processor(p), arr.array_id).section.full().copy()
        for p in state.processors
    ]


def heat_both_paths(machine, shape, grid, calls, seed=5):
    """Run the same sequence of heat_steps calls on two identical 1-deep
    bordered arrays, one planned and one with planning disabled; return
    (planned, unplanned) lists of (delta, section storage) per call."""
    initial = np.random.default_rng(seed).uniform(0, 100, shape)
    procs = list(range(int(np.prod(grid))))
    planned = make_array(machine, shape, grid, 1, procs=procs)
    unplanned = make_array(machine, shape, grid, 1, procs=procs)
    planned.from_numpy(initial)
    unplanned.from_numpy(initial)
    registry = plans_of(machine)
    out_planned, out_unplanned = [], []
    for steps in calls:
        out_planned.append(
            (run_heat(machine, planned, grid, steps),
             section_storage(machine, planned))
        )
        registry.enabled = False
        try:
            out_unplanned.append(
                (run_heat(machine, unplanned, grid, steps),
                 section_storage(machine, unplanned))
            )
        finally:
            registry.enabled = True
    return planned, out_planned, out_unplanned


def assert_same_storage(got, want):
    for (d_got, s_got), (d_want, s_want) in zip(got, want):
        assert d_got == d_want
        for section, (a, b) in enumerate(zip(s_got, s_want)):
            assert np.array_equal(a, b), f"section {section} differs"


@pytest.fixture
def machine8():
    m = Machine(8, default_recv_timeout=10)
    am_util.load_all(m)
    return m


class TestWorkingTile:
    @pytest.mark.parametrize("steps", [1, 5, 8, 16, 17, 33])
    @pytest.mark.parametrize(
        "shape,grid", [((256, 256), (2, 2)), ((256, 128), (4, 2))]
    )
    def test_full_storage_bit_identical_to_per_sweep_path(
        self, machine8, shape, grid, steps
    ):
        """Interior *and* the 1-deep border ring match the unplanned
        per-sweep exchange after every call — including a second call
        that reuses the cached tile left over from the first."""
        _, planned, unplanned = heat_both_paths(
            machine8, shape, grid, [steps, steps]
        )
        assert_same_storage(planned, unplanned)
        # One tile per section (128x128 sections work at depth 8, 64x64
        # ones at depth 4), reused by the second call.
        tiles = plans_of(machine8).diagnostics()["working_tiles"]
        assert tiles == grid[0] * grid[1]

    @pytest.mark.parametrize(
        "plan_kwargs", [dict(drop=0.4), dict(duplicate=0.5)]
    )
    def test_drop_duplicate_faults_keep_storage_bit_identical(
        self, machine, plan_kwargs
    ):
        registry = plans_of(machine)
        registry.retry_timeout = 0.25  # keep reship latency test-sized
        faulty = FaultyTransport(
            machine,
            FaultPlan(seed=11, kinds=(HALO_BULK_KIND,), **plan_kwargs),
        )
        faulty.install()
        try:
            # 64x64 sections: depth-4 tiles, two phases per 8 sweeps.
            _, planned, unplanned = heat_both_paths(
                machine, (128, 128), (2, 2), [8, 7]
            )
        finally:
            faulty.uninstall()
            registry.retry_timeout = 5.0
        assert_same_storage(planned, unplanned)
        diag = registry.diagnostics()
        assert diag["working_tiles"] == 4
        if "drop" in plan_kwargs:
            assert diag["retries"] >= 1
        else:
            assert diag["duplicate_strips"] >= 1

    def test_stale_phase_leaves_storage_at_pre_call_contents(self, machine):
        """Phase 1 of an 8-sweep call is fenced as STALE_EPOCH after
        phase 0 already relaxed the tiles: the call fails and no section
        storage — interior or border ring — has moved."""
        arr = make_array(machine, (128, 128), (2, 2), borders=1)
        arr.from_numpy(np.random.default_rng(9).uniform(0, 100, (128, 128)))
        run_heat(machine, arr, (2, 2), 1)  # fill the borders once
        before = section_storage(machine, arr)
        stamped = []

        def stale_phase_one(message, forward):
            strip = message.payload
            if message.kind == HALO_BULK_KIND and strip.token[1] == 1:
                strip.epoch = -1  # predates every durability epoch
                stamped.append(strip)
            forward(message)

        machine.transport_stack.push(stale_phase_one)
        try:
            res = distributed_call(
                machine, list(arr.processors), heat_steps,
                [2, 2, 8, Local(arr.array_id)],
            )
        finally:
            machine.transport_stack.remove(stale_phase_one)
        assert res.status is not Status.OK
        assert stamped and plans_of(machine).stale_strips >= 1
        assert plans_of(machine).diagnostics()["working_tiles"] == 4
        for section, (a, b) in enumerate(
            zip(section_storage(machine, arr), before)
        ):
            assert np.array_equal(a, b), f"section {section} moved"

    def test_concurrent_tile_fetches_share_one_tile(self, machine):
        """Copies fetch tiles from many threads at once: each
        (array, section) still gets exactly one tile."""
        arr = make_array(machine)
        registry = plans_of(machine)
        got = [[] for _ in range(16)]

        def fetch(out):
            for section in (0, 1, 2) * 20:
                out.append(registry.working_tile(
                    arr.array_id, section, (6, 6), np.dtype(float),
                ))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=fetch, args=(out,)) for out in got
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=20)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for section in range(3):
            tiles = {id(out[i]) for out in got
                     for i in range(section, 60, 3)}
            assert len(tiles) == 1
        assert registry.diagnostics()["working_tiles"] == 3

    def test_depth_keyed_plans_cache_and_invalidate(self, machine):
        arr = make_array(machine, (128, 128), (2, 2), borders=1)
        arr.from_numpy(np.ones((128, 128)))
        registry = plans_of(machine)
        base = registry.diagnostics()
        declared = registry.halo_plan("stencil5", arr.array_id)
        deep = registry.halo_plan("stencil5", arr.array_id, depth=4)
        assert deep is not declared
        assert (declared.pad, deep.pad, deep.depth) == (1, 4, 4)
        assert registry.halo_plan("stencil5", arr.array_id, depth=4) is deep
        diag = registry.diagnostics()
        assert diag["compiled"] == base["compiled"] + 2
        assert diag["hits"] == base["hits"] + 1
        # Heat calls work at depth 4 on 64x64 sections whatever their
        # sweep count: every call reuses the cached plan and tiles.
        run_heat(machine, arr, (2, 2), 8)
        tile = registry.working_tile(
            arr.array_id, 0, (72, 72), np.dtype(float)
        )
        for steps in (1, 2, 3, 5, 8):
            run_heat(machine, arr, (2, 2), steps)
        assert registry.working_tile(
            arr.array_id, 0, (72, 72), np.dtype(float)
        ) is tile
        diag = registry.diagnostics()
        assert diag["compiled"] == base["compiled"] + 2
        assert diag["working_tiles"] == 4
        # Migration bumps the epoch: every depth recompiles.
        arr.migrate({3: 4})
        moved = registry.halo_plan("stencil5", arr.array_id, depth=4)
        assert moved is not deep and moved.processors[3] == 4
        assert registry.halo_plan("stencil5", arr.array_id) is not declared
        assert registry.diagnostics()["invalidations"] == \
            base["invalidations"] + 2
        # Geometry: deeper declared borders invalidate the working plan.
        arr.verify_borders([2, 2, 2, 2])
        regrown = registry.halo_plan("stencil5", arr.array_id, depth=4)
        assert regrown is not moved and regrown.layout.borders == (2,) * 4
        arr.free()
        diag = registry.diagnostics()
        assert diag["working_tiles"] == 0
        assert all(k[1] != arr.array_id.as_tuple() for k in registry._plans)
