"""Border-exchange stencil kernels (overlap areas, §3.2.1.3).

The thesis supports Fortran-D-style *borders* around local sections "to be
used internally by the data-parallel program ... as communication buffers"
(§3.2.1.3).  This module is the data-parallel program family that actually
uses them: 5-point Jacobi relaxation on a 2-D domain, with each sweep
exchanging edge data into the neighbours' border cells.

These kernels power the FIG-2.1 climate experiment (ocean/atmosphere
subdomains are each a bordered distributed array relaxed by these programs)
and the ABL-1 decomposition-shape ablation (halo traffic of ``(block,
block)`` vs ``(block, "*")`` grids).

Distribution contract: the array is 2-D, distributed over a ``gr x gc``
processor grid with row-major grid indexing (copy ``index`` sits at grid
coordinates ``divmod(index, gc)``), with borders of at least 1 in every
direction.  Domain edges are Dirichlet: border cells on the physical
boundary hold fixed values the kernel never overwrites.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.arrays.local_section import LocalSection
from repro.spmd import collectives
from repro.spmd.context import OutCell, SPMDContext
from repro.spmd.linalg import interior


def _full(section: Union[LocalSection, np.ndarray]) -> np.ndarray:
    if isinstance(section, LocalSection):
        if min(section.borders) < 1:
            raise ValueError(
                "stencil kernels need borders >= 1 in every direction "
                f"(got {section.borders}); create the array with "
                "Border_info=[1,1,1,1] or foreign_borders"
            )
        return section.full()
    return np.asarray(section)


def grid_coords(index: int, grid_cols: int) -> tuple[int, int]:
    """Copy index -> (row, col) on the row-major processor grid."""
    return divmod(index, grid_cols)


def border_query(parm_num: int, rank: int) -> tuple[int, ...]:
    """``foreign_borders`` protocol (§5.1.7): every array parameter of the
    stencil programs needs a 1-deep border on each side."""
    return (1,) * (2 * rank)


def exchange_halos(
    ctx: SPMDContext,
    full: np.ndarray,
    grid_rows: int,
    grid_cols: int,
) -> int:
    """Swap 1-deep edge strips with the four grid neighbours.

    Returns the number of messages sent (the ABL-1 traffic metric).
    Communication is deadlock-free because sends never block: every copy
    posts all sends, then receives selectively by tag and source.
    """
    expected = grid_rows * grid_cols
    if expected != len(ctx.procs):
        raise ValueError(
            f"exchange_halos: processor grid {grid_rows}x{grid_cols} "
            f"implies {expected} copies, but this distributed call has "
            f"{len(ctx.procs)} (section shape "
            f"{getattr(full, 'shape', None)}); the grid arguments must "
            "match the array layout's owner count"
        )
    r, c = grid_coords(ctx.index, grid_cols)
    sent = 0
    neighbours = {
        "north": (r - 1, c) if r > 0 else None,
        "south": (r + 1, c) if r + 1 < grid_rows else None,
        "west": (r, c - 1) if c > 0 else None,
        "east": (r, c + 1) if c + 1 < grid_cols else None,
    }
    strips = {
        "north": full[1, 1:-1].copy(),
        "south": full[-2, 1:-1].copy(),
        "west": full[1:-1, 1].copy(),
        "east": full[1:-1, -2].copy(),
    }
    opposite = {"north": "south", "south": "north", "west": "east", "east": "west"}
    for side, coords in neighbours.items():
        if coords is None:
            continue
        dest_rank = coords[0] * grid_cols + coords[1]
        # Tag by the side the *receiver* will see it on.
        ctx.comm.send(dest_rank, strips[side], tag=("halo", opposite[side]))
        sent += 1
    for side, coords in neighbours.items():
        if coords is None:
            continue
        src_rank = coords[0] * grid_cols + coords[1]
        strip = ctx.comm.recv(source_rank=src_rank, tag=("halo", side))
        if side == "north":
            full[0, 1:-1] = strip
        elif side == "south":
            full[-1, 1:-1] = strip
        elif side == "west":
            full[1:-1, 0] = strip
        else:
            full[1:-1, -1] = strip
    return sent


def jacobi_sweep(full: np.ndarray) -> np.ndarray:
    """One 5-point Jacobi relaxation over the interior; returns the new
    interior (does not write it back)."""
    return 0.25 * (
        full[:-2, 1:-1] + full[2:, 1:-1] + full[1:-1, :-2] + full[1:-1, 2:]
    )


def _sweep_region(
    full: np.ndarray, r0: int, r1: int, c0: int, c1: int
) -> np.ndarray:
    """5-point Jacobi update of ``full[r0:r1, c0:c1]`` (reads the +-1
    frame around it).  Operand order matches :func:`jacobi_sweep` exactly,
    so the planned path's frame computations are bit-identical to a
    neighbour's interior update of the same cells."""
    return 0.25 * (
        full[r0 - 1:r1 - 1, c0:c1]
        + full[r0 + 1:r1 + 1, c0:c1]
        + full[r0:r1, c0 - 1:c1 - 1]
        + full[r0:r1, c0 + 1:c1 + 1]
    )


# One cell of working halo per this many cells of a section's thinnest
# side: with K = min(h, w) // 16 the redundant frame work of a K-sweep
# phase stays near 2K / min(h, w), about 1/8 of a sweep.
_CELLS_PER_HALO_CELL = 16


def working_depth(declared: int, local_dims) -> int:
    """The working depth ``K`` of an array's planned ``heat_steps``
    calls: the declared usable border depth, deepened to
    ``min(local_dims) // 16`` on large sections.  It pads the private
    working tile and bounds every exchange phase; a call of ``n`` sweeps
    runs phases of at most ``min(n, K)``."""
    return max(declared, min(local_dims) // _CELLS_PER_HALO_CELL)


def phase_lengths(n_steps: int, depth: int) -> list:
    """Split ``n_steps`` sweeps into ``ceil(n_steps / depth)`` phases of
    near-equal length (longer ones first), each at most ``depth``."""
    phases = -(-n_steps // depth)
    base, extra = divmod(n_steps, phases)
    return [base + 1] * extra + [base] * (phases - extra)


def _plan_for(ctx: SPMDContext, section, gr: int, gc: int):
    """Resolve ``(record, plan, registry)`` for the planned heat path, or
    None when it cannot engage: raw ndarray, unmanaged section, no perf
    layer, planning disabled, grid mismatch, or unsupported geometry.
    ``plan`` is compiled with the array's :func:`working_depth` as its
    pad, so it addresses the working tiles.  Every input to this
    decision is machine-global or layout-derived, so all copies of one
    call take the same branch."""
    if not isinstance(section, LocalSection):
        return None
    machine = ctx.machine
    perf = getattr(machine, "_perf", None)
    manager = getattr(machine, "_array_manager", None)
    plans = getattr(perf, "plans", None)
    if plans is None or manager is None or not plans.enabled:
        return None
    record = manager.record_for_section(ctx.node, section)
    if record is None:
        return None
    layout = record.layout
    if layout.rank != 2 or tuple(layout.grid) != (gr, gc):
        return None
    declared = min(min(layout.borders), min(layout.local_dims))
    plan = plans.halo_plan(
        "stencil5", record.array_id,
        depth=working_depth(declared, layout.local_dims),
    )
    if plan is None:
        return None
    return record, plan, plans


def _relax_phases(
    ctx: SPMDContext,
    record,
    plan,
    registry,
    full: np.ndarray,
    n_steps: int,
) -> float:
    """Jacobi relaxation of one working tile in deep-halo phases.

    ``full`` is padded by ``plan.pad`` cells on every side.  The sweeps
    run in :func:`phase_lengths` phases of at most ``plan.depth``; each
    phase exchanges once at depth ``k`` (its length) and then runs ``k``
    sweeps; sweep ``j`` updates the local region extended by ``k-1-j``
    cells toward every neighbour (never past a physical edge).  The
    extension cells redundantly recompute what the neighbour computes
    for its own interior — same arithmetic, same values — so the result
    is bit-identical to exchanging every sweep, while the interior of
    sweep 0 overlaps with the in-flight halo traffic between
    ``prefetch()`` and ``complete()``.
    """
    layout = record.layout
    d = plan.pad
    h, w = layout.local_dims
    section = record.section_number_for(ctx.processor_number)
    coords = layout.section_coords(section)
    ext_n = coords[0] > 0
    ext_s = coords[0] + 1 < layout.grid[0]
    ext_w = coords[1] > 0
    ext_e = coords[1] + 1 < layout.grid[1]
    delta = 0.0
    done_steps = 0
    for phase, k in enumerate(phase_lengths(n_steps, plan.depth)):
        exchange = plan.begin(
            registry, record, full, section, k,
            (ctx.group, phase), ctx.processor_number,
        )
        exchange.prefetch()
        # Overlap: the sweep-0 inner block reads interior cells only, so
        # it can run while the halo strips are in flight.
        inner = None
        if h > 2 and w > 2:
            inner = _sweep_region(full, d + 1, d + h - 1, d + 1, d + w - 1)
        exchange.complete()
        for j in range(k):
            e = k - 1 - j
            r0 = d - (e if ext_n else 0)
            r1 = d + h + (e if ext_s else 0)
            c0 = d - (e if ext_w else 0)
            c1 = d + w + (e if ext_e else 0)
            if j == 0 and inner is not None:
                new = np.empty((r1 - r0, c1 - c0), dtype=full.dtype)
                new[d + 1 - r0:d + h - 1 - r0,
                    d + 1 - c0:d + w - 1 - c0] = inner
                # The frame around the inner block reads halo cells, so
                # it runs after complete().
                new[:d + 1 - r0, :] = _sweep_region(full, r0, d + 1, c0, c1)
                new[d + h - 1 - r0:, :] = _sweep_region(
                    full, d + h - 1, r1, c0, c1
                )
                new[d + 1 - r0:d + h - 1 - r0, :d + 1 - c0] = _sweep_region(
                    full, d + 1, d + h - 1, c0, d + 1
                )
                new[d + 1 - r0:d + h - 1 - r0,
                    d + w - 1 - c0:] = _sweep_region(
                    full, d + 1, d + h - 1, d + w - 1, c1
                )
            else:
                new = _sweep_region(full, r0, r1, c0, c1)
            if done_steps + j == n_steps - 1:
                delta = float(np.max(np.abs(
                    new[d - r0:d + h - r0, d - c0:d + w - c0]
                    - full[d:d + h, d:d + w]
                )))
            full[r0:r1, c0:c1] = new
        done_steps += k
    return delta


def _heat_steps_planned(
    ctx: SPMDContext,
    record,
    plan,
    registry,
    section: LocalSection,
    n_steps: int,
) -> float:
    """The planned path: relax a private working tile padded by
    ``plan.pad`` cells, whatever the declared border width ``b``.

    The section's interior and its border ring up to ``r = min(b, pad)``
    deep are copied into the tile once, every phase runs on the tile,
    and only a completed call writes back: the interior and the ring's
    four edge strips (the corner blocks, which no 5-point sweep reads,
    keep their contents).  A call that aborts mid-phase therefore leaves
    section storage exactly as it found it.
    """
    h, w = record.layout.local_dims
    pad, b = plan.pad, section.borders[0]
    r = min(b, pad)
    stored = section.full()[b - r:b + h + r, b - r:b + w + r]
    o = pad - r  # tile offset of the copied ring
    # The tile must start from every acknowledged element write.
    registry.flush_for(plan.array_id)
    tile = registry.working_tile(
        plan.array_id, record.section_number_for(ctx.processor_number),
        (h + 2 * pad, w + 2 * pad), stored.dtype,
    )
    with record.lock:
        tile[o:o + h + 2 * r, o:o + w + 2 * r] = stored
    delta = _relax_phases(ctx, record, plan, registry, tile, n_steps)
    with record.lock:
        stored[:, r:r + w] = tile[o:o + h + 2 * r, pad:pad + w]
        stored[r:r + h, :r] = tile[pad:pad + h, o:pad]
        stored[r:r + h, r + w:] = tile[pad:pad + h, pad + w:pad + w + r]
    return delta


def heat_steps(
    ctx: SPMDContext,
    grid_rows,
    grid_cols,
    steps,
    section: Union[LocalSection, np.ndarray],
    delta_out: Optional[Union[OutCell, np.ndarray]] = None,
) -> None:
    """Run ``steps`` Jacobi sweeps of the heat equation on a bordered
    distributed array.

    Precondition: section has borders >= 1; domain-edge border cells hold
    the Dirichlet boundary values.  Postcondition: the interior holds the
    relaxed field; ``delta_out`` (if given) the global max |change| of the
    final sweep — the convergence measure.

    When the section belongs to a managed distributed array and the
    machine carries a perf layer, the sweeps run on the *planned* path:
    precompiled ``halo_bulk`` transfers (one fused message per neighbour
    per phase), interior compute overlapped with in-flight halo traffic,
    and one exchange amortised over up to ``K`` sweeps
    (:mod:`repro.perf.commplan`).  The runtime picks ``K`` itself
    (:func:`working_depth`): the declared border depth, deepened to
    ``min(local_dims) // 16`` on large sections; a call of ``steps``
    sweeps runs ``ceil(steps / K)`` near-equal phases.  Each copy relaxes
    a private working tile padded by ``K`` and writes the interior and
    the border ring's edge strips back only when the call completes —
    section storage changes only at call end, and an aborted call leaves
    it untouched.

    After a call, physical-edge border cells keep their Dirichlet values,
    the neighbour-facing cells next to the interior hold the halo the
    final sweep read, and border corners are unchanged — on 1-deep
    borders exactly what the per-sweep ``exchange_halos`` path leaves.
    That path remains the fallback for raw ndarrays and unmanaged
    sections, and is bit-identical in results.
    """
    gr = int(grid_rows[0]) if hasattr(grid_rows, "__getitem__") else int(grid_rows)
    gc = int(grid_cols[0]) if hasattr(grid_cols, "__getitem__") else int(grid_cols)
    n_steps = int(steps[0]) if hasattr(steps, "__getitem__") else int(steps)
    planned = _plan_for(ctx, section, gr, gc)
    if planned is not None:
        record, plan, registry = planned
        delta = _heat_steps_planned(
            ctx, record, plan, registry, section, n_steps
        )
    else:
        full = _full(section)
        if isinstance(section, LocalSection) and max(section.borders) > 1:
            raise ValueError(
                "the unplanned heat_steps path supports exactly 1-deep "
                f"borders (got {section.borders}); deep borders need the "
                "planned path (a managed array on a machine with the "
                "perf layer loaded)"
            )
        delta = 0.0
        for _ in range(n_steps):
            exchange_halos(ctx, full, gr, gc)
            new_interior = jacobi_sweep(full)
            delta = float(np.max(np.abs(new_interior - full[1:-1, 1:-1])))
            full[1:-1, 1:-1] = new_interior
    delta = collectives.allreduce(ctx.comm, delta, op="max")
    if delta_out is not None:
        if isinstance(delta_out, OutCell):
            delta_out.set(delta)
        else:
            delta_out[0] = delta


def halo_traffic_for(
    ctx: SPMDContext,
    grid_rows,
    grid_cols,
    section: Union[LocalSection, np.ndarray],
    bytes_out: Union[OutCell, np.ndarray],
) -> None:
    """Measure one halo exchange's outbound bytes for this decomposition
    (the ABL-1 metric): perimeter strips x 8 bytes."""
    gr = int(grid_rows[0]) if hasattr(grid_rows, "__getitem__") else int(grid_rows)
    gc = int(grid_cols[0]) if hasattr(grid_cols, "__getitem__") else int(grid_cols)
    full = _full(section)
    r, c = grid_coords(ctx.index, gc)
    rows, cols = full.shape[0] - 2, full.shape[1] - 2
    nbytes = 0
    if r > 0:
        nbytes += cols * 8
    if r + 1 < gr:
        nbytes += cols * 8
    if c > 0:
        nbytes += rows * 8
    if c + 1 < gc:
        nbytes += rows * 8
    total = collectives.allreduce(ctx.comm, nbytes, op="sum")
    if isinstance(bytes_out, OutCell):
        bytes_out.set(total)
    else:
        bytes_out[0] = total
