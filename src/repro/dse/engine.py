"""The evaluation kernel every design-space exploration runs.

A candidate space is a cross product of (window, level split) *groups* and a
primary-cone instance-count axis.  The candidates of one group share their
cone shapes, per-depth areas and cone-performance table
(:class:`GroupContext`).  Every row is costed with the same formulas: its
area is Σ_depth instances × cone area (:func:`group_area`), and its frame
time is the throughput model's per-tile half
(:meth:`~repro.estimation.throughput_model.ThroughputModel.tile_columns`)
under its one frame-time formula
(:meth:`~repro.estimation.throughput_model.ThroughputModel.frame_times`).
A row is admitted when it lies in its group's area-admitted prefix of the
count axis (found by :mod:`repro.dse.stream`) and meets any
``min_frames_per_second`` floor.

One pass, :func:`whole_space_pass`, answers every exploration, in memory
or streamed.  It reads the frame-independent costs as one cached table
(:class:`SpaceCosts`) over the counts ``1..W``, where ``W`` is the smaller
of the count axis and the largest saturation count among the groups
(:meth:`~repro.estimation.throughput_model.ThroughputModel.saturation_count`:
the most executions a level of the primary depth runs per tile, past which
more instances change no frame time).  A row past the table therefore has
the figures of its last column and only an area of its own.  The pass
computes the frame time, the prefix mask and the fps mask once over the
table, admits each row past it with the last column, and runs
:func:`~repro.dse.pareto.pareto_indices` once over the candidates: the
admitted rows of the table plus, per group, its last admitted row past
it (the rows between share its frame time and lie between it and the last
column in area).  Memory is bounded by the table, groups × ``W``, plus the
design points kept, never by the count axis.

Design points are built for every admitted row
(``materialize="admitted"``) or for the Pareto rows alone
(``"frontier"``), through one builder, :func:`build_points`, one group's
rows per call, as plain Python values: what a group's points share (names,
depths, the base cone counts, the cone areas) is derived once per call,
and each point gets only its own containers and objects.  The pass also
reports the chunk accounting of the chunked fold it replaced
(:func:`_chunk_grid`, with the fps suffix probe
:func:`_throughput_admitted_start`).  The area-side pushdown and the
caches live in :mod:`repro.dse.stream`.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import (TYPE_CHECKING, Any, Dict, List, Mapping, Optional,
                    Sequence, Tuple)

import numpy as np

from repro.architecture.enumeration import ArchitectureSpace
from repro.architecture.template import ConeArchitecture
from repro.dse.design_point import DesignPoint
from repro.dse.pareto import pareto_indices
from repro.estimation.throughput_model import (
    ArchitecturePerformance,
    ConePerformance,
    ThroughputModel,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dse.explorer import ConeCharacterization


def group_area(counts: "np.ndarray", depths: Sequence[int], primary: int,
               area_by_depth: Mapping[int, float]) -> "np.ndarray":
    """Per-row area over a primary-count vector.

    Accumulated in sorted-depth order with only the primary depth's
    instance count varying — the same additions as the per-point sum, so
    any slice of the count axis reproduces the per-point values bit for
    bit.
    """
    area = np.zeros(counts.size, dtype=np.float64)
    for depth in depths:
        if depth == primary:
            area += counts * area_by_depth[depth]
        else:
            area += 1 * area_by_depth[depth]
    return area


@dataclass(frozen=True)
class GroupContext:
    """Per-(window, split) evaluation state shared by all rows of a group
    (read-only: cached contexts are shared between explorations)."""

    window: int
    split: Tuple[int, ...]
    depths: Tuple[int, ...]
    primary: int
    area_by_depth: Mapping[int, float]
    area_estimated: bool
    representative: Any
    cone_performance: Mapping[int, ConePerformance]


def group_context(space: ArchitectureSpace,
                  characterizations: Mapping[Tuple[int, int],
                                             "ConeCharacterization"],
                  window: int, split: Tuple[int, ...]) -> GroupContext:
    """Build one group's evaluation context from the space and the
    characterizations (pure index arithmetic, no materialized columns)."""
    depths = tuple(sorted(set(split)))
    return GroupContext(
        window=window, split=split, depths=depths, primary=depths[-1],
        area_by_depth=MappingProxyType({
            depth: characterizations[(window, depth)].area_luts
            for depth in depths}),
        area_estimated=any(not characterizations[(window, depth)].synthesized
                           for depth in depths),
        representative=space.materialize_row_parts(window, split, 1),
        cone_performance=MappingProxyType({
            depth: ConePerformance(
                depth=depth, window_side=window,
                latency_cycles=characterizations[
                    (window, depth)].latency_cycles,
                initiation_interval=1)
            for depth in depths}))


def cost_counts(throughput_model: ThroughputModel, context: GroupContext,
                frame_width: int, frame_height: int,
                counts: "np.ndarray") -> Mapping[str, Any]:
    """Throughput columns of one group's candidates at ``counts``.

    ``estimate_batch`` is elementwise over the count axis, so any subset of
    counts reproduces the full-column values bit for bit.
    """
    return throughput_model.estimate_batch(
        context.representative, context.cone_performance,
        frame_width, frame_height, counts)


def build_points(space: ArchitectureSpace, context: GroupContext,
                 usable_luts: float, architecture_label: str,
                 clock_hz: float, tiles_per_frame: int,
                 transfer_cycles_per_tile: float,
                 offchip_bytes_per_frame: float, counts: List[int],
                 areas: List[float], compute_cycles_per_tile: List[float],
                 cycles_per_tile: List[float],
                 seconds_per_frame: List[float],
                 frames_per_second: List[float],
                 compute_bound: List[bool]) -> List[DesignPoint]:
    """One :class:`DesignPoint` per admitted row of one group: the only
    place rows become design points.

    The scalars are the group's figures at the request's frame size (the
    group-constant columns of :meth:`ThroughputModel.estimate_batch`); the
    lists hold one plain Python value per row (from ``.tolist()``), in
    order: the primary instance count, the area and the count-dependent
    figures.  What the rows share is derived once per call.  Each point
    gets only its own ``level_depths`` list, ``cone_counts`` and
    ``cone_area_by_depth`` dicts and its three objects, built through
    their public constructors (positionally), so a point equals, prints,
    serializes, pickles and sizes like one built field by field from
    :meth:`ArchitectureSpace.materialize_row_parts`.
    """
    kernel, radius, components = (space.kernel_name, space.radius,
                                  space.components)
    window, split, primary = context.window, context.split, context.primary
    estimated = context.area_estimated
    base_counts = dict.fromkeys(context.depths, 1)
    cone_areas = dict(context.area_by_depth)
    architecture = ConeArchitecture.from_trusted_parts
    points = []
    for count, area, compute, cycles, seconds, rate, bound in zip(
            counts, areas, compute_cycles_per_tile, cycles_per_tile,
            seconds_per_frame, frames_per_second, compute_bound):
        cone_counts = base_counts.copy()
        cone_counts[primary] = count
        points.append(DesignPoint(
            architecture(kernel, window, list(split), cone_counts, radius,
                         components),
            area, estimated,
            ArchitecturePerformance(
                architecture_label, clock_hz, tiles_per_frame, compute,
                transfer_cycles_per_tile, cycles, seconds, rate,
                offchip_bytes_per_frame, bound),
            area <= usable_luts, cone_areas.copy()))
    return points


def _throughput_admitted_start(admit_len: int, min_fps: float,
                               context: GroupContext,
                               throughput_model: ThroughputModel,
                               frame_width: int,
                               frame_height: int) -> Optional[int]:
    """Zero-based count index where the fps-admitted suffix begins.

    Compute cycles per tile are nonincreasing in the primary instance count
    (more instances, fewer serialized execution batches), and every other
    term of the frame time is count-constant, so ``frames_per_second`` is
    nondecreasing along the count axis and a min-fps floor admits a suffix
    ``[start, admit_len)`` — found by O(log n) single-count probes of the
    exact batch formula (elementwise over the count axis, hence
    bit-identical to the full-column values).  Returns ``admit_len`` when
    every row fails the floor.

    The fps mask of :func:`whole_space_pass` already rejects the rows below
    the floor.  The probe only places ``start`` for the chunk accounting
    (:func:`_chunk_grid`), which describes the chunked fold the pass
    replaced, and it is the only :meth:`ThroughputModel.estimate_batch`
    caller left on the streamed requests, which perfbench's
    ``estimation.throughput_batch`` binding needs.  Both go together, in
    the benchmark change that retargets that binding.

    Returns ``None`` when the monotonicity argument does not hold: a
    (pathological) negative execution interval on the primary level, or a
    nonpositive frame time anywhere in the prefix (``frames_per_second``
    snaps to 0 there, breaking the suffix shape).  The caller then counts
    the whole prefix.
    """
    def columns_at(count: int) -> Mapping[str, object]:
        return cost_counts(throughput_model, context, frame_width,
                           frame_height, np.asarray([count], dtype=np.int64))

    interval = throughput_model.execution_interval_cycles(
        context.representative, context.primary,
        context.cone_performance[context.primary])
    if interval < 0:
        return None
    tail = columns_at(admit_len)
    # seconds_per_frame is nonincreasing in the count, so its minimum over
    # the prefix sits at admit_len: positive there means positive (and the
    # fps column exactly 1/seconds) everywhere.
    if not float(tail["seconds_per_frame"][0]) > 0.0:
        return None

    def admits(count: int) -> bool:
        return bool(columns_at(count)["frames_per_second"][0] >= min_fps)

    if not bool(tail["frames_per_second"][0] >= min_fps):
        return admit_len  # even the fastest admitted row fails the floor
    if admits(1):
        return 0
    low, high = 1, admit_len  # fps(low) fails the floor, fps(high) passes
    while high - low > 1:
        mid = (low + high) // 2
        if admits(mid):
            high = mid
        else:
            low = mid
    return high - 1  # count `high` is the smallest admitted count


@dataclass(frozen=True)
class SpaceCosts:
    """The frame-independent costs of a whole space, as one table: what
    every exploration reads (the cost-cache entry of
    :mod:`repro.dse.stream`).

    Per group whose depths are all characterized, in enumeration order: its
    ``(window index, split index)`` key, :class:`GroupContext`,
    architecture label, transfer cycles per tile and off-chip bytes per
    tile.  Per row, as ``groups × W`` arrays over the counts ``1..W``: the
    area (:func:`group_area`), and the compute cycles per tile, cycles per
    tile and ``compute_bound`` of :meth:`ThroughputModel.tile_columns`.
    ``W`` is the smaller of the count axis and the largest
    :meth:`~ThroughputModel.saturation_count` among the groups, so every
    count-dependent column is constant from column ``W - 1`` on and a
    larger count axis costs no more.  A row's group and count follow from
    its position.

    Immutable: the arrays refuse writes, so one table serves every
    exploration that shares the space, the characterizations and the model.
    """

    keys: Tuple[Tuple[int, int], ...]
    contexts: Tuple[GroupContext, ...]
    labels: Tuple[str, ...]
    transfer_cycles_per_tile: Tuple[float, ...]
    bytes_per_tile: Tuple[float, ...]
    area: "np.ndarray"
    compute_cycles_per_tile: "np.ndarray"
    cycles_per_tile: "np.ndarray"
    compute_bound: "np.ndarray"


def space_costs(space: ArchitectureSpace,
                characterizations: Mapping[Tuple[int, int],
                                           "ConeCharacterization"],
                throughput_model: ThroughputModel,
                splits: Sequence[Tuple[int, ...]]) -> SpaceCosts:
    """Build a space's :class:`SpaceCosts`, cut at the largest saturation
    count."""
    keys: List[Tuple[int, int]] = []
    contexts: List[GroupContext] = []
    for window_index, window in enumerate(space.window_sides):
        for split_index, split in enumerate(splits):
            if all((window, depth) in characterizations for depth in split):
                keys.append((window_index, split_index))
                contexts.append(group_context(space, characterizations,
                                              window, split))
    counts = np.arange(1, min(space.max_cones_per_depth, max(
        (throughput_model.saturation_count(context.representative)
         for context in contexts), default=1)) + 1, dtype=np.int64)
    columns = [dict(throughput_model.tile_columns(
                        context.representative, context.cone_performance,
                        counts),
                    area=group_area(counts, context.depths, context.primary,
                                    context.area_by_depth))
               for context in contexts]

    def per_group(name: str) -> Tuple[Any, ...]:
        return tuple(group[name] for group in columns)

    def per_row(name: str, dtype: Any = np.float64) -> "np.ndarray":
        table = np.array(per_group(name), dtype=dtype).reshape(
            len(columns), counts.size)
        table.flags.writeable = False
        return table

    return SpaceCosts(
        keys=tuple(keys), contexts=tuple(contexts),
        labels=per_group("architecture_label"),
        transfer_cycles_per_tile=per_group("transfer_cycles_per_tile"),
        bytes_per_tile=per_group("bytes_per_tile"),
        area=per_row("area"),
        compute_cycles_per_tile=per_row("compute_cycles_per_tile"),
        cycles_per_tile=per_row("cycles_per_tile"),
        compute_bound=per_row("compute_bound", bool))


def _chunk_grid(start: "np.ndarray", prefix: "np.ndarray",
                chunk_rows: int) -> Tuple[int, int]:
    """How many chunks the groups' admitted intervals ``[start, prefix)``
    span, and the most rows one of them holds: the chunk accounting every
    exploration reports.

    A group's chunks are the cells of the ``chunk_rows`` grid its interval
    touches, so only the first and the last can be short, and a group with
    no row left has none.  The counts describe the chunked fold that
    :func:`whole_space_pass` replaced; they stay until the benchmark change
    that drops the probe (:func:`_throughput_admitted_start`).
    """
    live = start < prefix
    first_cell, end_cell = start // chunk_rows, -(-prefix // chunk_rows)
    chunks = np.where(live, end_cell - first_cell, 0)
    first = np.minimum((first_cell + 1) * chunk_rows, prefix) - start
    last = prefix - np.maximum((end_cell - 1) * chunk_rows, start)
    rows = np.where(chunks > 2, chunk_rows, np.maximum(first, last))
    return int(chunks.sum()), int(rows[live].max(initial=0))


def whole_space_pass(space: ArchitectureSpace, costs: SpaceCosts,
                     throughput_model: ThroughputModel,
                     frame_width: int, frame_height: int, n_splits: int,
                     prefixes: Mapping[Tuple[int, int], Optional[int]],
                     chunk_rows: int, min_fps: Optional[float],
                     usable_luts: float, materialize: str) -> Dict[str, Any]:
    """Answer an exploration in one columnar pass over its
    :class:`SpaceCosts`.

    ``prefixes`` is the mask cache's map from group keys to area-admitted
    prefix lengths; ``costs`` holds exactly the groups whose prefix is not
    ``None``.  A row past the table takes the figures of its last column,
    so it is admitted or fps-pruned with that column, and its area comes
    from :func:`group_area`.  Of a group's admitted rows past the table,
    only the last joins the Pareto candidates: the others share its frame
    time and lie between it and the last column in area.  ``materialize``
    picks the rows that become design points: every admitted row
    (``"admitted"``) or the Pareto rows alone (``"frontier"``).

    Where a ``min_fps`` floor is set and a prefix is longer than
    ``chunk_rows``, :func:`_throughput_admitted_start` places the start of
    the fps-admitted suffix, up to the group's saturation count when its
    primary cone area is nonnegative, and the chunk counts follow from the
    admitted intervals (:func:`_chunk_grid`).  Returns the accounting, the
    design points (``design_points``: every admitted row in enumeration
    order, or the Pareto members), the Pareto members (``pareto``, in
    increasing-area order, the same objects) and their global rows
    (``pareto_rows``).
    """
    prefix = np.array([prefixes[key] for key in costs.keys], dtype=np.int64)
    start = np.zeros_like(prefix)
    if min_fps is not None:
        for group in np.flatnonzero(prefix > chunk_rows).tolist():
            context = costs.contexts[group]
            stop = int(prefix[group])
            if context.area_by_depth[context.primary] >= 0:
                stop = min(stop, throughput_model.saturation_count(
                    context.representative))
            found = _throughput_admitted_start(
                stop, min_fps, context, throughput_model, frame_width,
                frame_height)
            start[group] = prefix[group] if found == stop else found or 0
    chunks_materialized, peak_chunk_rows = _chunk_grid(start, prefix,
                                                       chunk_rows)
    # the tile count reads only the window side: one hook call per side
    tiles_by_window: Dict[int, int] = {}
    for context in costs.contexts:
        if context.window not in tiles_by_window:
            tiles_by_window[context.window] = throughput_model.tiles_per_frame(
                context.representative, frame_width, frame_height)
    tiles = [tiles_by_window[context.window] for context in costs.contexts]
    seconds, fps = throughput_model.frame_times(
        costs.cycles_per_tile,
        np.array(tiles, dtype=np.int64).reshape(len(tiles), 1))
    # the rows below a probed start fail the floor (the probe's monotonicity
    # argument), so the fps mask rejects them without a mask of their own
    n_counts, width = space.max_cones_per_depth, costs.area.shape[1]
    admit = np.arange(width) < prefix[:, None]
    if min_fps is not None:
        admit &= fps >= min_fps

    def area_at(group: int, counts: "np.ndarray") -> "np.ndarray":
        context = costs.contexts[group]
        return group_area(counts, context.depths, context.primary,
                          context.area_by_depth)

    # the Pareto candidates, in enumeration order
    groups, offsets = np.nonzero(admit)
    area, times = costs.area[admit], seconds[admit]
    admitted_rows, tails = groups.size, []
    if width < n_counts:
        # a row past the table shares the last column's figures, so its fate
        past = np.where(admit[:, -1], prefix - width, 0)
        admitted_rows += int(past.sum())
        tails = np.flatnonzero(past).tolist()
    if tails:
        # only a group's last row past the table joins the candidates: the
        # others share its frame time and lie between it and the last
        # column in area, whatever the sign of the primary cone's area
        at = np.count_nonzero(admit, axis=1).cumsum()[tails]
        groups = np.insert(groups, at, tails)
        offsets = np.insert(offsets, at, prefix[tails] - 1)
        area = np.insert(area, at, [area_at(group, prefix[group:group + 1])[0]
                                    for group in tails])
        times = np.insert(times, at, seconds[tails, -1])
    keep = pareto_indices(area, times)
    first_rows = np.array([(window_index * n_splits + split_index)
                           * n_counts
                           for window_index, split_index in costs.keys],
                          dtype=np.int64)
    pareto_rows = first_rows[groups[keep]] + offsets[keep]

    # the rows that become points, in enumeration order, where each Pareto
    # member sits among them, and how to read their figures off the table:
    # by the admitted mask when they are the table's admitted rows
    members, select = keep, admit
    if materialize == "frontier":
        chosen = np.sort(keep)
        members = np.searchsorted(chosen, keep)
        groups, offsets = groups[chosen], offsets[chosen]
    elif tails:  # every admitted row, the ones past the table included
        every = np.sort(np.concatenate([groups * n_counts + offsets] + [
            np.arange(group * n_counts + width,
                      group * n_counts + prefix[group] - 1)
            for group in tails]))
        members = np.searchsorted(every, groups[keep] * n_counts
                                  + offsets[keep])
        groups, offsets = np.divmod(every, n_counts)
    if materialize == "frontier" or tails:
        select = (groups, np.minimum(offsets, width - 1))
    area = costs.area[select]
    if tails:
        beyond = offsets >= width
        for group in np.unique(groups[beyond]).tolist():
            rows = beyond & (groups == group)
            area[rows] = area_at(group, offsets[rows] + 1)

    points: List[DesignPoint] = []
    if groups.size:
        clock = throughput_model.device.typical_clock_hz
        counts, areas, compute, cycles, spf, rates, bound = (
            values.tolist() for values in (
                offsets + 1, area, costs.compute_cycles_per_tile[select],
                costs.cycles_per_tile[select], seconds[select], fps[select],
                costs.compute_bound[select]))
        low = 0
        for group, size in enumerate(np.bincount(
                groups, minlength=len(tiles)).tolist()):
            if not size:
                continue
            run = slice(low, low + size)
            low += size
            points += build_points(
                space, costs.contexts[group], usable_luts,
                architecture_label=costs.labels[group], clock_hz=clock,
                tiles_per_frame=tiles[group],
                transfer_cycles_per_tile=costs.transfer_cycles_per_tile[
                    group],
                offchip_bytes_per_frame=(costs.bytes_per_tile[group]
                                         * tiles[group]),
                counts=counts[run], areas=areas[run],
                compute_cycles_per_tile=compute[run],
                cycles_per_tile=cycles[run], seconds_per_frame=spf[run],
                frames_per_second=rates[run], compute_bound=bound[run])

    pareto = [points[index] for index in members.tolist()]
    return {"admitted_rows": admitted_rows,
            "fps_pruned": int(prefix.sum()) - admitted_rows,
            "peak_chunk_rows": peak_chunk_rows,
            "chunks_materialized": chunks_materialized,
            "design_points": (list(pareto) if materialize == "frontier"
                              else points),
            "pareto": pareto,
            "pareto_rows": pareto_rows}
