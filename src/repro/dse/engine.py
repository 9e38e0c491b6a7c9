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
``min_frames_per_second`` floor.  Two passes run these formulas, and the
size of the input picks one:

* :func:`whole_space_pass` answers an in-memory exploration (a space below
  :data:`~repro.dse.stream.STREAM_AUTO_THRESHOLD` rows, or
  ``stream=False``).  It reads the frame-independent costs of the whole
  space as one cached table (:class:`SpaceCosts`), computes the frame time,
  the prefix mask and the fps mask once over every row, runs
  :func:`~repro.dse.pareto.pareto_indices` once, and builds a
  :class:`~repro.dse.design_point.DesignPoint` for each admitted row.
* :func:`fold_groups` answers a streamed exploration at bounded memory.  It
  visits the groups once, in enumeration order, and costs each group's
  admitted interval (:func:`cost_counts`) in *chunks* of at most
  ``chunk_rows`` rows whose bounds sit at multiples of ``chunk_rows``.
  Where a floor is set and a prefix is longer than one chunk, a binary
  search on the throughput formula (:func:`_throughput_admitted_start`)
  first cuts the rows below the floor off the interval's front.  Costing
  stops at the group's saturation count
  (:meth:`~ThroughputModel.saturation_count`): from there on every row
  has the same frame time and no less area, so the rows past it are
  admitted or rejected in bulk by its frame rate and can never join the
  frontier.  Each chunk's admitted ``(area, time, global row)`` triples
  fold into a :class:`StreamingFrontier`, whose state is the Pareto
  frontier of everything folded so far; its members' points are built at
  the end.

Both admit the same rows and report the same accounting: the whole-space
pass runs the same suffix probe where the fold would, and both count the
cells of the ``chunk_rows`` grid that the admitted intervals touch
(:func:`_chunk_grid`), which bound what the fold costs.  Both turn rows
into design points through one builder, :func:`build_points`, one group's
rows per call, as plain Python values: what a group's points share (names,
depths, the base cone counts, the cone areas) is derived once per call,
and each point gets only its own containers and objects.  The area-side
pushdown and the caches live in :mod:`repro.dse.stream`.
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
    """Per-(window, split) evaluation state shared by all chunks of a group
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


class StreamingFrontier:
    """Streaming Pareto accumulator over (area, time) with bounded state.

    Each call to :meth:`update` folds a batch of objective values into the
    running frontier.  The state holds one ``(area, time, order)`` triple
    per current frontier member, where ``order`` is the candidate's global
    enumeration row.  Folding sorts the state plus the batch by ``order``
    and keeps :func:`~repro.dse.pareto.pareto_indices` of the result, so
    among equal ``(area, time)`` pairs the smallest global row survives
    whatever order the batches arrive in.  The result is therefore
    independent of batch sizes and arrival order, and identical to running
    ``pareto_indices`` once over the concatenated arrays.

    Orders must be unique across all updates (they are global rows);
    non-finite objectives raise :exc:`ValueError`, matching the batch
    contract in :mod:`repro.dse.pareto`.
    """

    def __init__(self) -> None:
        self._area = np.empty(0, dtype=np.float64)
        self._time = np.empty(0, dtype=np.float64)
        self._order = np.empty(0, dtype=np.int64)

    def __len__(self) -> int:
        return int(self._area.size)

    def update(self, area_luts: "np.ndarray", seconds_per_frame: "np.ndarray",
               order: "np.ndarray") -> None:
        areas = np.asarray(area_luts, dtype=np.float64)
        times = np.asarray(seconds_per_frame, dtype=np.float64)
        orders = np.asarray(order, dtype=np.int64)
        if not (areas.shape == times.shape == orders.shape) or areas.ndim != 1:
            raise ValueError("area, time, and order must be 1-D arrays of "
                             "equal length")
        if areas.size == 0:
            return
        orders = np.concatenate([self._order, orders])
        by_order = np.argsort(orders, kind="stable")
        areas = np.concatenate([self._area, areas])[by_order]
        times = np.concatenate([self._time, times])[by_order]
        keep = pareto_indices(areas, times)
        self._area = areas[keep]
        self._time = times[keep]
        self._order = orders[by_order][keep]

    def result(self) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
        """``(area, time, order)`` of the frontier, in increasing-area order
        (the exact order ``pareto_indices`` would return the same rows in)."""
        return self._area.copy(), self._time.copy(), self._order.copy()


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
    every row fails the floor.  The streamed fold passes its group's prefix
    cut at the saturation count, past which the frame rate is constant.

    Returns ``None`` when the monotonicity argument does not hold and the
    caller must cost the whole prefix: a (pathological) negative execution
    interval on the primary level, or a nonpositive frame time anywhere in
    the prefix (``frames_per_second`` snaps to 0 there, breaking the suffix
    shape).
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


def fold_groups(space: ArchitectureSpace,
                characterizations: Mapping[Tuple[int, int],
                                           "ConeCharacterization"],
                throughput_model: ThroughputModel,
                frame_width: int, frame_height: int,
                splits: Sequence[Tuple[int, ...]],
                prefixes: Mapping[Tuple[int, int], Optional[int]],
                chunk_rows: int, min_fps: Optional[float]) -> Dict[str, Any]:
    """Fold every group's admitted interval, group by group, into one
    frontier: the streamed pass.

    ``prefixes`` maps each group's ``(window index, split index)``, in the
    order to fold them, to the length of its area-admitted prefix of the
    count axis, or to ``None`` for a group without characterizations.
    Where a ``min_fps`` floor is set and a prefix is longer than
    ``chunk_rows``, :func:`_throughput_admitted_start` first cuts the rows
    below the floor off its front.  The rest is costed in chunks cut at
    multiples of ``chunk_rows``, but only up to the group's
    :meth:`~ThroughputModel.saturation_count`: the rows past it share that
    count's frame time and cost no less area (the primary cone's area is
    nonnegative), so they are admitted or rejected in bulk by its frame
    rate and never change the frontier.  A negative or NaN primary area
    voids that argument, and such a group is costed whole.  Each group's
    context is built once.  The chunk accounting is that of the
    ``[start, prefix)`` intervals (:func:`_chunk_grid`), as the
    whole-space pass reports it.  Returns the frontier, the fold's
    accounting and the contexts (under ``contexts``).
    """
    n_counts = space.max_cones_per_depth
    frontier = StreamingFrontier()
    contexts: Dict[Tuple[int, int], GroupContext] = {}
    intervals: List[Tuple[int, int]] = []
    admitted_rows = 0
    fps_pruned = 0
    frontier_peak = 0

    for group_key, prefix in prefixes.items():
        if not prefix:
            continue
        window_index, split_index = group_key
        context = contexts[group_key] = group_context(
            space, characterizations, space.window_sides[window_index],
            splits[split_index])
        stop = prefix
        if context.area_by_depth[context.primary] >= 0:
            stop = min(prefix, throughput_model.saturation_count(
                context.representative))
        start = 0
        if min_fps is not None and prefix > chunk_rows:
            start = _throughput_admitted_start(
                stop, min_fps, context, throughput_model, frame_width,
                frame_height) or 0
            if start == stop:  # even the fastest admitted row fails
                start = prefix
            fps_pruned += start
        intervals.append((start, prefix))
        if start == prefix:
            continue
        base_row = (window_index * len(splits) + split_index) * n_counts
        for low in range(start - start % chunk_rows, stop, chunk_rows):
            first, end = max(low, start), min(low + chunk_rows, stop)
            counts = np.arange(first + 1, end + 1, dtype=np.int32)
            columns = cost_counts(throughput_model, context, frame_width,
                                  frame_height, counts)
            rates = columns["frames_per_second"]
            if min_fps is None:
                index = np.arange(counts.size)
            else:
                index = np.flatnonzero(rates >= min_fps)
                fps_pruned += int(counts.size - index.size)
                if index.size == 0:
                    continue
            counts = counts[index]
            area = group_area(counts, context.depths, context.primary,
                              context.area_by_depth)
            times = np.asarray(columns["seconds_per_frame"])[index]
            rows = base_row + first + index.astype(np.int64)
            admitted_rows += int(rows.size)
            frontier.update(area, times, rows)
            frontier_peak = max(frontier_peak, len(frontier))
        # the rows past `stop` take the fate of the last costed row
        if min_fps is None or rates[-1] >= min_fps:
            admitted_rows += prefix - stop
        else:
            fps_pruned += prefix - stop

    grid = np.array(intervals, dtype=np.int64).reshape(-1, 2)
    chunks_materialized, peak_chunk_rows = _chunk_grid(grid[:, 0], grid[:, 1],
                                                       chunk_rows)
    return {"frontier": frontier,
            "admitted_rows": admitted_rows,
            "fps_pruned": fps_pruned,
            "peak_chunk_rows": peak_chunk_rows,
            "frontier_peak": frontier_peak,
            "chunks_materialized": chunks_materialized,
            "contexts": contexts}


@dataclass(frozen=True)
class SpaceCosts:
    """The frame-independent costs of a whole space, as one table: what an
    in-memory exploration reads (the cost-cache entry of
    :mod:`repro.dse.stream`).

    Per group whose depths are all characterized, in enumeration order: its
    ``(window index, split index)`` key, :class:`GroupContext`,
    architecture label, transfer cycles per tile and off-chip bytes per
    tile.  Per row, as ``groups × count axis`` arrays: the area
    (:func:`group_area`), and the compute cycles per tile, cycles per tile
    and ``compute_bound`` of :meth:`ThroughputModel.tile_columns`.  A row's
    group and count follow from its position.

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
    """Build a space's :class:`SpaceCosts` over the whole count axis."""
    counts = np.arange(1, space.max_cones_per_depth + 1, dtype=np.int64)
    keys: List[Tuple[int, int]] = []
    contexts: List[GroupContext] = []
    columns: List[Dict[str, Any]] = []
    for window_index, window in enumerate(space.window_sides):
        for split_index, split in enumerate(splits):
            if all((window, depth) in characterizations for depth in split):
                context = group_context(space, characterizations, window,
                                        split)
                keys.append((window_index, split_index))
                contexts.append(context)
                columns.append(dict(
                    throughput_model.tile_columns(
                        context.representative, context.cone_performance,
                        counts),
                    area=group_area(counts, context.depths, context.primary,
                                    context.area_by_depth)))

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
    span, and the most rows one of them holds: the chunk accounting both
    passes report.

    A group's chunks are the cells of the ``chunk_rows`` grid its interval
    touches, so only the first and the last can be short, and a group with
    no row left has none.  They bound what :func:`fold_groups` costs, which
    stops at the group's saturation count.
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
                     usable_luts: float) -> Dict[str, Any]:
    """Answer an in-memory exploration in one columnar pass over its
    :class:`SpaceCosts`.

    ``prefixes`` is the mask cache's map from group keys to area-admitted
    prefix lengths; ``costs`` holds exactly the groups whose prefix is not
    ``None``.  The pass admits the rows :func:`fold_groups` admits and
    reports the accounting it reports at ``chunk_rows``: where a
    ``min_fps`` floor is set and a prefix is longer than ``chunk_rows``,
    :func:`_throughput_admitted_start` finds the start of the fps-admitted
    suffix as it does there, and the chunk counts follow from the same
    admitted intervals (:func:`_chunk_grid`).  Returns the accounting,
    every admitted row's :class:`DesignPoint` in enumeration order
    (``design_points``), the Pareto members among them (``pareto``, the
    same objects) and their global rows (``pareto_rows``).
    """
    prefix = np.array([prefixes[key] for key in costs.keys], dtype=np.int64)
    start = np.zeros_like(prefix)
    if min_fps is not None:
        for group in np.flatnonzero(prefix > chunk_rows).tolist():
            start[group] = _throughput_admitted_start(
                int(prefix[group]), min_fps, costs.contexts[group],
                throughput_model, frame_width, frame_height) or 0
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
    admit = np.arange(space.max_cones_per_depth) < prefix[:, None]
    if min_fps is not None:
        admit &= fps >= min_fps
    groups, offsets = np.nonzero(admit)
    area, times = costs.area[admit], seconds[admit]
    keep = pareto_indices(area, times)

    # admitted rows come in enumeration order, so each group's are one run
    points: List[DesignPoint] = []
    if groups.size:
        clock = throughput_model.device.typical_clock_hz
        counts, areas, compute, cycles, spf, rates, bound = (
            column.tolist() for column in (
                offsets + 1, area, costs.compute_cycles_per_tile[admit],
                costs.cycles_per_tile[admit], times, fps[admit],
                costs.compute_bound[admit]))
        low = 0
        for group, size in enumerate(
                np.count_nonzero(admit, axis=1).tolist()):
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

    first_rows = np.array([(window_index * n_splits + split_index)
                           * space.max_cones_per_depth
                           for window_index, split_index in costs.keys],
                          dtype=np.int64)
    rows = first_rows[groups] + offsets
    return {"admitted_rows": len(points),
            "fps_pruned": int(prefix.sum()) - len(points),
            "peak_chunk_rows": peak_chunk_rows,
            "frontier_peak": int(keep.size),
            "chunks_materialized": chunks_materialized,
            "design_points": points,
            "pareto": [points[index] for index in keep.tolist()],
            "pareto_rows": rows[keep]}
