"""The evaluation kernel every design-space exploration runs.

A candidate space is a cross product of (window, level split) *groups* and a
primary-cone instance-count axis.  The candidates of one group share their
cone shapes, per-depth areas and cone-performance table
(:class:`GroupContext`).  :func:`fold_groups` visits the groups once, in
enumeration order, and evaluates each group's admitted interval of the
count axis as columns, in *chunks* of at most ``chunk_rows`` rows whose
bounds sit at multiples of ``chunk_rows``:

1. the interval is the area-admitted prefix :mod:`repro.dse.stream` found,
   less the rows at its front that a ``min_frames_per_second`` floor
   rejects (a binary search on the throughput formula, run only where the
   prefix is longer than one chunk);
2. per-row area is Σ_depth instances × cone area (:func:`group_area`);
3. throughput is the model's ``estimate_batch`` over the chunk's counts
   (:func:`cost_counts`), or, when the group's frame-independent columns
   were computed ahead (:class:`GroupCosts`), their slice plus the model's
   frame half;
4. the fps floor masks the costed rows;
5. the admitted ``(area, time, global row)`` triples fold into a
   :class:`StreamingFrontier`, whose state is the Pareto frontier of
   everything folded so far, and optionally become
   :class:`~repro.dse.design_point.DesignPoint` objects
   (:func:`build_points`).

The area-side pushdown and the caches live in :mod:`repro.dse.stream`.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import (TYPE_CHECKING, Any, Dict, List, Mapping, Optional,
                    Sequence, Tuple)

import numpy as np

from repro.architecture.enumeration import ArchitectureSpace
from repro.dse.design_point import DesignPoint
from repro.dse.pareto import pareto_indices
from repro.estimation.throughput_model import (
    ConePerformance,
    ThroughputModel,
    performance_from_columns,
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


@dataclass(frozen=True)
class GroupCosts:
    """One group's context and its frame-independent throughput columns
    (:meth:`ThroughputModel.tile_columns`) over the whole count axis.

    Immutable: the column dict is a read-only view and its arrays are not
    writeable, so one instance can serve every exploration that shares
    the space, the characterizations and the model.
    """

    context: GroupContext
    tile: Mapping[str, Any]

    def columns(self, throughput_model: ThroughputModel, start: int,
                stop: int, frame_width: int,
                frame_height: int) -> Mapping[str, Any]:
        """The columns :func:`cost_counts` gives for counts
        ``start + 1 .. stop``: the tile columns' slice, then the model's
        frame half.  The tile half is elementwise over the count axis, so
        the slice equals the chunk's own values bit for bit."""
        tile = {name: (value[start:stop] if isinstance(value, np.ndarray)
                       else value)
                for name, value in self.tile.items()}
        return throughput_model.frame_columns(
            self.context.representative, tile, frame_width, frame_height)


def group_costs(space: ArchitectureSpace,
                characterizations: Mapping[Tuple[int, int],
                                           "ConeCharacterization"],
                throughput_model: ThroughputModel, window: int,
                split: Tuple[int, ...]) -> GroupCosts:
    """Build one group's :class:`GroupCosts`, frozen."""
    context = group_context(space, characterizations, window, split)
    tile = throughput_model.tile_columns(
        context.representative, context.cone_performance,
        np.arange(1, space.max_cones_per_depth + 1, dtype=np.int64))
    for value in tile.values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return GroupCosts(context, MappingProxyType(tile))


def build_points(space: ArchitectureSpace, context: GroupContext,
                 counts: "np.ndarray", areas: "np.ndarray",
                 columns: Mapping[str, Any], index: "np.ndarray",
                 usable_luts: float) -> List[DesignPoint]:
    """One :class:`DesignPoint` per ``counts[i]``, whose area is
    ``areas[i]`` and whose performance is row ``index[i]`` of ``columns``."""
    return [
        DesignPoint(
            architecture=space.materialize_row_parts(
                context.window, context.split, int(count)),
            area_luts=float(area),
            area_estimated=context.area_estimated,
            performance=performance_from_columns(columns, int(position)),
            fits_device=bool(area <= usable_luts),
            cone_area_by_depth=dict(context.area_by_depth))
        for count, area, position in zip(counts, areas, index)]


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
    bit-identical to the full-column values).  Returns ``None`` when the
    monotonicity argument does not hold and the caller must cost the whole
    prefix: a (pathological) negative execution interval on the primary
    level, or a nonpositive frame time anywhere in the prefix
    (``frames_per_second`` snaps to 0 there, breaking the suffix shape).
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
                chunk_rows: int, min_fps: Optional[float],
                usable_luts: float, keep_points: bool,
                costs: Optional[Mapping[Tuple[int, int], GroupCosts]] = None
                ) -> Dict[str, Any]:
    """Fold every group's admitted interval, group by group, into one
    frontier.

    ``prefixes`` maps each group's ``(window index, split index)``, in the
    order to fold them, to the length of its area-admitted prefix of the
    count axis, or to ``None`` for a group without characterizations.
    Where a ``min_fps`` floor is set and a prefix is longer than
    ``chunk_rows``, :func:`_throughput_admitted_start` first cuts the rows
    below the floor off its front; the rest is costed in chunks cut at
    multiples of ``chunk_rows``.  ``costs``, when given, holds every
    evaluable group's :class:`GroupCosts`, and a chunk pays only for the
    frame half; otherwise each group's context is built once and returned
    under ``contexts``.  Returns the frontier, the fold's accounting and —
    with ``keep_points`` — ``(global row, DesignPoint)`` for every admitted
    row, in fold order.
    """
    n_counts = space.max_cones_per_depth
    frontier = StreamingFrontier()
    contexts: Dict[Tuple[int, int], GroupContext] = {}
    admitted_rows = 0
    fps_pruned = 0
    peak_chunk_rows = 0
    frontier_peak = 0
    chunks_materialized = 0
    points: List[Tuple[int, DesignPoint]] = []
    # a fold that keeps every point holds its triples anyway: fold them
    # once at the end instead of re-sorting the frontier per chunk
    pending: List[Tuple["np.ndarray", "np.ndarray", "np.ndarray"]] = []

    for group_key, prefix in prefixes.items():
        if not prefix:
            continue
        window_index, split_index = group_key
        if costs is None:
            cached = None
            context = contexts[group_key] = group_context(
                space, characterizations, space.window_sides[window_index],
                splits[split_index])
        else:
            cached = costs[group_key]
            context = cached.context
        start = 0
        if min_fps is not None and prefix > chunk_rows:
            start = _throughput_admitted_start(
                prefix, min_fps, context, throughput_model, frame_width,
                frame_height) or 0
            fps_pruned += start
            if start == prefix:
                continue  # even the fastest admitted row fails the floor
        base_row = (window_index * len(splits) + split_index) * n_counts
        for low in range(start - start % chunk_rows, prefix, chunk_rows):
            first, stop = max(low, start), min(low + chunk_rows, prefix)
            counts = np.arange(first + 1, stop + 1, dtype=np.int32)
            chunks_materialized += 1
            peak_chunk_rows = max(peak_chunk_rows, stop - first)
            if cached is None:
                columns = cost_counts(throughput_model, context, frame_width,
                                      frame_height, counts)
            else:
                columns = cached.columns(throughput_model, first, stop,
                                         frame_width, frame_height)
            if min_fps is None:
                index = np.arange(counts.size)
            else:
                index = np.flatnonzero(columns["frames_per_second"]
                                       >= min_fps)
                fps_pruned += int(counts.size - index.size)
                if index.size == 0:
                    continue
            counts = counts[index]
            area = group_area(counts, context.depths, context.primary,
                              context.area_by_depth)
            times = np.asarray(columns["seconds_per_frame"])[index]
            rows = base_row + first + index.astype(np.int64)
            admitted_rows += int(rows.size)
            if keep_points:
                pending.append((area, times, rows))
                points.extend(zip(rows.tolist(), build_points(
                    space, context, counts, area, columns, index,
                    usable_luts)))
            else:
                frontier.update(area, times, rows)
                frontier_peak = max(frontier_peak, len(frontier))

    if pending:
        frontier.update(*(np.concatenate(column)
                          for column in zip(*pending)))
        frontier_peak = len(frontier)
    return {"frontier": frontier,
            "admitted_rows": admitted_rows,
            "fps_pruned": fps_pruned,
            "peak_chunk_rows": peak_chunk_rows,
            "frontier_peak": frontier_peak,
            "chunks_materialized": chunks_materialized,
            "contexts": contexts,
            "points": points}
