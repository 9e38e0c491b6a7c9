"""The evaluation kernel every design-space exploration runs.

A candidate space is a cross product of (window, level split) *groups* and a
primary-cone instance-count axis.  The candidates of one group share their
cone shapes, per-depth areas and cone-performance table, so a *chunk* — a
slice of one group's count axis — is evaluated as columns:

1. per-row area is Σ_depth instances × cone area (:func:`group_area`);
2. throughput is the model's ``estimate_batch`` over the chunk's counts, or,
   for a backend that overrides the per-point hooks, its ``evaluate`` one
   architecture at a time (:func:`supports_batch`, :func:`cost_counts`);
3. a ``min_frames_per_second`` floor masks the costed rows;
4. the admitted ``(area, time, global row)`` triples fold into a
   :class:`StreamingFrontier`, whose state is the Pareto frontier of
   everything folded so far, and optionally become
   :class:`~repro.dse.design_point.DesignPoint` objects
   (:func:`build_points`).

:func:`fold_shard` runs these steps over a list of chunks.  Chunk planning,
constraint pushdown, worker dispatch and the final merge live in
:mod:`repro.dse.stream`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Dict, List, Mapping, Optional,
                    Sequence, Tuple)

import numpy as np

from repro.architecture.enumeration import ArchitectureSpace
from repro.dse.design_point import DesignPoint
from repro.dse.pareto import pareto_indices
from repro.estimation.throughput_model import (
    ArchitecturePerformance,
    ConePerformance,
    ThroughputModel,
    performance_from_columns,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dse.explorer import ConeCharacterization


def supports_batch(throughput_model: object) -> bool:
    """Whether ``throughput_model`` may be costed through ``estimate_batch``.

    True iff the model's frame-level ``evaluate``, its per-tile
    ``compute_cycles_per_tile`` hook, and ``estimate_batch`` itself are the
    stock :class:`ThroughputModel` implementations, so the batch formula
    cannot diverge from per-point evaluation.  A backend that overrides any
    of the three — or duck-types the protocol without subclassing — is
    costed one architecture at a time through its own ``evaluate`` (its
    overrides are honored, just not vectorized).  The finer-grained hooks
    (``transfer_cycles_per_tile``, ``tiles_per_frame``,
    ``execution_interval_cycles``) are invoked on the instance either way,
    so overriding those keeps the batch path usable and consistent.
    """
    model_type = type(throughput_model)
    return (getattr(model_type, "estimate_batch", None)
            is ThroughputModel.estimate_batch
            and getattr(model_type, "evaluate", None)
            is ThroughputModel.evaluate
            and getattr(model_type, "compute_cycles_per_tile", None)
            is ThroughputModel.compute_cycles_per_tile)


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


@dataclass
class GroupContext:
    """Per-(window, split) evaluation state shared by all chunks of a group."""

    window: int
    split: Tuple[int, ...]
    depths: List[int]
    primary: int
    area_by_depth: Dict[int, float]
    area_estimated: bool
    representative: Any
    cone_performance: Dict[int, ConePerformance]


def group_context(space: ArchitectureSpace,
                  characterizations: Mapping[Tuple[int, int],
                                             "ConeCharacterization"],
                  window: int, split: Tuple[int, ...]) -> GroupContext:
    """Build one group's evaluation context from pure index arithmetic.

    A chunk-shard worker rebuilds contexts from the space and the
    characterizations instead of receiving materialized columns, so chunk
    shards travel as descriptors only.
    """
    depths = sorted(set(split))
    return GroupContext(
        window=window, split=split, depths=depths, primary=depths[-1],
        area_by_depth={depth: characterizations[(window, depth)].area_luts
                       for depth in depths},
        area_estimated=any(not characterizations[(window, depth)].synthesized
                           for depth in depths),
        representative=space.materialize_row_parts(window, split, 1),
        cone_performance={
            depth: ConePerformance(
                depth=depth, window_side=window,
                latency_cycles=characterizations[
                    (window, depth)].latency_cycles,
                initiation_interval=1)
            for depth in depths})


def cost_counts(throughput_model: Any, batch: bool,
                space: ArchitectureSpace, context: GroupContext,
                frame_width: int, frame_height: int,
                counts: "np.ndarray") -> Mapping[str, Any]:
    """Throughput columns of one group's candidates at ``counts``.

    ``batch`` (:func:`supports_batch`) picks ``estimate_batch``, which is
    elementwise over the count axis, so any subset of counts reproduces the
    full-column values bit for bit.  Otherwise every candidate is costed by
    the backend's own ``evaluate``, and the column dict carries the
    resulting performances under ``"performances"``.
    """
    if batch:
        return throughput_model.estimate_batch(
            context.representative, context.cone_performance,
            frame_width, frame_height, counts)
    performances = [
        throughput_model.evaluate(
            space.materialize_row_parts(context.window, context.split,
                                        int(count)),
            context.cone_performance, frame_width, frame_height)
        for count in counts]
    return {"performances": performances,
            "seconds_per_frame": np.asarray(
                [p.seconds_per_frame for p in performances],
                dtype=np.float64),
            "frames_per_second": np.asarray(
                [p.frames_per_second for p in performances],
                dtype=np.float64)}


def _performance_at(columns: Mapping[str, Any],
                    index: int) -> ArchitecturePerformance:
    performances = columns.get("performances")
    if performances is not None:
        return performances[index]
    return performance_from_columns(columns, index)


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
            performance=_performance_at(columns, int(position)),
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

    def merge(self, other: "StreamingFrontier") -> "StreamingFrontier":
        """Fold another frontier's state into this one (in place).

        Associative and commutative: the frontier of a set is the frontier
        of the union of its parts' frontiers, and the (area, time, order)
        total order picks the same tie-break representative whichever side
        it arrives on — so parallel workers can fold disjoint chunk shards
        independently and reduce in *any* order, with a result bit-identical
        to one serial fold over everything.  Orders must stay globally
        unique across the merged parts (disjoint chunk shards guarantee
        it).  Returns ``self`` for reduction chaining.
        """
        self.update(other._area, other._time, other._order)
        return self

    def result(self) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
        """``(area, time, order)`` of the frontier, in increasing-area order
        (the exact order ``pareto_indices`` would return the same rows in)."""
        return self._area.copy(), self._time.copy(), self._order.copy()


def fold_shard(space: ArchitectureSpace,
               characterizations: Mapping[Tuple[int, int],
                                          "ConeCharacterization"],
               throughput_model: Any, frame_width: int, frame_height: int,
               shard: Sequence[Tuple[int, Any]],
               plans: Mapping[Tuple[int, int], Any],
               min_fps: Optional[float], usable_luts: float,
               keep_points: bool) -> Dict[str, Any]:
    """Fold one shard of ``(chunk index, chunk)`` pairs into private state.

    ``plans`` maps each chunk's ``(window index, split index)`` to the
    count-axis interval pushdown admitted (``evaluable``, ``start``,
    ``stop``); rows outside it are never costed.  Touches no module-level
    mutable state, so it runs identically on the calling thread or in a
    thread pool.  Returns the frontier, the
    shard's accounting, the global indices of the chunks it materialized
    and — with ``keep_points`` — ``(global row, DesignPoint)`` for every
    admitted row.
    """
    batch = supports_batch(throughput_model)
    frontier = StreamingFrontier()
    contexts: Dict[Tuple[int, int], GroupContext] = {}
    admitted_rows = 0
    fps_rejected = 0
    chunks_skipped = 0
    peak_chunk_rows = 0
    frontier_peak = 0
    materialized: List[int] = []
    points: List[Tuple[int, DesignPoint]] = []
    # a shard that keeps every point holds its triples anyway: fold them
    # once at the end instead of re-sorting the frontier per chunk
    pending: List[Tuple["np.ndarray", "np.ndarray", "np.ndarray"]] = []

    for chunk_index, chunk in shard:
        group_key = (chunk.window_index, chunk.split_index)
        plan = plans[group_key]
        start = max(chunk.count_start, plan.start)
        stop = min(chunk.count_stop, plan.stop)
        if not plan.evaluable or stop <= start:
            chunks_skipped += 1
            continue
        context = contexts.get(group_key)
        if context is None:
            context = group_context(space, characterizations,
                                    chunk.window, chunk.split)
            contexts[group_key] = context

        counts = chunk.counts(start=start, stop=stop)
        materialized.append(chunk_index)
        peak_chunk_rows = max(peak_chunk_rows, int(counts.size))
        columns = cost_counts(throughput_model, batch, space, context,
                              frame_width, frame_height, counts)
        if min_fps is None:
            index = np.arange(counts.size)
        else:
            index = np.flatnonzero(columns["frames_per_second"] >= min_fps)
            fps_rejected += int(counts.size - index.size)
            if index.size == 0:
                continue
        counts = counts[index]
        area = group_area(counts, context.depths, context.primary,
                          context.area_by_depth)
        times = np.asarray(columns["seconds_per_frame"])[index]
        rows = chunk.base_row + start + index.astype(np.int64)
        admitted_rows += int(rows.size)
        if keep_points:
            pending.append((area, times, rows))
            points.extend(zip(rows.tolist(), build_points(
                space, context, counts, area, columns, index, usable_luts)))
        else:
            frontier.update(area, times, rows)
            frontier_peak = max(frontier_peak, len(frontier))

    if pending:
        frontier.update(*(np.concatenate(column)
                          for column in zip(*pending)))
        frontier_peak = len(frontier)
    return {"frontier": frontier,
            "admitted_rows": admitted_rows,
            "fps_rejected": fps_rejected,
            "chunks_skipped": chunks_skipped,
            "peak_chunk_rows": peak_chunk_rows,
            "frontier_peak": frontier_peak,
            "materialized": materialized,
            "points": points}
