"""The evaluation kernel every design-space exploration runs.

A candidate space is a cross product of (window, level split) *groups* and a
primary-cone instance-count axis.  The candidates of one group share their
cone shapes, per-depth areas and cone-performance table, so a *chunk* — a
slice of one group's count axis — is evaluated as columns:

1. per-row area is Σ_depth instances × cone area (:func:`group_area`);
2. throughput is the model's ``estimate_batch`` over the chunk's counts
   (:func:`cost_counts`);
3. a ``min_frames_per_second`` floor masks the costed rows;
4. the admitted ``(area, time, global row)`` triples fold into a
   :class:`StreamingFrontier`, whose state is the Pareto frontier of
   everything folded so far, and optionally become
   :class:`~repro.dse.design_point.DesignPoint` objects
   (:func:`build_points`).

:func:`fold_chunks` runs these steps over the chunk plan.  Chunk planning
and constraint pushdown live in :mod:`repro.dse.stream`.
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
    """Build one group's evaluation context from the space and the
    characterizations (pure index arithmetic, no materialized columns)."""
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


def fold_chunks(space: ArchitectureSpace,
                characterizations: Mapping[Tuple[int, int],
                                           "ConeCharacterization"],
                throughput_model: ThroughputModel,
                frame_width: int, frame_height: int, chunks: Sequence[Any],
                plans: Mapping[Tuple[int, int], Any],
                min_fps: Optional[float], usable_luts: float,
                keep_points: bool) -> Dict[str, Any]:
    """Fold ``chunks``, in order, into one frontier.

    ``plans`` maps each chunk's ``(window index, split index)`` to the
    count-axis interval pushdown admitted (``evaluable``, ``start``,
    ``stop``); rows outside it are never costed.  Returns the frontier,
    the fold's accounting, the number of chunks it materialized and —
    with ``keep_points`` — ``(global row, DesignPoint)`` for every
    admitted row, in the order the chunks deliver them.
    """
    frontier = StreamingFrontier()
    contexts: Dict[Tuple[int, int], GroupContext] = {}
    admitted_rows = 0
    fps_rejected = 0
    chunks_skipped = 0
    peak_chunk_rows = 0
    frontier_peak = 0
    chunks_materialized = 0
    points: List[Tuple[int, DesignPoint]] = []
    # a fold that keeps every point holds its triples anyway: fold them
    # once at the end instead of re-sorting the frontier per chunk
    pending: List[Tuple["np.ndarray", "np.ndarray", "np.ndarray"]] = []

    for chunk in chunks:
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
        chunks_materialized += 1
        peak_chunk_rows = max(peak_chunk_rows, int(counts.size))
        columns = cost_counts(throughput_model, context, frame_width,
                              frame_height, counts)
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
            "chunks_materialized": chunks_materialized,
            "points": points}
