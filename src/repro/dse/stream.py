"""The entry point of every design-space exploration, and its caches.

:func:`explore_stream` is the entry point of every exploration — the
720-candidate paper space and million-candidate spaces alike.  It pushes
the area constraints down, then runs one of the two passes of
:mod:`repro.dse.engine`, which share every formula; the size of the input
picks the pass.  :meth:`repro.dse.explorer.DesignSpaceExplorer.explore`
streams spaces of at least :data:`STREAM_AUTO_THRESHOLD` rows (or any
space on ``stream=True``): ``materialize="frontier"`` keeps only the
Pareto frontier as design points, so memory is bounded by the chunk size
plus the frontier, never by the space.  It explores smaller spaces in
memory: ``materialize="admitted"`` keeps every admitted row as a design
point.

Pieces:

1. Constraint pushdown prunes rows *before* costing: the area-side
   constraints (``device_only``, ``max_area_luts``) depend only on shape
   knobs and the cone areas, and per-row area is nondecreasing in the
   primary instance count, so each group's admitted rows form a prefix of
   the count axis found by binary search — O(log rows) scalar probes using
   the exact accumulation formula.  A ``min_frames_per_second`` floor is
   monotone along the same axis in the other direction (compute cycles per
   tile are nonincreasing in the primary count, so the frame rate is
   nondecreasing): when a group's admitted prefix is longer than one
   chunk, a second binary search on the throughput formula finds the
   admitted *suffix*, and only the intersected [suffix, prefix) interval is
   costed.  Every costed row is still checked against the floor, so the
   probe only ever saves work.  The frame rate stops changing at the
   group's saturation count (the most executions a level of the primary
   depth runs per tile), so the streamed fold's probe searches no count
   past it (piece 2).
2. A streamed exploration makes one pass over the space's (window, split)
   groups, in enumeration order (:func:`repro.dse.engine.fold_groups`), in
   the divide-and-conquer spirit of SCC-chunked automaton determinization:
   split the space into independently evaluable pieces, solve each piece,
   and fold the partial solutions into a state whose size is bounded by the
   answer, not by the space.  Each group's count axis is cut into chunks at
   multiples of ``chunk_rows``, so a space has groups × ⌈count axis /
   ``chunk_rows``⌉ chunks.  A chunk (an ``int32`` count column, a slice of
   the group's admitted interval) is costed only where it overlaps that
   interval, and only up to the group's saturation count
   (``ThroughputModel.saturation_count``).  Past that count every row has
   the saturation count's frame time and no less area, so those rows are
   admitted or rejected in bulk by its frame rate and cannot join the
   frontier: an uncapped request costs at most the saturation counts,
   however long the count axis.  The costed rows' admitted objective
   columns fold into a
   :class:`~repro.dse.engine.StreamingFrontier` whose state is
   byte-identical to :func:`repro.dse.pareto.pareto_indices` on the
   concatenated full arrays regardless of chunk size.  The fold runs once,
   on the calling thread; design points are built only for the frontier
   survivors at finalization: their rows are re-costed per group with the
   group contexts the fold built, and handed as plain lists to the one
   point builder, :func:`repro.dse.engine.build_points`.
3. An in-memory exploration answers in one columnar pass over the whole
   space (:func:`repro.dse.engine.whole_space_pass`): it reads the space's
   cost-cache entry, computes the frame time, the prefix mask and the fps
   mask once over every row, runs one Pareto extraction, and builds design
   points for the admitted rows only, through the same builder, one
   group's run of rows per call.  It reports the chunk accounting a
   streamed run at the same ``chunk_rows`` reports, worked out from the
   admitted intervals, so the two modes' results differ only in
   ``frontier_peak`` (here the size of the Pareto set) and in which design
   points they keep.
4. Two small process-wide LRUs, with the same bound, hold what a
   re-explore that changes only per-run knobs (frame geometry, minimum fps,
   constraints) would otherwise recompute:

   * the *mask cache* maps each group to the length of its area-admitted
     prefix (``None`` for a group without characterizations), keyed by
     shape knobs + the characterization values + the area constraints, so
     such a re-explore skips the pushdown analysis.  The throughput-side
     suffix depends on the per-run knobs, so it is recomputed per call and
     deliberately kept out of the key;
   * the *cost cache* holds, per space (shape knobs, kernel name, radius,
     components) + characterization values + throughput model, the whole
     space's frame-independent costs as one table
     (:class:`~repro.dse.engine.SpaceCosts`), built whole on a miss.  Only
     in-memory explorations read it, and a request pays only for the frame
     half; a streamed one costs per chunk, because it promises bounded
     memory, builds each context it needs once, and never adds an entry.

   Counters are exposed through :func:`stream_stats` (the service tier
   serves them under ``stats()["stream"]``).
"""

from __future__ import annotations

import math
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Mapping,
                    Optional, Sequence, Tuple)

import numpy as np

from repro.architecture.enumeration import ArchitectureSpace
from repro.dse.constraints import DseConstraints
from repro.dse.design_point import DesignPoint
from repro.dse.engine import (GroupContext, SpaceCosts, build_points,
                              cost_counts, fold_groups, group_area,
                              space_costs, whole_space_pass)
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dse.explorer import ConeCharacterization

#: Default bound on rows materialized per chunk (~a few hundred KB of
#: float64 working set — comfortably cache-resident).
DEFAULT_CHUNK_ROWS = 4096

#: Spaces at or above this many candidates stream by default (explorer
#: ``stream=None``): keeping every admitted row of a larger space as a
#: design point would cost hundreds of MB.
STREAM_AUTO_THRESHOLD = 200_000

#: Entries the admitted-row mask cache may hold (one entry per distinct
#: (shape knobs, characterization values, area constraints) combination);
#: the cost cache holds as many (one per space, characterization values
#: and throughput model).
MASK_CACHE_CAPACITY = 16


# ---------------------------------------------------------------------- #
# constraint pushdown + the admitted-row mask cache


def _admitted_prefix(n_counts: int, area_limit: float,
                     depths: Sequence[int], primary: int,
                     area_by_depth: Mapping[int, float]) -> int:
    """Largest ``k`` such that counts ``1..k`` satisfy ``area <= limit``.

    Probes the exact per-row area at O(log n) single counts instead of
    materializing the group's area column; valid because area is
    nondecreasing in the primary count (cone areas are nonnegative and
    IEEE add/multiply are monotonic).  Falls back to a full scan if a
    characterization ever reported a negative area.
    """
    def area_at(count: int) -> float:
        return float(group_area(np.asarray([count], dtype=np.int64),
                                depths, primary, area_by_depth)[0])

    if area_by_depth[primary] < 0:  # pathological; prefix property gone
        counts = np.arange(1, n_counts + 1, dtype=np.int64)
        mask = group_area(counts, depths, primary, area_by_depth) <= area_limit
        return int(np.count_nonzero(mask))
    if area_at(n_counts) <= area_limit:
        return n_counts
    if area_at(1) > area_limit:
        return 0
    low, high = 1, n_counts  # area(low) <= limit < area(high)
    while high - low > 1:
        mid = (low + high) // 2
        if area_at(mid) <= area_limit:
            low = mid
        else:
            high = mid
    return low


class CountingLru:
    """Tiny thread-safe LRU with hit/miss/eviction counters.

    The mask and cost caches below and a session's result and validation
    layers (:mod:`repro.api.session`) are instances of it.
    """

    def __init__(self, maxsize: int) -> None:
        self._maxsize = maxsize
        self._entries: "OrderedDict[Tuple, object]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(self, key):
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return entry

    def put(self, key, value) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self._maxsize:
                self._entries.popitem(last=False)
                self._evictions += 1

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {"hits": self._hits, "misses": self._misses,
                    "evictions": self._evictions,
                    "entries": len(self._entries),
                    "capacity": self._maxsize}

    def reset_stats(self) -> None:
        """Zero the counters but keep the cached entries."""
        with self._lock:
            self._hits = self._misses = self._evictions = 0

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._hits = self._misses = self._evictions = 0

    def discard_if(self, predicate: Callable[[Any], bool]) -> None:
        """Drop every entry whose key satisfies ``predicate``."""
        with self._lock:
            for key in [key for key in self._entries if predicate(key)]:
                del self._entries[key]


class _StreamCounters:
    """Process-wide exploration counters behind a dedicated lock.

    The same dedicated-stats-lock pattern as ``SessionStats``: concurrent
    explorations (sessions shared between threads) would otherwise lose
    increments to read-modify-write races on plain module globals.
    """

    _FIELDS = ("runs", "chunks_materialized", "throughput_pruned_rows")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts = dict.fromkeys(self._FIELDS, 0)

    def add(self, **deltas: int) -> None:
        with self._lock:
            for name, delta in deltas.items():
                self._counts[name] += delta

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counts)

    def reset(self) -> None:
        with self._lock:
            self._counts = dict.fromkeys(self._FIELDS, 0)


_mask_cache = CountingLru(MASK_CACHE_CAPACITY)
_cost_cache = CountingLru(MASK_CACHE_CAPACITY)
_counters = _StreamCounters()


def stream_stats() -> Dict[str, Any]:
    """Process-wide counters of the exploration fold.

    Served by the service tier under ``stats()["stream"]``.  The mask-cache
    half (``hits``/``misses``/``evictions``/``entries``/``capacity``):
    ``hits`` growing across jobs is the signature of incremental
    re-explores (only per-run knobs changed, pushdown analysis reused);
    ``evictions`` counts distinct (shape, characterization, constraint)
    combinations beyond the bound.  The run half: ``runs`` counts
    explorations, ``chunks_materialized`` the ``chunk_rows`` grid cells
    their admitted intervals touch (which bound what the streamed fold
    costs; both passes report them alike), and ``throughput_pruned_rows``
    the rows a min-fps floor rejected.  ``costs`` holds the same five
    counters for the cost cache, which only in-memory explorations
    consult.
    """
    stats: Dict[str, Any] = _mask_cache.stats()
    stats.update(_counters.snapshot())
    stats["costs"] = _cost_cache.stats()
    return stats


def reset_stream_stats() -> None:
    """Zero every exploration counter (tests) without dropping cached
    masks or costs.

    Use :func:`clear_stream_caches` to also forget the cached entries.
    """
    _mask_cache.reset_stats()
    _cost_cache.reset_stats()
    _counters.reset()


def clear_stream_caches() -> None:
    """Reset the mask and cost caches and all counters (tests and
    benchmarks)."""
    _mask_cache.clear()
    _cost_cache.clear()
    _counters.reset()


def _shape_key(space: ArchitectureSpace) -> Tuple:
    """The knobs that pick a space's candidate rows."""
    return (space.total_iterations, space.max_depth,
            tuple(space.window_sides), space.max_cones_per_depth)


def _characterization_key(characterizations: Mapping[Tuple[int, int],
                                                     "ConeCharacterization"]
                          ) -> Tuple:
    """Every characterization value an exploration reads: each shape's
    area, whether it was synthesized, and its latency."""
    return tuple(sorted(
        (window, depth, float(entry.area_luts), entry.synthesized,
         entry.latency_cycles)
        for (window, depth), entry in characterizations.items()))


def _mask_cache_key(space: ArchitectureSpace, characterization_key: Tuple,
                    constraints: DseConstraints,
                    usable_luts: float) -> Tuple:
    """Admission is a pure function of this key.

    Shape knobs pick the candidate rows; the cone areas (inside the
    characterization values) and the area-side constraints pick which
    rows are admitted.  Per-run knobs (frame geometry, min-fps, port
    width) are deliberately absent — changing only those re-uses the
    cached masks and re-costs only throughput columns.  A knob that
    changes the areas (data format, device recalibration) changes the key
    and recomputes, correctness before reuse.
    """
    constraint_key = (
        bool(constraints.device_only),
        None if constraints.max_area_luts is None
        else float(constraints.max_area_luts),
        float(usable_luts) if constraints.device_only else None)
    return (_shape_key(space), characterization_key, constraint_key)


def _cached_costs(space: ArchitectureSpace,
                 splits: Tuple[Tuple[int, ...], ...],
                 characterizations: Mapping[Tuple[int, int],
                                            "ConeCharacterization"],
                 characterization_key: Tuple,
                 throughput_model: Any) -> SpaceCosts:
    """The space's :class:`~repro.dse.engine.SpaceCosts`, from the cost
    cache.

    The key is the shape knobs, the rest of the space (the kernel name
    labels every design point, and the radius and components set the tile
    count and the transfer cycles), the characterization values, and the
    model's class with its instance attributes: two models cost alike only
    when both match (a subclass that overrides a per-tile hook is another
    class).  Not the model's identity: an exploration that overrides the
    port width builds a fresh, equal model every call.  A miss builds the
    whole entry, then publishes it; entries are never filled in place.
    """
    key = (_shape_key(space), space.kernel_name, space.radius,
           space.components, characterization_key, type(throughput_model),
           tuple(sorted(vars(throughput_model).items())))
    entry = _cost_cache.get(key)
    if entry is None:
        entry = space_costs(space, characterizations, throughput_model,
                            splits)
        _cost_cache.put(key, entry)
    return entry


def _admitted_prefixes(space: ArchitectureSpace,
                       splits: Tuple[Tuple[int, ...], ...],
                       characterizations: Mapping[Tuple[int, int],
                                                  "ConeCharacterization"],
                       constraints: DseConstraints,
                       usable_luts: float
                       ) -> Dict[Tuple[int, int], Optional[int]]:
    """Each group's area-admitted prefix length, keyed by ``(window index,
    split index)`` in enumeration order; ``None`` marks a group whose
    depths lack characterizations (both passes skip it without counting
    its rows as pruned)."""
    n_counts = space.max_cones_per_depth
    area_limit = math.inf
    if constraints.device_only:
        area_limit = min(area_limit, usable_luts)
    if constraints.max_area_luts is not None:
        area_limit = min(area_limit, constraints.max_area_luts)
    prefixes: Dict[Tuple[int, int], Optional[int]] = {}
    for window_index, window in enumerate(space.window_sides):
        for split_index, split in enumerate(splits):
            depths = sorted(set(split))
            if any((window, depth) not in characterizations
                   for depth in depths):
                prefix = None
            elif math.isinf(area_limit):
                prefix = n_counts
            else:
                prefix = _admitted_prefix(
                    n_counts, area_limit, depths, depths[-1],
                    {depth: characterizations[(window, depth)].area_luts
                     for depth in depths})
            prefixes[(window_index, split_index)] = prefix
    return prefixes


# ---------------------------------------------------------------------- #
# the exploration


@dataclass
class StreamingExploration:
    """What :func:`explore_stream` produces.

    ``pareto`` is the frontier in increasing-area order (see
    :mod:`repro.dse.pareto` for the tie-breaking contract) and
    ``pareto_row_index`` holds its members' global enumeration rows.
    ``design_points`` is every admitted row in enumeration order when the
    run materialized ``"admitted"`` rows (the frontier members are the same
    objects), and the frontier alone when it materialized ``"frontier"``.
    """

    space_rows: int
    admitted_rows: int
    #: Rows the constraints rejected: area-infeasible (never costed) plus
    #: ``throughput_pruned_rows``.
    pruned_rows: int
    chunk_rows: int
    chunks_total: int
    #: Chunks the admitted intervals do not touch: fully pruned by
    #: pushdown, outside the admitted interval, or in a group without
    #: characterizations.  The rest, the ``chunk_rows`` grid cells of the
    #: admitted intervals, bound what the streamed fold costs.
    chunks_skipped: int
    #: Most admitted-interval rows in one ``chunk_rows`` grid cell: a bound
    #: on the rows the streamed fold costs at once.
    peak_chunk_rows: int
    #: Largest frontier state observed while streaming.
    frontier_peak: int
    mask_cache_hit: bool
    pareto_row_index: "np.ndarray"
    pareto: List[DesignPoint]
    design_points: List[DesignPoint]
    #: Rows inside the area prefix that a min-fps floor rejected (0 when no
    #: floor was set); the suffix probe skips costing most of them.
    throughput_pruned_rows: int = 0

    @property
    def pruned_fraction(self) -> float:
        return self.pruned_rows / self.space_rows if self.space_rows else 0.0


def explore_stream(space: ArchitectureSpace,
                   characterizations: Mapping[Tuple[int, int],
                                              "ConeCharacterization"],
                   throughput_model: Any,
                   frame_width: int, frame_height: int,
                   constraints: Optional[DseConstraints] = None,
                   usable_luts: float = math.inf,
                   chunk_rows: int = DEFAULT_CHUNK_ROWS,
                   materialize: str = "frontier") -> StreamingExploration:
    """Evaluate a whole architecture space.

    Produces the same admitted rows and the same Pareto frontier (same
    design points, same order, bit-identical serializations) as evaluating
    every candidate one at a time, whatever ``chunk_rows`` is.

    ``materialize`` selects the pass and which rows become
    :class:`DesignPoint` objects: ``"frontier"`` (default) folds the space
    in chunks and keeps only the Pareto members, so peak memory is bounded
    by the chunk size plus the frontier state, never by the space;
    ``"admitted"`` answers in one pass over the space's cost-cache entry and
    keeps every constraint-admitted row (pieces 2 to 4 of the module
    docstring).
    """
    if materialize not in ("admitted", "frontier"):
        raise ValueError(f"materialize must be 'admitted' or 'frontier' "
                         f"(got {materialize!r})")
    if chunk_rows < 1:
        raise ValueError(f"chunk_rows must be >= 1 (got {chunk_rows})")
    constraints = constraints or DseConstraints()
    splits = tuple(tuple(split) for split in space.level_splits())
    n_counts = space.max_cones_per_depth

    characterization_key = _characterization_key(characterizations)
    key = _mask_cache_key(space, characterization_key, constraints,
                          usable_luts)
    prefixes = _mask_cache.get(key)
    mask_cache_hit = prefixes is not None
    if prefixes is None:
        prefixes = _admitted_prefixes(space, splits, characterizations,
                                      constraints, usable_luts)
        _mask_cache.put(key, prefixes)

    min_fps = constraints.min_frames_per_second
    costs = (_cached_costs(space, splits, characterizations,
                           characterization_key, throughput_model)
             if materialize == "admitted" else None)
    chunks_total = len(prefixes) * -(-n_counts // chunk_rows)
    with obs_trace.span("stream.explore", chunks=chunks_total):
        fold_started = time.perf_counter()
        if costs is None:
            fold = fold_groups(space, characterizations, throughput_model,
                               frame_width, frame_height, splits, prefixes,
                               chunk_rows, min_fps)
        else:
            fold = whole_space_pass(space, costs, throughput_model,
                                    frame_width, frame_height, len(splits),
                                    prefixes, chunk_rows, min_fps,
                                    usable_luts)
        obs_metrics.registry().histogram(
            "repro_stream_chunk_fold_seconds").observe(
                time.perf_counter() - fold_started)
    throughput_pruned = fold["fps_pruned"]
    _counters.add(runs=1,
                  chunks_materialized=fold["chunks_materialized"],
                  throughput_pruned_rows=throughput_pruned)

    if costs is None:
        pareto_area, _pareto_time, pareto_rows = fold["frontier"].result()
        pareto = _frontier_points(space, len(splits), fold["contexts"],
                                  throughput_model, frame_width,
                                  frame_height, usable_luts, pareto_rows,
                                  pareto_area)
        design_points = list(pareto)
    else:
        pareto_rows = fold["pareto_rows"]
        pareto = fold["pareto"]
        design_points = fold["design_points"]
    area_pruned = sum(n_counts - prefix for prefix in prefixes.values()
                      if prefix is not None)
    return StreamingExploration(
        space_rows=space.size(),
        admitted_rows=fold["admitted_rows"],
        pruned_rows=area_pruned + throughput_pruned,
        chunk_rows=chunk_rows,
        chunks_total=chunks_total,
        chunks_skipped=chunks_total - fold["chunks_materialized"],
        peak_chunk_rows=fold["peak_chunk_rows"],
        frontier_peak=fold["frontier_peak"],
        mask_cache_hit=mask_cache_hit,
        pareto_row_index=pareto_rows,
        pareto=pareto,
        design_points=design_points,
        throughput_pruned_rows=throughput_pruned,
    )


def _frontier_points(space: ArchitectureSpace, n_splits: int,
                     contexts: Mapping[Tuple[int, int], GroupContext],
                     throughput_model: Any, frame_width: int,
                     frame_height: int, usable_luts: float,
                     rows: "np.ndarray",
                     areas: "np.ndarray") -> List[DesignPoint]:
    """Build the :class:`DesignPoint`s of the frontier's global rows.

    The throughput columns are recomputed on just the survivors' counts,
    batched per (window, split) group, which reproduces the fold's values
    bit for bit (the stored frontier areas are reused directly), and each
    group's rows go to :func:`~repro.dse.engine.build_points` as plain
    lists.  The group contexts are the ones the fold built.
    """
    n_counts = space.max_cones_per_depth
    by_group: Dict[Tuple[int, int], List[int]] = {}
    for position, row in enumerate(rows.tolist()):
        by_group.setdefault(divmod(row // n_counts, n_splits),
                            []).append(position)
    points: List[Optional[DesignPoint]] = [None] * rows.size
    for group_key, positions in by_group.items():
        context = contexts[group_key]
        counts = rows[positions] % n_counts + 1
        columns = cost_counts(throughput_model, context, frame_width,
                              frame_height, counts)
        built = build_points(
            space, context, usable_luts,
            architecture_label=columns["architecture_label"],
            clock_hz=columns["clock_hz"],
            tiles_per_frame=columns["tiles_per_frame"],
            transfer_cycles_per_tile=columns["transfer_cycles_per_tile"],
            offchip_bytes_per_frame=columns["offchip_bytes_per_frame"],
            counts=counts.tolist(), areas=areas[positions].tolist(),
            compute_cycles_per_tile=columns[
                "compute_cycles_per_tile"].tolist(),
            cycles_per_tile=columns["cycles_per_tile"].tolist(),
            seconds_per_frame=columns["seconds_per_frame"].tolist(),
            frames_per_second=columns["frames_per_second"].tolist(),
            compute_bound=columns["compute_bound"].tolist())
        for position, point in zip(positions, built):
            points[position] = point
    return points
