"""Chunked exploration: the one evaluator behind every design-space run.

Every exploration — the 720-candidate paper space and million-candidate
spaces alike — evaluates its candidates as a sequence of bounded-row chunks,
in the divide-and-conquer spirit of SCC-chunked automaton determinization:
split the space into independently evaluable pieces, solve each piece, and
fold the partial solutions into a state whose size is bounded by the
answer, not by the space.  An in-memory exploration is the same fold with
every admitted row kept as a design point (``materialize="admitted"``); a
streamed one keeps only the frontier (``materialize="frontier"``).

Pieces:

1. :func:`plan_chunks` slices the (window, split) groups of a space along
   the instance-count axis into chunks of at most ``chunk_rows`` rows.  A
   chunk is a *description* (group indices + a count range); its NumPy
   columns are materialized lazily, with tightened dtypes (``int32`` counts),
   and only if the chunk survives pushdown.
2. Constraint pushdown prunes rows *before* chunk materialization: the
   area-side constraints (``device_only``, ``max_area_luts``) depend only on
   shape knobs and the cone areas, and per-row area is nondecreasing in the
   primary instance count, so each group's admitted rows form a prefix of
   the count axis found by binary search — O(log rows) scalar probes using
   the exact accumulation formula.  A ``min_frames_per_second`` floor is
   monotone along the same axis in the other direction (compute cycles per
   tile are nonincreasing in the primary count, so the frame rate is
   nondecreasing): when a group's admitted prefix spans several chunks, a
   second binary search on the throughput formula finds the admitted
   *suffix*, and only the intersected [suffix, prefix) interval is costed.
   Every costed row is still checked against the floor, so the probe only
   ever saves work.
3. :mod:`repro.dse.engine` costs each chunk and folds its admitted objective
   columns into a :class:`~repro.dse.engine.StreamingFrontier` whose state is
   byte-identical to :func:`repro.dse.pareto.pareto_indices` on the
   concatenated full arrays regardless of chunk size.  The fold visits the
   chunks once, in plan order, on the calling thread.  A streamed run
   rebuilds design points only for the frontier survivors at finalization,
   by re-costing just their rows.
4. Two small process-wide LRUs, with the same bound, hold what a
   re-explore that changes only per-run knobs (frame geometry, minimum fps,
   constraints) would otherwise recompute:

   * the *mask cache* holds the admitted-row prefixes, keyed by shape knobs
     + the characterization values + the area constraints, so such a
     re-explore skips the pushdown analysis.  The throughput-side suffix
     depends on the per-run knobs, so it is recomputed per call and
     deliberately kept out of the key;
   * the *cost cache* holds, per space (shape knobs, kernel name, radius,
     components) + characterization values + throughput model, every
     group's context and its frame-independent throughput columns over
     the whole count axis (:class:`~repro.dse.engine.GroupCosts`), built
     whole on a miss.  An in-memory exploration slices each chunk's
     columns from it and pays only for the frame half; a streamed one
     keeps costing per chunk, because it promises bounded memory, and
     never adds an entry.

   Counters are exposed through :func:`stream_stats` (the service tier
   serves them under ``stats()["stream"]``).

:func:`explore_stream` is the entry point;
:meth:`repro.dse.explorer.DesignSpaceExplorer.explore` streams spaces of at
least :data:`STREAM_AUTO_THRESHOLD` rows (or on ``stream=True``) and keeps
every admitted row otherwise.
"""

from __future__ import annotations

import math
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from types import MappingProxyType
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Mapping,
                    Optional, Sequence, Tuple)

import numpy as np

from repro.architecture.enumeration import ArchitectureSpace
from repro.dse.constraints import DseConstraints
from repro.dse.design_point import DesignPoint
from repro.dse.engine import (GroupContext, GroupCosts, build_points,
                              cost_counts, fold_chunks, group_area,
                              group_context, group_costs)
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
# chunk planning


@dataclass(frozen=True)
class SpaceChunk:
    """One bounded-row slice of a (window, split) group's count axis.

    Purely descriptive — holds group indices and a count range, never
    arrays; :meth:`counts` materializes the (dtype-tightened) count column
    on demand, and pushdown may decide it never has to.
    """

    window: int
    window_index: int
    split: Tuple[int, ...]
    split_index: int
    #: Global enumeration row of the group's first candidate (count 1).
    base_row: int
    #: Zero-based [start, stop) slice of the group's count axis.
    count_start: int
    count_stop: int

    @property
    def rows(self) -> int:
        return self.count_stop - self.count_start

    def counts(self, stop: Optional[int] = None,
               start: Optional[int] = None) -> "np.ndarray":
        """The chunk's primary-count column (``int32``: the enumeration
        bounds counts far below 2**31, and ``estimate_batch`` widens
        exactly, so the tightening is free).  ``start``/``stop`` narrow the
        range to the pushdown-admitted [suffix, prefix) interval."""
        start = self.count_start if start is None else start
        stop = self.count_stop if stop is None else stop
        return np.arange(start + 1, stop + 1, dtype=np.int32)


def plan_chunks(space: ArchitectureSpace,
                chunk_rows: int = DEFAULT_CHUNK_ROWS) -> List[SpaceChunk]:
    """Slice a space into chunks of at most ``chunk_rows`` candidates.

    Chunks never span (window, split) groups, so every chunk shares one
    representative architecture, one per-depth area table, and one cone
    performance table; within a group the count axis is sliced in
    enumeration order.  Concatenating all chunks in plan order visits
    exactly the rows of :meth:`ArchitectureSpace.architectures` in order.
    """
    if chunk_rows < 1:
        raise ValueError(f"chunk_rows must be >= 1 (got {chunk_rows})")
    splits = tuple(tuple(split) for split in space.level_splits())
    n_splits, n_counts = len(splits), space.max_cones_per_depth
    chunks: List[SpaceChunk] = []
    for window_index, window in enumerate(space.window_sides):
        for split_index, split in enumerate(splits):
            base = ((window_index * n_splits) + split_index) * n_counts
            for start in range(0, n_counts, chunk_rows):
                chunks.append(SpaceChunk(
                    window=window, window_index=window_index,
                    split=split, split_index=split_index, base_row=base,
                    count_start=start,
                    count_stop=min(start + chunk_rows, n_counts)))
    return chunks


# ---------------------------------------------------------------------- #
# constraint pushdown + the admitted-row mask cache


@dataclass(frozen=True)
class _GroupAdmission:
    """Pushdown outcome for one (window, split) group.

    ``admit_len`` is the length of the admitted prefix of the count axis
    (per-row area is nondecreasing in the primary count, so the area-side
    constraints admit a prefix); ``evaluable`` is False when the group's
    depths lack characterizations (the fold skips such groups without
    counting them as pruned).
    """

    evaluable: bool
    admit_len: int
    pruned: int


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
    explorations, ``chunks_materialized`` the chunks actually costed
    across them, and ``throughput_pruned_rows`` the rows a min-fps floor
    rejected.  ``costs`` holds the same five counters for the cost cache,
    which only in-memory explorations consult.
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
                 throughput_model: Any) -> Mapping[Tuple[int, int],
                                                   GroupCosts]:
    """Every evaluable group's :class:`GroupCosts`, from the cost cache.

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
        entry = MappingProxyType({
            (window_index, split_index): group_costs(
                space, characterizations, throughput_model, window, split)
            for window_index, window in enumerate(space.window_sides)
            for split_index, split in enumerate(splits)
            if all((window, depth) in characterizations for depth in split)})
        _cost_cache.put(key, entry)
    return entry


def _compute_admissions(space: ArchitectureSpace,
                        splits: Tuple[Tuple[int, ...], ...],
                        characterizations: Mapping[Tuple[int, int],
                                                   "ConeCharacterization"],
                        constraints: DseConstraints,
                        usable_luts: float
                        ) -> Dict[Tuple[int, int], _GroupAdmission]:
    n_counts = space.max_cones_per_depth
    area_limit = math.inf
    if constraints.device_only:
        area_limit = min(area_limit, usable_luts)
    if constraints.max_area_luts is not None:
        area_limit = min(area_limit, constraints.max_area_luts)
    admissions: Dict[Tuple[int, int], _GroupAdmission] = {}
    for window_index, window in enumerate(space.window_sides):
        for split_index, split in enumerate(splits):
            depths = sorted(set(split))
            if any((window, depth) not in characterizations
                   for depth in depths):
                admissions[(window_index, split_index)] = _GroupAdmission(
                    evaluable=False, admit_len=0, pruned=0)
                continue
            if math.isinf(area_limit):
                admit = n_counts
            else:
                area_by_depth = {
                    depth: characterizations[(window, depth)].area_luts
                    for depth in depths}
                admit = _admitted_prefix(n_counts, area_limit, depths,
                                         depths[-1], area_by_depth)
            admissions[(window_index, split_index)] = _GroupAdmission(
                evaluable=True, admit_len=admit, pruned=n_counts - admit)
    return admissions


@dataclass(frozen=True)
class _GroupPlan:
    """One group's admitted count-axis interval for one exploration.

    ``[start, stop)`` is the intersection of the area-admitted prefix
    (cached across per-run knob changes) with the throughput-admitted
    suffix, when the suffix was probed (it depends on frame geometry and
    the fps floor, so it is recomputed per call).
    """

    evaluable: bool
    start: int
    stop: int


def _throughput_admitted_start(admit_len: int, min_fps: float,
                               context: GroupContext,
                               throughput_model: Any,
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
        return throughput_model.estimate_batch(
            context.representative, context.cone_performance,
            frame_width, frame_height,
            np.asarray([count], dtype=np.int64))

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


def _plan_groups(space: ArchitectureSpace,
                 splits: Tuple[Tuple[int, ...], ...],
                 characterizations: Mapping[Tuple[int, int],
                                            "ConeCharacterization"],
                 throughput_model: Any,
                 frame_width: int, frame_height: int,
                 constraints: DseConstraints,
                 admissions: Mapping[Tuple[int, int], _GroupAdmission],
                 chunk_rows: int
                 ) -> Tuple[Dict[Tuple[int, int], _GroupPlan], int]:
    """Intersect the cached area prefixes with the fps suffix per group.

    Returns the per-group plans plus the rows the suffix probes cut off
    (inside the area prefix but below the floor).  A probe costs a few
    single-row batch calls, so it runs only where it can skip whole chunks
    — a prefix longer than ``chunk_rows``.  Elsewhere the fold filters the
    costed rows; the admitted set is the same either way.
    """
    min_fps = constraints.min_frames_per_second
    plans: Dict[Tuple[int, int], _GroupPlan] = {}
    fps_pruned = 0
    for group_key, admission in admissions.items():
        start = 0
        if (min_fps is not None and admission.evaluable
                and admission.admit_len > chunk_rows):
            window_index, split_index = group_key
            context = group_context(space, characterizations,
                                    space.window_sides[window_index],
                                    splits[split_index])
            start = _throughput_admitted_start(
                admission.admit_len, min_fps, context, throughput_model,
                frame_width, frame_height) or 0
            fps_pruned += start
        plans[group_key] = _GroupPlan(evaluable=admission.evaluable,
                                      start=start, stop=admission.admit_len)
    return plans, fps_pruned


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
    #: Chunks never materialized: fully pruned by pushdown, outside the
    #: admitted interval, or in a group without characterizations.
    chunks_skipped: int
    #: Largest number of rows actually materialized at once.
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
    """Evaluate a whole architecture space at bounded memory.

    Produces the same admitted rows and the same Pareto frontier (same
    design points, same order, bit-identical serializations) as evaluating
    every candidate one at a time, whatever ``chunk_rows`` is.

    ``materialize`` selects which rows become :class:`DesignPoint` objects:
    ``"frontier"`` (default) only the Pareto members, so peak memory is
    bounded by the chunk size plus the frontier state, never by the space;
    ``"admitted"`` every constraint-admitted row, with the per-tile
    throughput columns taken from the cost cache (piece 4 of the module
    docstring).
    """
    if materialize not in ("admitted", "frontier"):
        raise ValueError(f"materialize must be 'admitted' or 'frontier' "
                         f"(got {materialize!r})")
    constraints = constraints or DseConstraints()
    chunks = plan_chunks(space, chunk_rows)
    splits = tuple(tuple(split) for split in space.level_splits())

    characterization_key = _characterization_key(characterizations)
    key = _mask_cache_key(space, characterization_key, constraints,
                          usable_luts)
    admissions = _mask_cache.get(key)
    mask_cache_hit = admissions is not None
    if admissions is None:
        admissions = _compute_admissions(space, splits, characterizations,
                                         constraints, usable_luts)
        _mask_cache.put(key, admissions)
    plans, throughput_pruned = _plan_groups(
        space, splits, characterizations, throughput_model,
        frame_width, frame_height, constraints, admissions, chunk_rows)

    keep_points = materialize == "admitted"
    costs = (_cached_costs(space, splits, characterizations,
                          characterization_key, throughput_model)
             if keep_points else None)
    with obs_trace.span("stream.explore", chunks=len(chunks)):
        fold_started = time.perf_counter()
        fold = fold_chunks(space, characterizations, throughput_model,
                           frame_width, frame_height, chunks, plans,
                           constraints.min_frames_per_second, usable_luts,
                           keep_points, costs)
        obs_metrics.registry().histogram(
            "repro_stream_chunk_fold_seconds").observe(
                time.perf_counter() - fold_started)
    throughput_pruned += fold["fps_rejected"]
    _counters.add(runs=1,
                  chunks_materialized=fold["chunks_materialized"],
                  throughput_pruned_rows=throughput_pruned)

    pareto_area, _pareto_time, pareto_rows = fold["frontier"].result()
    if keep_points:
        # plan order delivers the admitted rows in enumeration order
        by_row = dict(fold["points"])
        design_points = list(by_row.values())
        pareto = [by_row[row] for row in pareto_rows.tolist()]
    else:
        pareto = _frontier_points(space, splits, characterizations,
                                  throughput_model, frame_width,
                                  frame_height, usable_luts, pareto_rows,
                                  pareto_area)
        design_points = list(pareto)
    return StreamingExploration(
        space_rows=space.size(),
        admitted_rows=fold["admitted_rows"],
        pruned_rows=(sum(entry.pruned for entry in admissions.values())
                     + throughput_pruned),
        chunk_rows=chunk_rows,
        chunks_total=len(chunks),
        chunks_skipped=fold["chunks_skipped"],
        peak_chunk_rows=fold["peak_chunk_rows"],
        frontier_peak=fold["frontier_peak"],
        mask_cache_hit=mask_cache_hit,
        pareto_row_index=pareto_rows,
        pareto=pareto,
        design_points=design_points,
        throughput_pruned_rows=throughput_pruned,
    )


def _frontier_points(space: ArchitectureSpace,
                     splits: Tuple[Tuple[int, ...], ...],
                     characterizations: Mapping[Tuple[int, int],
                                                "ConeCharacterization"],
                     throughput_model: Any, frame_width: int,
                     frame_height: int, usable_luts: float,
                     rows: "np.ndarray",
                     areas: "np.ndarray") -> List[DesignPoint]:
    """Rebuild :class:`DesignPoint`s for the frontier's global rows.

    The throughput columns are recomputed on just the survivors' counts,
    batched per (window, split) group, which reproduces the fold's values
    bit for bit (the stored frontier areas are reused directly).  Group
    contexts are rebuilt here, for the survivors' groups only.
    """
    n_counts = space.max_cones_per_depth
    by_group: Dict[Tuple[int, int], List[int]] = {}
    for position, row in enumerate(rows.tolist()):
        by_group.setdefault(divmod(row // n_counts, len(splits)),
                            []).append(position)
    points: List[Optional[DesignPoint]] = [None] * rows.size
    for (window_index, split_index), positions in by_group.items():
        context = group_context(space, characterizations,
                                space.window_sides[window_index],
                                splits[split_index])
        counts = rows[positions] % n_counts + 1
        columns = cost_counts(throughput_model, context, frame_width,
                              frame_height, counts)
        built = build_points(space, context, counts, areas[positions],
                             columns, range(len(positions)), usable_luts)
        for position, point in zip(positions, built):
            points[position] = point
    return points
