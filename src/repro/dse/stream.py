"""The entry point of every design-space exploration, and its caches.

:func:`explore_stream` is the entry point of every exploration — the
720-candidate paper space and million-candidate spaces alike.  It pushes
the area constraints down, reads the space's cost table from the cost
cache, and answers in the one pass of :mod:`repro.dse.engine`
(:func:`~repro.dse.engine.whole_space_pass`).
:meth:`repro.dse.explorer.DesignSpaceExplorer.explore` streams spaces of at
least :data:`STREAM_AUTO_THRESHOLD` rows (or any space on
``stream=True``): ``materialize="frontier"`` keeps only the Pareto
frontier as design points.  It explores smaller spaces in memory:
``materialize="admitted"`` keeps every admitted row as a design point.
Either way memory is bounded by the cost table, groups × the largest
saturation count, plus the design points kept, never by the count axis.

Pieces:

1. Constraint pushdown prunes rows *before* costing: the area-side
   constraints (``device_only``, ``max_area_luts``) depend only on shape
   knobs and the cone areas, and per-row area is nondecreasing in the
   primary instance count, so each group's admitted rows form a prefix of
   the count axis found by binary search — O(log rows) scalar probes using
   the exact accumulation formula.  A ``min_frames_per_second`` floor is
   monotone along the same axis in the other direction (compute cycles per
   tile are nonincreasing in the primary count, so the frame rate is
   nondecreasing), and the pass rejects the rows below it with one fps
   mask over the cost table.
2. The cost table stops at the largest saturation count of the space's
   groups (``ThroughputModel.saturation_count``, the most executions a
   level of the primary depth runs per tile).  Past that count every row
   has the frame time of the table's last column, so it is admitted or
   rejected with that column, and of a group's admitted rows past the
   table only the last can join the frontier: an uncapped request over a
   million candidates ranks the table's rows plus one row per group.
3. The pass computes the frame time, the prefix mask and the fps mask
   once over the table, runs one Pareto extraction, and builds design
   points through one builder, :func:`repro.dse.engine.build_points`, one
   group's run of rows per call.  It also reports the accounting of the
   chunked fold it replaced, at ``chunk_rows``: ``chunks_total``,
   ``chunks_skipped``, ``peak_chunk_rows`` and ``chunks_materialized`` are
   the cells of the ``chunk_rows`` grid that the admitted intervals touch,
   and where a floor is set and a prefix is longer than ``chunk_rows``, a
   binary search on the throughput formula places the interval's start.
   Those fields and the probe describe a fold that no longer runs; they
   stay until the benchmark change that retargets perfbench's
   ``estimation.throughput_batch`` binding, whose coverage guard needs the
   probe's ``estimate_batch`` calls.  The two materialize modes therefore
   differ only in which design points they keep.
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
     components) + characterization values + throughput model, the
     space's frame-independent costs as one table
     (:class:`~repro.dse.engine.SpaceCosts`), built whole on a miss.
     Every exploration reads it, streamed or in memory, and a request
     pays only for the frame half.

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
from repro.dse.engine import (SpaceCosts, group_area, space_costs,
                              whole_space_pass)
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dse.explorer import ConeCharacterization

#: The cell size of the chunk grid an exploration's chunk accounting counts
#: (``chunks_total``, ``chunks_skipped``, ``peak_chunk_rows``), and the
#: prefix length past which an fps floor runs the suffix probe.  It sets
#: no memory bound: the pass reads the whole cost table at once.
DEFAULT_CHUNK_ROWS = 4096

#: Spaces at or above this many candidates stream by default (explorer
#: ``stream=None``) and keep only the Pareto frontier as design points:
#: keeping every admitted row of a larger space as a design point would
#: cost hundreds of MB.
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
    """Process-wide counters of the explorations.

    Served by the service tier under ``stats()["stream"]``.  The mask-cache
    half (``hits``/``misses``/``evictions``/``entries``/``capacity``):
    ``hits`` growing across jobs is the signature of incremental
    re-explores (only per-run knobs changed, pushdown analysis reused);
    ``evictions`` counts distinct (shape, characterization, constraint)
    combinations beyond the bound.  The run half: ``runs`` counts
    explorations, ``chunks_materialized`` the ``chunk_rows`` grid cells
    their admitted intervals touch (the accounting of the chunked fold the
    one pass replaced), and ``throughput_pruned_rows`` the rows a min-fps
    floor rejected.  ``costs`` holds the same five counters for the cost
    cache, which every exploration reads.
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
    depths lack characterizations (the pass skips it without counting its
    rows as pruned)."""
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
    The ``chunk*`` fields are the accounting of the chunked fold the one
    pass replaced (module docstring, piece 3).
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
    #: characterizations.  The rest are the ``chunk_rows`` grid cells of the
    #: admitted intervals.
    chunks_skipped: int
    #: Most admitted-interval rows in one ``chunk_rows`` grid cell.
    peak_chunk_rows: int
    mask_cache_hit: bool
    pareto_row_index: "np.ndarray"
    pareto: List[DesignPoint]
    design_points: List[DesignPoint]
    #: Rows inside the area prefix that a min-fps floor rejected (0 when no
    #: floor was set).
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

    ``materialize`` selects which rows become :class:`DesignPoint`
    objects: ``"frontier"`` (default) keeps only the Pareto members,
    ``"admitted"`` every constraint-admitted row.  Both answer in the one
    pass over the space's cost-cache entry, so peak memory is bounded by
    that table, groups × the largest saturation count, plus the points
    kept, never by the count axis (pieces 2 to 4 of the module docstring).
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

    costs = _cached_costs(space, splits, characterizations,
                          characterization_key, throughput_model)
    chunks_total = len(prefixes) * -(-n_counts // chunk_rows)
    with obs_trace.span("stream.explore", chunks=chunks_total):
        fold_started = time.perf_counter()
        fold = whole_space_pass(space, costs, throughput_model, frame_width,
                                frame_height, len(splits), prefixes,
                                chunk_rows, constraints.min_frames_per_second,
                                usable_luts, materialize)
        obs_metrics.registry().histogram(
            "repro_stream_chunk_fold_seconds").observe(
                time.perf_counter() - fold_started)
    throughput_pruned = fold["fps_pruned"]
    _counters.add(runs=1,
                  chunks_materialized=fold["chunks_materialized"],
                  throughput_pruned_rows=throughput_pruned)
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
        mask_cache_hit=mask_cache_hit,
        pareto_row_index=fold["pareto_rows"],
        pareto=fold["pareto"],
        design_points=fold["design_points"],
        throughput_pruned_rows=throughput_pruned,
    )
