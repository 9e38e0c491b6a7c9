"""The entry point of every design-space exploration, and its cache.

:func:`explore_stream` is the entry point of every exploration — the
720-candidate paper space and million-candidate spaces alike.  It reads
the space's cost table from the cost cache and answers in the one pass of
:mod:`repro.dse.engine` (:func:`~repro.dse.engine.whole_space_pass`).
:meth:`repro.dse.explorer.DesignSpaceExplorer.explore` streams spaces of at
least :data:`STREAM_AUTO_THRESHOLD` rows (or any space on
``stream=True``): ``materialize="frontier"`` keeps only the Pareto
frontier as design points.  It explores smaller spaces in memory:
``materialize="admitted"`` also keeps a builder for every admitted row,
which builds those points on the first read of ``design_points``.  Either
way the pass builds design points for the Pareto rows only, and memory is
bounded by the cost table, groups × the largest saturation count, plus the
design points kept, never by the count axis.

Pieces:

1. The constraints prune rows before any design point is built.  The
   area-side ones (``device_only``, ``max_area_luts``) read only the
   areas, so the pass applies the area tests of
   :meth:`~repro.dse.constraints.DseConstraints.admits` elementwise to the
   cost table's area column.  Per-row area is monotone in the primary
   instance count, so each group's admitted rows form an interval of the
   count axis: a prefix, or, where the primary cone's area is negative and
   the area falls as instances are added, a suffix.  Only a group whose
   interval ends (or begins) past the table searches the count axis beyond
   it, by O(log rows) single-count probes of the exact area formula.  A
   ``min_frames_per_second`` floor is monotone along the same axis in the
   other direction (compute cycles per tile are nonincreasing in the
   primary count, so the frame rate is nondecreasing), and the pass
   rejects the rows below it with one fps mask over the cost table.
2. The cost table stops at the largest saturation count of the space's
   groups (``ThroughputModel.saturation_count``, the most executions a
   level of the primary depth runs per tile).  Past that count every row
   has the frame time of the table's last column, so it is admitted or
   rejected with that column, and of a group's admitted rows past the
   table only the last can join the frontier: an uncapped request over a
   million candidates ranks the table's rows plus one row per group.
3. The pass computes the frame time, the area mask and the fps mask
   once over the table, runs one Pareto extraction, and builds the Pareto
   rows' design points through one builder,
   :func:`repro.dse.engine.build_points`, one group's run of rows per
   call.  The other admitted rows, which ``"admitted"`` keeps, go through
   it on the first read of ``design_points``
   (:class:`~repro.dse.engine.PointsBuilder`, run once per exploration
   however many copies of the result share it, reusing the Pareto
   members).  The pass also reports the accounting of the chunked fold it
   replaced, at ``chunk_rows``: ``chunks_total``, ``chunks_skipped``,
   ``peak_chunk_rows`` and ``chunks_materialized`` are the cells of the
   ``chunk_rows`` grid that the admitted intervals touch, and where a
   floor is set and an interval is longer than ``chunk_rows``, a binary
   search on the throughput formula places the interval's start.
   Those fields and the probe describe a fold that no longer runs; they
   stay until the benchmark change that retargets perfbench's
   ``estimation.throughput_batch`` binding, whose coverage guard needs the
   probe's ``estimate_batch`` calls.  The two materialize modes therefore
   differ only in which design points they can build.
4. One small process-wide LRU, the *cost cache*, holds per space (shape
   knobs, kernel name, radius, components) + characterization values +
   throughput model the space's frame-independent costs as one table
   (:class:`~repro.dse.engine.SpaceCosts`), built whole on a miss.  Every
   exploration reads it, streamed or in memory, so a re-explore that
   changes only per-run knobs (frame geometry, constraints, minimum fps)
   pays only for the frame half and the masks.

   Its counters and the run counters are exposed through
   :func:`stream_stats` (the service tier serves them under
   ``stats()["stream"]``).
"""

from __future__ import annotations

import math
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Mapping,
                    Optional, Tuple)

import numpy as np

from repro.architecture.enumeration import ArchitectureSpace
from repro.dse.constraints import DseConstraints
from repro.dse.design_point import DesignPoint
from repro.dse.engine import (PointsField, SpaceCosts, space_costs,
                              whole_space_pass)
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.utils.validation import check_positive

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dse.explorer import ConeCharacterization

#: The cell size of the chunk grid an exploration's chunk accounting counts
#: (``chunks_total``, ``chunks_skipped``, ``peak_chunk_rows``), and the
#: interval length past which an fps floor runs the suffix probe.  It sets
#: no memory bound: the pass reads the whole cost table at once.
DEFAULT_CHUNK_ROWS = 4096

#: Spaces at or above this many candidates stream by default (explorer
#: ``stream=None``) and keep only the Pareto frontier as design points:
#: keeping every admitted row of a larger space as a design point would
#: cost hundreds of MB.
STREAM_AUTO_THRESHOLD = 200_000

#: Entries the cost cache may hold: one per space, characterization values
#: and throughput model.
COST_CACHE_CAPACITY = 16


# ---------------------------------------------------------------------- #
# the cost cache


class CountingLru:
    """Tiny thread-safe LRU with hit/miss/eviction counters.

    The cost cache below and a session's result and validation layers
    (:mod:`repro.api.session`) are instances of it.
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


_cost_cache = CountingLru(COST_CACHE_CAPACITY)
_counters = _StreamCounters()


def stream_stats() -> Dict[str, Any]:
    """Process-wide counters of the explorations.

    Served by the service tier under ``stats()["stream"]``.  ``runs``
    counts explorations, ``chunks_materialized`` the ``chunk_rows`` grid
    cells their admitted intervals touch (the accounting of the chunked
    fold the one pass replaced), and ``throughput_pruned_rows`` the rows a
    min-fps floor rejected.  ``costs`` holds the cost cache's counters
    (``hits``/``misses``/``evictions``/``entries``/``capacity``), which
    every exploration reads: ``hits`` growing across jobs is the signature
    of re-explores that changed only per-run knobs, and ``evictions``
    counts distinct spaces, characterizations and models beyond the bound.
    """
    return {**_counters.snapshot(), "costs": _cost_cache.stats()}


def reset_stream_stats() -> None:
    """Zero every exploration counter (tests) without dropping cached
    costs.

    Use :func:`clear_stream_caches` to also forget the cached entries.
    """
    _cost_cache.reset_stats()
    _counters.reset()


def clear_stream_caches() -> None:
    """Reset the cost cache and all counters (tests and benchmarks)."""
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


# ---------------------------------------------------------------------- #
# the exploration


@dataclass
class StreamingExploration:
    """What :func:`explore_stream` produces.

    ``pareto`` is the frontier in increasing-area order (see
    :mod:`repro.dse.pareto` for the tie-breaking contract) and
    ``pareto_row_index`` holds its members' global enumeration rows.
    ``design_points`` is every admitted row in enumeration order when the
    run materialized ``"admitted"`` rows, and the frontier alone when it
    materialized ``"frontier"``.  The pass builds only the frontier's
    points: the other admitted ones are built on the first read of
    ``design_points`` (a :class:`~repro.dse.engine.PointsField`), around
    the frontier members, which are the same objects.  The ``chunk*``
    fields are the accounting of the chunked fold the one pass replaced
    (module docstring, piece 3).
    """

    space_rows: int
    admitted_rows: int
    #: Rows the constraints rejected: area-infeasible (never built into
    #: design points) plus ``throughput_pruned_rows``.
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
    pareto_row_index: "np.ndarray"
    pareto: List[DesignPoint]
    design_points: List[DesignPoint] = PointsField()
    #: Rows inside the area interval that a min-fps floor rejected (0 when
    #: no floor was set).
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

    ``materialize`` selects which rows can become :class:`DesignPoint`
    objects: ``"frontier"`` (default) keeps only the Pareto members,
    ``"admitted"`` every constraint-admitted row, whose points off the
    front are built on the first read of ``design_points``.  Both answer
    in the one pass over the space's cost-cache entry, so peak memory is
    bounded by that table, groups × the largest saturation count, plus the
    points kept, never by the count axis (pieces 2 to 4 of the module
    docstring).
    """
    if materialize not in ("admitted", "frontier"):
        raise ValueError(f"materialize must be 'admitted' or 'frontier' "
                         f"(got {materialize!r})")
    if chunk_rows < 1:
        raise ValueError(f"chunk_rows must be >= 1 (got {chunk_rows})")
    check_positive("frame_width", frame_width)
    check_positive("frame_height", frame_height)
    constraints = constraints or DseConstraints()
    splits = tuple(tuple(split) for split in space.level_splits())
    n_counts = space.max_cones_per_depth

    costs = _cached_costs(space, splits, characterizations,
                          _characterization_key(characterizations),
                          throughput_model)
    chunks_total = (len(space.window_sides) * len(splits)
                    * -(-n_counts // chunk_rows))
    with obs_trace.span("stream.explore", chunks=chunks_total):
        fold_started = time.perf_counter()
        fold = whole_space_pass(space, costs, throughput_model, frame_width,
                                frame_height, len(splits), constraints,
                                chunk_rows, usable_luts, materialize)
        obs_metrics.registry().histogram(
            "repro_stream_chunk_fold_seconds").observe(
                time.perf_counter() - fold_started)
    throughput_pruned = fold["fps_pruned"]
    _counters.add(runs=1,
                  chunks_materialized=fold["chunks_materialized"],
                  throughput_pruned_rows=throughput_pruned)
    return StreamingExploration(
        space_rows=space.size(),
        admitted_rows=fold["admitted_rows"],
        pruned_rows=fold["area_pruned"] + throughput_pruned,
        chunk_rows=chunk_rows,
        chunks_total=chunks_total,
        chunks_skipped=chunks_total - fold["chunks_materialized"],
        peak_chunk_rows=fold["peak_chunk_rows"],
        pareto_row_index=fold["pareto_rows"],
        pareto=fold["pareto"],
        design_points=fold["design_points"],
        throughput_pruned_rows=throughput_pruned,
    )
