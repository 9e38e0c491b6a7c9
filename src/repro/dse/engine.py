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
A row is admitted when its area passes the area tests of
:meth:`~repro.dse.constraints.DseConstraints.admits` (``device_only``,
``max_area_luts``) and it meets any ``min_frames_per_second`` floor.

One pass, :func:`whole_space_pass`, answers every exploration, in memory
or streamed.  It reads the frame-independent costs as one cached table
(:class:`SpaceCosts`) over the counts ``1..W``, where ``W`` is the smaller
of the count axis and the largest saturation count among the groups
(:meth:`~repro.estimation.throughput_model.ThroughputModel.saturation_count`:
the most executions a level of the primary depth runs per tile, past which
more instances change no frame time).  A row past the table therefore has
the figures of its last column and only an area of its own.  The pass
computes the frame time, the area mask and the fps mask once over the
table, admits each row past it with the last column, and runs
:func:`~repro.dse.pareto.pareto_indices` once over the candidates: the
admitted rows of the table plus, per group, its last admitted row past
it (the rows between share its frame time and lie between it and the last
column in area).  Memory is bounded by the table, groups × ``W``, plus the
design points kept, never by the count axis.

The pass builds design points for the Pareto rows only.  With
``materialize="admitted"`` it also returns a :class:`PointsBuilder` for
every admitted row, which a result's ``design_points`` (a
:class:`PointsField`) runs on first read, once, reusing the Pareto members
it already built: a caller that reads only the front pays only for the
front.  Rows become points in one place, :func:`build_points`, one
group's rows per call, as plain Python values: what a group's points share
(names, depths, the base cone counts, the cone areas) is derived once per
call, and each point gets only its own containers and objects.  The pass
also reports the chunk accounting of the chunked fold it replaced
(:func:`_chunk_grid`, with the fps suffix probe
:func:`_throughput_admitted_start`).  The cost cache lives in
:mod:`repro.dse.stream`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from types import MappingProxyType
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Mapping,
                    Optional, Sequence, Tuple, Union)

import numpy as np

from repro.architecture.enumeration import ArchitectureSpace
from repro.architecture.template import ConeArchitecture
from repro.dse.constraints import DseConstraints
from repro.dse.design_point import DesignPoint
from repro.dse.pareto import pareto_indices
from repro.estimation.throughput_model import (
    ArchitecturePerformance,
    ConePerformance,
    ThroughputModel,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dse.explorer import ConeCharacterization


def group_area(counts: Any, depths: Sequence[int], primary: int,
               area_by_depth: Mapping[int, float]) -> Any:
    """Per-row area over a primary-count vector, or at one count.

    Accumulated in sorted-depth order with only the primary depth's
    instance count varying — the same additions as the per-point sum, so
    any count or slice of the count axis reproduces the per-point values
    bit for bit.
    """
    area = 0.0
    for depth in depths:
        area = area + (counts * area_by_depth[depth] if depth == primary
                       else area_by_depth[depth])
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


class PointsBuilder:
    """Every admitted design point of one exploration, built once, on first
    read.

    ``build`` returns the points; it runs at most once, under the builder's
    own lock, so concurrent first reads share one build, and the builder
    drops ``build`` (and the arrays it holds) once it has run.  Each read
    returns a fresh list of the same points.  A pickle or a copy of the
    builder is the list of its points, so a result that was never read
    pickles and deep-copies like one that was.
    """

    def __init__(self, build: Callable[[], List[DesignPoint]]) -> None:
        self._build: Optional[Callable[[], List[DesignPoint]]] = build
        self._points: List[DesignPoint] = []
        self._lock = threading.Lock()

    def points(self) -> List[DesignPoint]:
        with self._lock:
            if self._build is not None:
                self._points, self._build = self._build(), None
        return list(self._points)

    def __reduce__(self) -> Tuple[Any, ...]:
        return list, (self.points(),)


class PointsField:
    """The ``design_points`` field of an exploration result: a list, or a
    :class:`PointsBuilder` that the first read runs and replaces with the
    list it returns.

    A dataclass field with this descriptor as its value keeps its keyword
    and has no default.  The stored value lives in the instance's
    ``__dict__`` under the field's name, so :func:`unread_points` reads it
    without building.
    """

    def __set_name__(self, owner: type, name: str) -> None:
        self._name = name

    def __get__(self, instance: Any, owner: Optional[type] = None
                ) -> List[DesignPoint]:
        if instance is None:
            raise AttributeError(self._name)  # no default value
        value = instance.__dict__[self._name]
        if isinstance(value, PointsBuilder):
            value = instance.__dict__[self._name] = value.points()
        return value

    def __set__(self, instance: Any,
                points: Union[List[DesignPoint], PointsBuilder]) -> None:
        instance.__dict__[self._name] = points


def unread_points(result: Any) -> Union[List[DesignPoint], PointsBuilder]:
    """A copy of ``result.design_points`` that builds nothing: the result's
    builder while its points are unread (shared, so every holder reuses its
    one build), else a fresh list of its points."""
    value = vars(result)["design_points"]
    return value if isinstance(value, PointsBuilder) else list(value)


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
    ``[start, admit_len)`` of the counts ``1..admit_len`` — found by
    O(log n) single-count probes of the
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
    nonpositive frame time anywhere in ``1..admit_len``
    (``frames_per_second`` snaps to 0 there, breaking the suffix shape).
    The caller then counts the group's whole area-admitted interval.
    """
    def columns_at(count: int) -> Mapping[str, object]:
        return throughput_model.estimate_batch(
            context.representative, context.cone_performance, frame_width,
            frame_height, np.asarray([count], dtype=np.int64))

    interval = throughput_model.execution_interval_cycles(
        context.representative, context.primary,
        context.cone_performance[context.primary])
    if interval < 0:
        return None
    tail = columns_at(admit_len)
    # seconds_per_frame is nonincreasing in the count, so its minimum over
    # 1..admit_len sits at admit_len: positive there means positive (and the
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


def _chunk_grid(start: "np.ndarray", stop: "np.ndarray",
                chunk_rows: int) -> Tuple[int, int]:
    """How many chunks the groups' admitted intervals ``[start, stop)``
    span, and the most rows one of them holds: the chunk accounting every
    exploration reports.

    A group's chunks are the cells of the ``chunk_rows`` grid its interval
    touches, so only the first and the last can be short, and a group with
    no row left has none.  The counts describe the chunked fold that
    :func:`whole_space_pass` replaced; they stay until the benchmark change
    that drops the probe (:func:`_throughput_admitted_start`).
    """
    live = start < stop
    first_cell, end_cell = start // chunk_rows, -(-stop // chunk_rows)
    chunks = np.where(live, end_cell - first_cell, 0)
    first = np.minimum((first_cell + 1) * chunk_rows, stop) - start
    last = stop - np.maximum((end_cell - 1) * chunk_rows, start)
    rows = np.where(chunks > 2, chunk_rows, np.maximum(first, last))
    return int(chunks.sum()), int(rows[live].max(initial=0))


def _area_admits(area: Any, constraints: DseConstraints,
                 usable_luts: float) -> Any:
    """The area tests of :meth:`DseConstraints.admits` on one area, or
    elementwise over an array of them, for constraints that set
    ``device_only`` or ``max_area_luts``: within the device an area is at
    most ``usable_luts`` (``fits_device``), and under a cap it is not above
    the cap, so a NaN area fails the one and passes the other (and both
    together admit an area at most the smaller bound)."""
    cap = constraints.max_area_luts
    if constraints.device_only:
        return area <= (usable_luts if cap is None
                        else min(usable_luts, cap))
    return (area <= cap) | (area != area)  # or NaN


def _last_count_alike(context: GroupContext, constraints: DseConstraints,
                      usable_luts: float, width: int, n_counts: int) -> int:
    """The last count of ``width..n_counts`` that the area constraints
    admit or reject as they do count ``width``.

    A group's area is monotone in the primary count, so its area admission
    changes at most once along the count axis; this finds where, past the
    cost table, by O(log n) single-count probes of :func:`group_area`,
    bit-exact to the table's areas.
    """
    def admits(count: int) -> bool:
        return bool(_area_admits(
            group_area(count, context.depths, context.primary,
                       context.area_by_depth), constraints, usable_luts))

    alike = admits(width)
    if admits(n_counts) == alike:
        return n_counts
    low, high = width, n_counts  # admits(low) == alike != admits(high)
    while high - low > 1:
        mid = (low + high) // 2
        if admits(mid) == alike:
            low = mid
        else:
            high = mid
    return low


def whole_space_pass(space: ArchitectureSpace, costs: SpaceCosts,
                     throughput_model: ThroughputModel,
                     frame_width: int, frame_height: int, n_splits: int,
                     constraints: DseConstraints, chunk_rows: int,
                     usable_luts: float, materialize: str) -> Dict[str, Any]:
    """Answer an exploration in one columnar pass over its
    :class:`SpaceCosts`.

    A row of the table is admitted by the area tests of ``constraints``,
    applied elementwise to the table's areas (:func:`_area_admits`), and
    by the fps floor.  Each group's area-admitted rows form an interval
    ``(begin, end)`` of zero-based counts, read off that mask: a prefix,
    or a suffix where the primary cone's area is negative.  Only a group
    whose interval ends or begins past the table searches the count axis
    beyond it (:func:`_last_count_alike`).  A row past the table takes the
    figures of its last column, so it is admitted or fps-pruned with that
    column, and its area comes from :func:`group_area`.  Of a group's
    admitted rows past the table, only the last joins the Pareto
    candidates: the others share its frame time and lie between it and
    the last column in area.

    The pass builds design points for the Pareto rows only.  With
    ``materialize="admitted"``, ``design_points`` is a
    :class:`PointsBuilder` for every admitted row in enumeration order,
    which builds the rows off the front on its first run and puts the
    Pareto members among them; with ``"frontier"`` it is the Pareto
    members alone.

    Where an fps floor is set and an interval is longer than
    ``chunk_rows``, :func:`_throughput_admitted_start` places the start of
    the fps-admitted suffix, up to the group's saturation count when its
    primary cone area is nonnegative, and the chunk counts follow from the
    admitted intervals (:func:`_chunk_grid`).  Returns the accounting (with
    the rows the area tests and the floor pruned), the design points, the
    Pareto members (``pareto``, in increasing-area order) and their global
    rows (``pareto_rows``).
    """
    n_counts, width = space.max_cones_per_depth, costs.area.shape[1]
    min_fps = constraints.min_frames_per_second
    begin = np.zeros(len(costs.keys), dtype=np.int64)
    end = np.full(len(costs.keys), n_counts, dtype=np.int64)
    admit = np.ones(costs.area.shape, dtype=bool)
    if constraints.device_only or constraints.max_area_luts is not None:
        admit = _area_admits(costs.area, constraints, usable_luts)
        # area is monotone in the primary count: a group's admitted rows are
        # a prefix, or a suffix where its primary cone's area is negative
        fitting = admit.sum(axis=1)
        falling = np.array([context.area_by_depth[context.primary] < 0
                            for context in costs.contexts], dtype=bool)
        begin = np.where(falling, width - fitting, 0)
        end = np.where(falling, n_counts, fitting)
        if width < n_counts:
            # a prefix that fills the table, or a suffix that misses it,
            # ends or begins past it
            for group in np.flatnonzero(
                    fitting == np.where(falling, 0, width)).tolist():
                last = _last_count_alike(costs.contexts[group], constraints,
                                         usable_luts, width, n_counts)
                if falling[group]:
                    begin[group] = last
                else:
                    end[group] = last
    start = begin.copy()
    if min_fps is not None:
        for group in np.flatnonzero(end - begin > chunk_rows).tolist():
            context = costs.contexts[group]
            stop = int(end[group])
            if context.area_by_depth[context.primary] >= 0:
                stop = min(stop, throughput_model.saturation_count(
                    context.representative))
            found = _throughput_admitted_start(
                stop, min_fps, context, throughput_model, frame_width,
                frame_height)
            start[group] = (end[group] if found == stop
                            else max(found or 0, int(begin[group])))
    chunks_materialized, peak_chunk_rows = _chunk_grid(start, end,
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
        past = np.maximum(end - np.maximum(begin, width), 0)
        if min_fps is not None:
            past = np.where(fps[:, -1] >= min_fps, past, 0)
        admitted_rows += int(past.sum())
        tails = np.flatnonzero(past).tolist()
    if tails:
        # only a group's last row past the table joins the candidates: the
        # others share its frame time, and their area lies between its area
        # and the last column's (a negative primary area falls towards the
        # last row; a nonnegative one admits a prefix, the last column in it)
        at = np.count_nonzero(admit, axis=1).cumsum()[tails]
        groups = np.insert(groups, at, tails)
        offsets = np.insert(offsets, at, end[tails] - 1)
        area = np.insert(area, at, [area_at(group, end[group:group + 1])[0]
                                    for group in tails])
        times = np.insert(times, at, seconds[tails, -1])
    keep = pareto_indices(area, times)
    first_rows = np.array([(window_index * n_splits + split_index)
                           * n_counts
                           for window_index, split_index in costs.keys],
                          dtype=np.int64)
    pareto_rows = first_rows[groups[keep]] + offsets[keep]

    def points_of(groups: "np.ndarray",
                  offsets: "np.ndarray") -> List[DesignPoint]:
        """The design points of rows given as (table group, zero-based
        count) in enumeration order."""
        select = (groups, np.minimum(offsets, width - 1))
        area = costs.area[select]
        if tails:
            beyond = offsets >= width
            for group in np.unique(groups[beyond]).tolist():
                rows = beyond & (groups == group)
                area[rows] = area_at(group, offsets[rows] + 1)
        points: List[DesignPoint] = []
        if not groups.size:
            return points
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
        return points

    chosen = np.sort(keep)
    front = points_of(groups[chosen], offsets[chosen])
    pareto = [front[index] for index in np.searchsorted(chosen, keep).tolist()]

    def every_admitted_point() -> List[DesignPoint]:
        # every admitted row in enumeration order, and where each Pareto
        # member sits among them
        rows, members = (groups, offsets), keep
        if tails:  # the rows past the table that are no candidates
            every = np.sort(np.concatenate([groups * n_counts + offsets] + [
                np.arange(group * n_counts + max(int(begin[group]), width),
                          group * n_counts + end[group] - 1)
                for group in tails]))
            members = np.searchsorted(every, groups[keep] * n_counts
                                      + offsets[keep])
            rows = np.divmod(every, n_counts)
        rest = np.ones(rows[0].size, dtype=bool)
        rest[members] = False
        points = points_of(rows[0][rest], rows[1][rest])
        member_at = dict(zip(members.tolist(), pareto))
        for position in sorted(member_at):
            points.insert(position, member_at[position])
        return points

    area_admitted = int((end - begin).sum())
    return {"admitted_rows": admitted_rows,
            "area_pruned": len(costs.keys) * n_counts - area_admitted,
            "fps_pruned": area_admitted - admitted_rows,
            "peak_chunk_rows": peak_chunk_rows,
            "chunks_materialized": chunks_materialized,
            "design_points": (list(pareto) if materialize == "frontier"
                              else PointsBuilder(every_admitted_point)),
            # a list of the caller's own: the builder keeps ``pareto``
            "pareto": list(pareto),
            "pareto_rows": pareto_rows}
