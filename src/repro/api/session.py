"""Sessions: cached, batched execution of workloads.

A :class:`Session` owns a characterization/calibration cache keyed by
:meth:`Workload.characterization_key` — ``(kernel fingerprint, device, data
format, cone-shape knobs)``.  Workloads that share a key share one
:class:`DesignSpaceExplorer` (and hence its kernel analysis, its synthesizer
and its per-iteration characterization cache), so exploring the same kernel
on several frame sizes, or sweeping constraints, never re-synthesizes a cone
shape that has already been characterized.  Finished results live in a
bounded result layer (:data:`RESULT_CACHE_CAPACITY` workloads), so a
long-lived session's memory does not grow with the number of distinct
workloads it ran.

:meth:`Session.run_many` runs a batch in input order on the calling thread:
the flow is pure Python, so a thread pool would only add interpreter-lock
contention, and every workload of a shared key reuses the first one's
characterization anyway.  A failing workload does not stop the batch; the
earliest failure is re-raised after the last workload ran.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import threading
import time
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple, Union)

from repro.api import pipeline
from repro.api.results import FlowResult
from repro.api.store import ArtifactStore, CharacterizationStoreAdapter
from repro.api.workload import Workload
from repro.dse.design_point import DesignPoint
from repro.dse.engine import unread_points
from repro.dse.explorer import DesignSpaceExplorer
from repro.dse.stream import CountingLru
from repro.frontend.kernel_ir import KernelValidationError
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.simulation.validation import ValidationResult, validate_workload
from repro.symbolic.executor import ConstantFoldError

#: Flow results a session keeps in memory, one per workload; the least
#: recently used goes first (a store-backed session still finds it on disk).
RESULT_CACHE_CAPACITY = 64

#: Validation results a session keeps in memory, one per (workload,
#: window, mode) request; the least recently used goes first.
VALIDATION_CACHE_CAPACITY = 64


@dataclass(frozen=True)
class SessionEvent:
    """One progress notification emitted by a session.

    ``kind`` is one of ``workload-started``, ``stage-started``,
    ``stage-finished``, ``workload-finished``, ``workload-failed``,
    ``cache-hit``.  Callbacks registered on a session receive every event,
    on the thread that runs the workload (sessions shared by a service or
    by user threads invoke them from several threads).

    With tracing enabled (:mod:`repro.obs.trace`), ``trace_id``/``span_id``
    carry the enclosing span's identity so logs and traces join on one key;
    both stay ``None`` when recording is off.
    """

    kind: str
    workload: Workload
    stage: Optional[str] = None
    elapsed_s: Optional[float] = None
    detail: str = ""
    trace_id: Optional[str] = None
    span_id: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        """Stable JSON-ready representation (workload by name)."""
        return {
            "kind": self.kind,
            "workload": self.workload.name,
            "stage": self.stage,
            "elapsed_s": self.elapsed_s,
            "detail": self.detail,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
        }


@dataclass
class SessionStats:
    """Aggregate accounting across every workload a session has run."""

    workloads_run: int = 0
    workloads_failed: int = 0
    #: Runs whose characterize stage needed no new synthesis (partial
    #: reuse counts as a miss).  A run served from the result layer or
    #: the store runs no stage, so it counts neither.
    characterization_cache_hits: int = 0
    characterization_cache_misses: int = 0
    synthesis_runs: int = 0
    tool_runtime_spent_s: float = 0.0
    tool_runtime_avoided_s: float = 0.0
    #: Persistent-store traffic (all zero on sessions without a store):
    #: artifacts served from disk, lookups that fell through to recompute,
    #: and artifacts written back.
    store_disk_hits: int = 0
    store_disk_misses: int = 0
    store_writes: int = 0
    #: Cumulative per-workload latency.  On a session shared by several
    #: threads this sums over concurrent callers (including time blocked on
    #: shared-key locks), so it can exceed real elapsed wall time — time the
    #: calls yourself for a wall figure.
    workload_time_s: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation."""
        return {
            "workloads_run": self.workloads_run,
            "workloads_failed": self.workloads_failed,
            "characterization_cache_hits": self.characterization_cache_hits,
            "characterization_cache_misses": self.characterization_cache_misses,
            "synthesis_runs": self.synthesis_runs,
            "tool_runtime_spent_s": self.tool_runtime_spent_s,
            "tool_runtime_avoided_s": self.tool_runtime_avoided_s,
            "workload_time_s": self.workload_time_s,
            "store_disk_hits": self.store_disk_hits,
            "store_disk_misses": self.store_disk_misses,
            "store_writes": self.store_writes,
        }


class Session:
    """Runs workloads through the flow's stages with process-wide caching.

    A session keeps three in-memory layers:

    * one :class:`DesignSpaceExplorer` per characterization key, holding
      the kernel analysis and every cone characterization of that key
      (unbounded: dropping one throws away synthesis; see :meth:`evict`);
    * the result layer: the flow results of the last
      :data:`RESULT_CACHE_CAPACITY` workloads, which :meth:`run` and
      :meth:`generate_vhdl` read;
    * the validation layer: the last :data:`VALIDATION_CACHE_CAPACITY`
      validation results.

    With ``store`` (a directory path or an :class:`ArtifactStore`), caching
    extends across processes: cone characterizations and full flow results
    are mirrored to disk, so a later session — or a ``python -m repro``
    rerun — pointed at the same store completes the same workloads with zero
    synthesizer invocations (observable as ``stats.store_disk_hits`` with
    ``stats.synthesis_runs == 0``).  A result is looked up in memory, then
    in the store, and computed only when both miss.

    Sessions are safe for concurrent callers (user threads, or a server's
    dispatcher next to direct calls): the registries are guarded by an
    internal lock, racing threads on one cold characterization key
    serialize on that key's lock so the synthesis happens exactly once,
    and the statistics counters take a dedicated stats lock so no
    increment is ever lost to a read-modify-write race.
    """

    def __init__(self, on_event: Optional[Callable[[SessionEvent], None]] = None,
                 store: Optional[Union[str, os.PathLike,
                                       ArtifactStore]] = None) -> None:
        if store is None or isinstance(store, ArtifactStore):
            self._store = store
        else:
            self._store = ArtifactStore(os.fspath(store))
        self._explorers: Dict[Tuple, DesignSpaceExplorer] = {}
        self._key_locks: Dict[Tuple, threading.Lock] = {}
        #: The result layer: Workload -> FlowResult, shared by every caller
        #: through _defensive_copy.
        self._results = CountingLru(RESULT_CACHE_CAPACITY)
        #: Validation evidence; validation is deterministic, so equal
        #: requests share one immutable result.
        self._validations = CountingLru(VALIDATION_CACHE_CAPACITY)
        #: Keys with work in flight (refcounts); evict() leaves them alone.
        self._active_keys: Dict[Tuple, int] = {}
        self._registry_lock = threading.Lock()
        self._callbacks_lock = threading.Lock()
        self._callbacks: List[Callable[[SessionEvent], None]] = []
        # SessionStats mutations get their own (uncontended) lock: store
        # observers and per-workload accounting fire from every thread that
        # shares the session — every service dispatch and request thread —
        # so funnelling them through the registry lock would serialize
        # bookkeeping against cache lookups, and leaving them bare would
        # lose increments to the classic read-modify-write race.
        self._stats_lock = threading.Lock()
        self._stats = SessionStats()
        # events raised while this thread holds a key lock are buffered here
        # and flushed after release, so callbacks never run under internal
        # locks (a re-entrant callback would deadlock otherwise)
        self._deferred = threading.local()
        if on_event is not None:
            self._callbacks.append(on_event)

    # ------------------------------------------------------------------ #
    # events

    def on_event(self, callback: Callable[[SessionEvent], None]) -> None:
        """Register an additional progress/event callback.

        Safe to call while other threads run workloads (the service
        registers observers against a live session); events emitted
        concurrently with the registration may or may not reach the new
        callback.
        """
        with self._callbacks_lock:
            self._callbacks.append(callback)

    def _emit(self, kind: str, workload: Workload,
              stage: Optional[str] = None, elapsed_s: Optional[float] = None,
              detail: str = "") -> None:
        """Raise one event, stamped with the enclosing span's identity:
        delivered now, or after the locked section this thread is in.
        Nothing is built while no callback is registered.  The service
        tier raises its ``job-*`` events (:mod:`repro.service`) here too."""
        if not self._callbacks:
            return
        trace_id, span_id = obs_trace.current_ids()
        event = SessionEvent(kind, workload, stage=stage,
                             elapsed_s=elapsed_s, detail=detail,
                             trace_id=trace_id, span_id=span_id)
        pending = getattr(self._deferred, "pending", None)
        if pending is not None:
            pending.append(event)
        else:
            self._deliver(event)

    def _deliver(self, event: SessionEvent) -> None:
        with self._callbacks_lock:
            callbacks = list(self._callbacks)
        for callback in callbacks:
            callback(event)

    @contextlib.contextmanager
    def _locked_section(self) -> Iterator[None]:
        """Buffer the events this thread raises in the with-block (which
        takes internal locks, and does not nest) and deliver them on exit,
        after the locks are released."""
        self._deferred.pending = []
        try:
            yield
        finally:
            pending, self._deferred.pending = self._deferred.pending, None
            for event in pending:
                self._deliver(event)

    # ------------------------------------------------------------------ #
    # characterization cache

    def explorer_for(self, workload: Workload) -> DesignSpaceExplorer:
        """The cached explorer for a workload's characterization key.

        Escape hatch for direct explorer use, such as reading the kernel
        analysis facts (``properties``, ``invariance``, ``constant_fault``)
        without running the flow; building it validates the kernel.  Unlike
        :meth:`run`, work done on the returned object is not guarded
        against a concurrent :meth:`evict` (its counters may be folded out
        from under it); on sessions shared across threads, prefer
        :meth:`run`.
        """
        key = workload.characterization_key()
        with self._registry_lock:
            explorer = self._explorers.get(key)
        if explorer is None:
            # Build outside the registry lock — kernel validation and
            # footprint analysis would otherwise serialize batch startup
            # across distinct kernels.  A duplicate build from a racing
            # thread is discarded by setdefault (it performs no synthesis).
            built = pipeline.build_explorer(
                workload, family_store=self._family_store_for(workload))
            with self._registry_lock:
                explorer = self._explorers.setdefault(key, built)
        return explorer

    def _key_lock(self, key: Tuple) -> threading.Lock:
        """The lock serializing the characterization of ``key``; key locks
        outlive eviction (see :meth:`evict`)."""
        with self._registry_lock:
            return self._key_locks.setdefault(key, threading.Lock())

    # ------------------------------------------------------------------ #
    # persistent store

    @property
    def store(self) -> Optional[ArtifactStore]:
        """The persistent artifact store, or ``None`` (in-memory only)."""
        return self._store

    def _family_store_for(self, workload: Workload
                          ) -> Optional[CharacterizationStoreAdapter]:
        """The disk binding for one characterization key's depth families.

        The scope string is the repr of the (fully value-typed, hashable)
        characterization key: every participating type has a deterministic
        repr, so the same workload addresses the same artifacts from any
        process.
        """
        if self._store is None:
            return None
        return CharacterizationStoreAdapter(
            self._store, scope=repr(workload.characterization_key()),
            observer=self._record_store_event)

    def _record_store_event(self, event: str) -> None:
        # dedicated stats lock: store traffic is reported from every
        # worker thread, and a bare += here would drop counts under
        # concurrency (read-modify-write) — see tests/api/test_concurrency
        with self._stats_lock:
            if event == "hit":
                self._stats.store_disk_hits += 1
            elif event == "miss":
                self._stats.store_disk_misses += 1
            elif event == "write":
                self._stats.store_writes += 1

    @staticmethod
    def _result_store_key(workload: Workload) -> str:
        # canonical JSON of the full declarative workload: two equal
        # workloads address the same artifact from any process
        payload = workload.to_dict()
        # to_dict() records algorithm workloads by registry name only; the
        # fingerprint ties the artifact to the kernel's actual content, so
        # editing an algorithm definition can never serve a stale result
        payload["kernel_fingerprint"] = workload.kernel_fingerprint
        return json.dumps(payload, sort_keys=True)

    def _load_stored_result(self, workload: Workload) -> Optional[FlowResult]:
        payload = self._store.get("result", self._result_store_key(workload))
        if payload is None:
            self._record_store_event("miss")
            return None
        try:
            result = FlowResult.from_dict(payload)
        except (KeyError, ValueError, TypeError):
            # schema drift inside the payload: recompute instead of crashing
            self._record_store_event("miss")
            return None
        self._record_store_event("hit")
        return result

    @property
    def cached_keys(self) -> List[Tuple]:
        """Characterization keys currently held by the session."""
        with self._registry_lock:
            return list(self._explorers)

    def evict(self, workload: Optional[Workload] = None) -> None:
        """Release cached state to bound memory in long-lived sessions.

        With a workload, drop only that workload's result and its
        validation evidence; its characterizations stay shared.  Without
        one, drop every result, every validation and every *idle* explorer
        — keys with runs in flight are left untouched — folding the
        synthesizer counters of evicted explorers into :attr:`stats` so
        accounting survives eviction.  The result and validation layers
        also evict on their own once they hold their capacity.
        """
        if workload is not None:
            self._results.discard_if(lambda key: key == workload)
            # the plain key and every (workload, window_side, mode) key
            self._validations.discard_if(
                lambda key: key == workload or (isinstance(key, tuple)
                                                and key[0] == workload))
            return
        self._results.clear()
        self._validations.clear()
        with self._registry_lock:
            # Keys with work in flight keep their explorer, so a concurrent
            # run never loses its synthesis accounting.
            for key in [k for k in self._explorers
                        if k not in self._active_keys]:
                explorer = self._explorers.pop(key)
                with self._stats_lock:
                    self._fold_explorer(self._stats, explorer)
            # _key_locks is deliberately kept: an in-flight run may hold one
            # of these locks, and a post-evict rebuild of the same key must
            # serialize against it rather than against a fresh lock.

    # ------------------------------------------------------------------ #
    # execution

    def _mark_active(self, key: Tuple, delta: int) -> None:
        with self._registry_lock:
            count = self._active_keys.get(key, 0) + delta
            if count > 0:
                self._active_keys[key] = count
            else:
                self._active_keys.pop(key, None)

    @contextlib.contextmanager
    def _stage(self, workload: Workload, stage: str) -> Iterator[None]:
        """Run the with-block as one stage of the flow: the
        ``stage-started`` event, the ``stage.<name>`` span, then the
        stage-latency observation and the ``stage-finished`` event (neither
        when the stage raises)."""
        self._emit("stage-started", workload, stage=stage)
        started = time.perf_counter()
        with obs_trace.span(f"stage.{stage}", workload=workload.name):
            yield
        elapsed = time.perf_counter() - started
        obs_metrics.registry().histogram(
            "repro_session_stage_seconds").observe(elapsed)
        self._emit("stage-finished", workload, stage=stage, elapsed_s=elapsed)

    def _account(self, workload: Workload,
                 serve: Callable[[], Tuple[Any, Optional[str]]]) -> Any:
        """Serve one workload request through ``serve``, which returns the
        result and what served it as a cache-hit detail (``None``:
        computed), with the ``workload-*`` and ``cache-hit`` events and the
        run, failure and time counters."""
        started = time.perf_counter()
        self._emit("workload-started", workload)
        try:
            result, hit = serve()
        except Exception as error:
            with self._stats_lock:
                self._stats.workloads_failed += 1
            self._emit("workload-failed", workload,
                       elapsed_s=time.perf_counter() - started,
                       detail=str(error))
            raise
        elapsed = time.perf_counter() - started
        with self._stats_lock:
            self._stats.workloads_run += 1
            self._stats.workload_time_s += elapsed
        if hit is not None:
            self._emit("cache-hit", workload, detail=hit)
        self._emit("workload-finished", workload, elapsed_s=elapsed)
        return result

    def run(self, workload: Workload) -> FlowResult:
        """Run one workload through the flow and return its
        :class:`FlowResult`.

        The result comes from the result layer when this session holds
        one for an equal workload, else from the store, else from running
        the stages ``frontend`` to ``pareto``; workloads sharing a
        characterization key share its cone characterizations.  Each call
        returns a fresh result wrapper with freshly copied point/Pareto
        lists, so in-place reordering or filtering by one caller never
        corrupts the cache or another caller's view.  An in-memory
        exploration builds only its Pareto members' design points: the
        other admitted points are built on the first read of
        ``design_points``, once per computed result, however many callers
        share it (each still reads a list of its own).  Treat the shared
        entries themselves (individual characterizations, the kernel
        properties, the design points) as read-only.
        """
        with obs_trace.span("session.run", workload=workload.name):
            return _defensive_copy(
                self._account(workload, lambda: self._result(workload)))

    def _result(self, workload: Workload
                ) -> Tuple[FlowResult, Optional[str]]:
        """The workload's shared result, and what served it as a cache-hit
        detail (``None``: computed with new synthesis).

        The result layer first, then the store, then the stages; a result
        from either of the latter enters the result layer.
        """
        result = self._results.get(workload)
        if result is not None:
            return result, "session memory: full flow result"
        if self._store is not None:
            result = self._load_stored_result(workload)
            if result is not None:
                self._results.put(workload, result)
                return result, "persistent store: full flow result"
        result, characterization_hit = self._compute(workload)
        self._results.put(workload, result)
        if self._store is not None:
            # a racing caller (thread or process) may have filed it
            # already; rewriting an artifact would only churn the disk
            key_string = self._result_store_key(workload)
            if not self._store.has("result", key_string):
                written = self._store.put("result", key_string,
                                          result.to_dict())
                if written is not None:
                    self._record_store_event("write")
        return result, ("shared cone characterization"
                        if characterization_hit else None)

    def _compute(self, workload: Workload) -> Tuple[FlowResult, bool]:
        """Run the stages ``frontend`` to ``pareto`` over the key's shared
        explorer; returns the result and whether its characterization was a
        cache hit."""
        key = workload.characterization_key()
        # Mark the key in flight before the explorer becomes reachable,
        # so a concurrent evict() can never fold-and-drop an explorer this
        # run is about to use.
        self._mark_active(key, +1)
        try:
            # Serialize the stages through characterize across workloads
            # sharing a key, so the expensive synthesis/calibration work
            # happens exactly once while per-frame explorations still run
            # in parallel.  Stage events raised inside the lock are
            # buffered and delivered after release.
            with self._locked_section(), self._key_lock(key):
                with self._stage(workload, "frontend"):
                    kernel = workload.resolve_kernel()
                with self._stage(workload, "analyze"):
                    try:
                        # built on the key's first run, validating the kernel
                        explorer = self.explorer_for(workload)
                    except KernelValidationError as error:
                        raise pipeline.PipelineError(str(error)) from error
                    pipeline.check_analysis(kernel, explorer)
                with self._stage(workload, "characterize"):
                    runs_before = explorer.synthesizer.runs
                    try:
                        explorer.characterize_cones(workload.iterations)
                    except ConstantFoldError as error:
                        raise pipeline.PipelineError(
                            f"kernel {kernel.name!r}: {error}") from error
                    # Ground-truth accounting: a hit means this run's
                    # characterization needed no new synthesis — partial
                    # reuse (e.g. new depth families for a higher iteration
                    # count) honestly counts as a miss.
                    hit = explorer.synthesizer.runs == runs_before
            with self._stats_lock:
                if hit:
                    self._stats.characterization_cache_hits += 1
                else:
                    self._stats.characterization_cache_misses += 1
            with self._stage(workload, "explore"):
                exploration = explorer.explore(
                    total_iterations=workload.iterations,
                    frame_width=workload.frame_width,
                    frame_height=workload.frame_height,
                    constraints=workload.constraints,
                    onchip_port_elements_per_cycle=(
                        workload.onchip_port_elements_per_cycle),
                    stream=workload.stream,
                )
            with self._stage(workload, "pareto"):
                result = FlowResult(kernel=kernel,
                                    properties=explorer.properties,
                                    invariance=explorer.invariance,
                                    exploration=exploration,
                                    options=workload.options())
            return result, hit
        finally:
            self._mark_active(key, -1)

    def validate(self, workload: Workload, *,
                 window_side: Optional[int] = None,
                 mode: str = "region") -> ValidationResult:
        """Validate ``workload``: simulate the cone architecture on its frame
        geometry and compare against the golden model, returning the
        :class:`~repro.simulation.validation.ValidationResult` evidence.

        Validation is pure and deterministic, so equal ``(workload,
        window_side, mode)`` requests are served from the validation layer
        while it holds them (announced with a ``cache-hit`` event) and
        count toward the same run/time statistics as :meth:`run`.  The
        result is immutable — safe to share across callers.
        """
        cache_key: Any = workload
        if window_side is not None or mode != "region":
            # Non-default knobs get their own entries; the plain-workload
            # key stays reserved for the service's canonical validation.
            cache_key = (workload, window_side, mode)

        def serve() -> Tuple[ValidationResult, Optional[str]]:
            cached = self._validations.get(cache_key)
            if cached is not None:
                return cached, "validation evidence"
            validation = validate_workload(workload, window_side=window_side,
                                           mode=mode)
            self._validations.put(cache_key, validation)
            return validation, None

        with obs_trace.span("session.validate", workload=workload.name,
                            mode=mode):
            return self._account(workload, serve)

    def run_many(self, workloads: Sequence[Workload]) -> List[FlowResult]:
        """Run a batch of workloads through :meth:`run`, sharing
        characterizations across them.

        The workloads run in input order on the calling thread, and the
        results come back in that order.  A failing workload does not stop
        the batch: every later one still runs (and is cached), and the
        earliest failure is re-raised after the last.  A caller can
        therefore replay the batch through :meth:`run` to attribute each
        failure; the completed members are cache hits while the result
        layer still holds them (the last :data:`RESULT_CACHE_CAPACITY`),
        store hits on a store-backed session, and recomputed (over the
        shared characterizations) otherwise.
        """
        workloads = list(workloads)
        if not workloads:
            return []
        results: List[FlowResult] = []
        failure: Optional[Exception] = None
        with obs_trace.span("session.run_many", workloads=len(workloads)):
            for workload in workloads:
                try:
                    results.append(self.run(workload))
                except Exception as error:
                    if failure is None:
                        failure = error
            if failure is not None:
                raise failure
        return results

    def generate_vhdl(self, workload: Workload,
                      point: Optional[DesignPoint] = None) -> Dict[str, str]:
        """Run the codegen stage over the workload's result: the VHDL files
        of ``point``, by default the best fitting point, else the smallest.

        The result is looked up exactly as :meth:`run` does (result layer,
        store, compute), so after a run that the result layer still holds,
        or on a store that has the result, only the codegen stage runs.
        Codegen emits stage events only (no ``workload-*`` or
        ``cache-hit`` events) and counts no workload.
        """
        result, _ = self._result(workload)
        with self._stage(workload, "codegen"):
            if point is None:
                point = result.best_fitting_point() or result.smallest_point()
            if point is None:
                raise pipeline.PipelineError(
                    "codegen needs a design point, but the exploration "
                    "produced none (constraints too tight?)")
            return pipeline.generate_vhdl_files(
                kernel=workload.resolve_kernel(),
                params=workload.params_dict(),
                data_format=workload.data_format,
                point=point,
            )

    # ------------------------------------------------------------------ #
    # accounting

    @property
    def stats(self) -> SessionStats:
        """Aggregated counters, including synthesizer totals of every cached
        explorer."""
        # registry -> stats nesting (same order as evict's fold), so a
        # concurrent evict() can never fold an explorer's counters into
        # _stats between our base snapshot and our explorer listing —
        # which would drop that explorer's synthesis totals from the view
        with self._registry_lock:
            with self._stats_lock:
                # full-field snapshot (includes counters folded in from
                # explorers evicted earlier)
                stats = dataclasses.replace(self._stats)
            explorers = list(self._explorers.values())
        for explorer in explorers:
            self._fold_explorer(stats, explorer)
        return stats

    @staticmethod
    def _fold_explorer(stats: SessionStats,
                       explorer: DesignSpaceExplorer) -> None:
        """Fold one explorer's synthesizer counters into a stats object."""
        stats.synthesis_runs += explorer.synthesizer.runs
        stats.tool_runtime_spent_s += explorer.synthesizer.total_tool_runtime_s
        stats.tool_runtime_avoided_s += explorer.tool_runtime_avoided_total_s()


def _defensive_copy(result: Any) -> Any:
    """Fresh result wrapper with copied containers over shared entries.

    Shields the result layer from in-place mutation of the containers
    callers naturally reorder/filter; the frozen design points and the
    (read-only by contract) characterization entries stay shared.  Design
    points that no caller has read yet stay unbuilt: the copy shares the
    result's builder, which builds them once, on the first read by any
    holder, and gives each holder a list of its own.  Other results
    (immutable validation evidence) pass through.
    """
    if not isinstance(result, FlowResult):
        return result
    exploration = result.exploration
    return dataclasses.replace(result, exploration=dataclasses.replace(
        exploration,
        characterizations=dict(exploration.characterizations),
        design_points=unread_points(exploration),
        pareto=list(exploration.pareto),
        area_validations=dict(exploration.area_validations),
    ))
