"""Sessions: cached, batched execution of workloads.

A :class:`Session` owns a characterization/calibration cache keyed by
:meth:`Workload.characterization_key` — ``(kernel fingerprint, device, data
format, cone-shape knobs)``.  Workloads that share a key share one
:class:`DesignSpaceExplorer` (and hence its synthesizer and its per-iteration
characterization cache), so exploring the same kernel on several frame sizes,
or sweeping constraints, never re-synthesizes a cone shape that has already
been characterized.

:meth:`Session.run_many` runs a batch in input order on the calling thread:
the flow is pure Python, so a thread pool would only add interpreter-lock
contention, and every workload of a shared key reuses the first one's
characterization anyway.  A failing workload does not stop the batch; the
earliest failure is re-raised after the last workload ran.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
import time
from dataclasses import dataclass
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple,
                    Union)

from repro.api.pipeline import (
    Pipeline,
    PipelineError,
    STAGE_NAMES,
    build_explorer,
)
from repro.api.results import FlowResult
from repro.api.store import ArtifactStore, CharacterizationStoreAdapter
from repro.api.workload import Workload
from repro.dse.design_point import DesignPoint
from repro.dse.explorer import DesignSpaceExplorer, ExplorationResult
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.simulation.validation import ValidationResult, validate_workload


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


def _event(kind: str, workload: Workload, stage: Optional[str] = None,
           elapsed_s: Optional[float] = None, detail: str = "") \
        -> SessionEvent:
    """Build an event stamped with the enclosing span's identity."""
    trace_id, span_id = obs_trace.current_ids()
    return SessionEvent(kind, workload, stage=stage, elapsed_s=elapsed_s,
                        detail=detail, trace_id=trace_id, span_id=span_id)


@dataclass
class SessionStats:
    """Aggregate accounting across every workload a session has run."""

    workloads_run: int = 0
    workloads_failed: int = 0
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
    """Runs workloads through the staged pipeline with process-wide caching.

    With ``store`` (a directory path or an :class:`ArtifactStore`), caching
    extends across processes: cone characterizations and full flow results
    are mirrored to disk, so a later session — or a ``python -m repro``
    rerun — pointed at the same store completes the same workloads with zero
    synthesizer invocations (observable as ``stats.store_disk_hits`` with
    ``stats.synthesis_runs == 0``).  Without a store (the default), caching
    stays in-memory exactly as before.

    Sessions are safe for concurrent :meth:`run` callers (the service tier
    shares one session across every request thread): the cache registries
    are guarded by an internal lock, racing threads on one cold
    characterization key serialize on that key's lock so the synthesis
    happens exactly once, and the statistics counters take a dedicated
    stats lock so no increment is ever lost to a read-modify-write race.
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
        self._pipelines: Dict[Workload, Pipeline] = {}
        #: Results restored from the persistent store, promoted here so
        #: same-session reruns are memory hits (no repeat disk reads).
        self._restored_results: Dict[Workload, FlowResult] = {}
        #: Validation evidence per workload; validation is deterministic so
        #: equal workloads share one immutable result.
        self._validations: Dict[Workload, ValidationResult] = {}
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

    def _emit(self, event: SessionEvent) -> None:
        pending = getattr(self._deferred, "pending", None)
        if pending is not None:
            pending.append(event)
            return
        with self._callbacks_lock:
            callbacks = list(self._callbacks)
        for callback in callbacks:
            callback(event)

    def _locked_section(self):
        """Context manager buffering events raised inside internal locks."""
        return _DeferredEvents(self)

    # ------------------------------------------------------------------ #
    # characterization cache

    def explorer_for(self, workload: Workload) -> DesignSpaceExplorer:
        """The cached explorer for a workload's characterization key.

        Escape hatch for direct explorer use.  Unlike :meth:`run`, work done
        on the returned object is not guarded against a concurrent
        :meth:`evict` (its counters may be folded out from under it); on
        sessions shared across threads, prefer :meth:`run`.
        """
        explorer, _ = self._explorer_entry(workload)
        return explorer

    def _explorer_entry(self, workload: Workload
                        ) -> Tuple[DesignSpaceExplorer, threading.Lock]:
        """Cached (explorer, lock) pair for the workload's key."""
        key = workload.characterization_key()
        with self._registry_lock:
            explorer = self._explorers.get(key)
            # Key locks outlive eviction (see evict()), so grab the lock
            # while still holding the registry lock.
            lock = self._key_locks.setdefault(key, threading.Lock())
        if explorer is None:
            # Build outside the registry lock — kernel validation and
            # footprint analysis would otherwise serialize batch startup
            # across distinct kernels.  A duplicate build from a racing
            # thread is discarded by setdefault (it performs no synthesis).
            built = build_explorer(
                workload, family_store=self._family_store_for(workload))
            with self._registry_lock:
                explorer = self._explorers.setdefault(key, built)
        return explorer, lock

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

        With a workload, drop only that workload's pipeline (its result and
        stage artifacts) and its validation evidence; its characterizations
        stay shared.  Without one, drop every pipeline, every validation
        and every *idle* explorer — keys with runs in
        flight are left untouched — folding the synthesizer counters of
        evicted explorers into :attr:`stats` so accounting survives
        eviction.
        """
        with self._registry_lock:
            if workload is not None:
                self._pipelines.pop(workload, None)
                self._restored_results.pop(workload, None)
                # the plain key and every (workload, window_side, mode) key
                for key in [key for key in self._validations
                            if key == workload or (isinstance(key, tuple)
                                                   and key[0] == workload)]:
                    del self._validations[key]
                return
            self._pipelines.clear()
            self._restored_results.clear()
            self._validations.clear()
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

    def pipeline(self, workload: Workload) -> Pipeline:
        """The pipeline over the workload wired to this session's cache.

        Pipelines are cached per workload, so stages already run for an
        equal workload (analyze, explore, ...) are not executed again by
        later calls such as :meth:`generate_vhdl`.
        """
        explorer, _ = self._explorer_entry(workload)
        with self._registry_lock:
            pipeline = self._pipelines.get(workload)
            if pipeline is None:

                def observe(stage: str, status: str,
                            elapsed: Optional[float]) -> None:
                    if status == "finished" and elapsed is not None:
                        obs_metrics.registry().histogram(
                            "repro_session_stage_seconds").observe(elapsed)
                    self._emit(_event(f"stage-{status}", workload,
                                      stage=stage, elapsed_s=elapsed))

                pipeline = Pipeline(workload, explorer=explorer,
                                    observer=observe)
                self._pipelines[workload] = pipeline
        return pipeline

    def _mark_active(self, key: Tuple, delta: int) -> None:
        with self._registry_lock:
            count = self._active_keys.get(key, 0) + delta
            if count > 0:
                self._active_keys[key] = count
            else:
                self._active_keys.pop(key, None)

    def run(self, workload: Workload, until: str = "pareto") -> Any:
        """Run one workload through the pipeline stage ``until`` (default:
        Pareto extraction) and return that stage's artifact — a
        :class:`FlowResult` for the default, the respective stage artifact
        (kernel, analysis dict, :class:`ExplorationResult`, ...) otherwise.

        The heavy artifacts (design points, characterizations) of equal
        workloads are cached and shared, but each call returns a fresh
        result wrapper with freshly copied point/Pareto lists, so in-place
        reordering or filtering by one caller never corrupts the cache or
        another caller's view.  Treat the shared entries themselves
        (individual characterizations) as read-only.
        """
        if until not in STAGE_NAMES:
            raise PipelineError(
                f"unknown stage {until!r}; stages are "
                f"{', '.join(STAGE_NAMES)}")
        with obs_trace.span("session.run", workload=workload.name,
                            until=until):
            return self._run_traced(workload, until)

    def _run_traced(self, workload: Workload, until: str) -> Any:
        started = time.perf_counter()
        key = workload.characterization_key()
        self._emit(_event("workload-started", workload))
        memory_hit = False
        try:
            # The in-memory caches stay the first level: the store is
            # consulted only for a workload this session has neither
            # computed through `pareto` nor already restored, and a restored
            # result is promoted into memory so same-session reruns never
            # re-read the disk.
            stored: Optional[FlowResult] = None
            if until == "pareto":
                detail = "restored result: full flow result"
                with self._registry_lock:
                    cached_pipeline = self._pipelines.get(workload)
                    memory_hit = (cached_pipeline is not None
                                  and cached_pipeline.has_run("pareto"))
                    stored = self._restored_results.get(workload)
                if (stored is None and not memory_hit
                        and self._store is not None):
                    stored = self._load_stored_result(workload)
                    if stored is not None:
                        detail = "persistent store: full flow result"
                        with self._registry_lock:
                            stored = self._restored_results.setdefault(
                                workload, stored)
                if stored is not None:
                    elapsed = time.perf_counter() - started
                    with self._stats_lock:
                        self._stats.workloads_run += 1
                        self._stats.workload_time_s += elapsed
                    self._emit(_event("cache-hit", workload,
                                            detail=detail))
                    self._emit(_event("workload-finished", workload,
                                            elapsed_s=elapsed))
                    return _defensive_copy(stored)
            # Mark the key in flight before the explorer becomes reachable,
            # so a concurrent evict() can never fold-and-drop an explorer
            # this run is about to use.
            self._mark_active(key, +1)
            try:
                explorer, lock = self._explorer_entry(workload)
                pipeline = self.pipeline(workload)
                needs_characterization = (STAGE_NAMES.index(until)
                                          >= STAGE_NAMES.index("characterize"))
                if needs_characterization:
                    # Serialize only the characterize stage across workloads
                    # sharing a key, so the expensive synthesis/calibration
                    # work happens exactly once while per-frame explorations
                    # still run in parallel.  Events raised inside the lock
                    # are buffered and delivered after release.
                    with self._locked_section(), lock:
                        runs_before = explorer.synthesizer.runs
                        pipeline.run_stage("characterize")
                        # Ground-truth accounting: a hit means this run's
                        # characterization needed no new synthesis — partial
                        # reuse (e.g. new depth families for a higher
                        # iteration count) honestly counts as a miss.
                        hit = explorer.synthesizer.runs == runs_before
                        with self._stats_lock:
                            if hit:
                                self._stats.characterization_cache_hits += 1
                            else:
                                self._stats.characterization_cache_misses += 1
                        if hit:
                            self._emit(_event(
                                "cache-hit", workload,
                                detail="shared cone characterization"))
                result = _defensive_copy(pipeline.run_stage(until))
            finally:
                self._mark_active(key, -1)
        except Exception as error:
            with self._stats_lock:
                self._stats.workloads_failed += 1
            self._emit(_event("workload-failed", workload,
                                    elapsed_s=time.perf_counter() - started,
                                    detail=str(error)))
            raise
        if (self._store is not None and until == "pareto"
                and isinstance(result, FlowResult)):
            # Gate on existence, not on how this run was served: the pareto
            # stage may have first run as a prerequisite of generate_vhdl
            # (a memory hit here with nothing on disk yet), and rewriting an
            # artifact that is already present would only churn the disk.
            key_string = self._result_store_key(workload)
            if not self._store.has("result", key_string):
                written = self._store.put("result", key_string,
                                          result.to_dict())
                if written is not None:
                    self._record_store_event("write")
        elapsed = time.perf_counter() - started
        with self._stats_lock:
            self._stats.workloads_run += 1
            self._stats.workload_time_s += elapsed
        self._emit(_event("workload-finished", workload,
                                elapsed_s=elapsed))
        return result

    def validate(self, workload: Workload, *,
                 window_side: Optional[int] = None,
                 mode: str = "region") -> ValidationResult:
        """Validate ``workload``: simulate the cone architecture on its frame
        geometry and compare against the golden model, returning the
        :class:`~repro.simulation.validation.ValidationResult` evidence.

        Validation is pure and deterministic, so equal ``(workload,
        window_side, mode)`` requests are served from an in-memory cache
        (announced with a ``cache-hit`` event) and count toward the same
        run/time statistics as :meth:`run`.  The result is immutable — safe
        to share across callers.
        """
        with obs_trace.span("session.validate", workload=workload.name,
                            mode=mode):
            return self._validate_traced(workload, window_side=window_side,
                                         mode=mode)

    def _validate_traced(self, workload: Workload, *,
                         window_side: Optional[int],
                         mode: str) -> ValidationResult:
        started = time.perf_counter()
        self._emit(_event("workload-started", workload))
        try:
            cache_key = workload
            if window_side is not None or mode != "region":
                # Non-default knobs get their own entries; the plain-workload
                # key stays reserved for the service's canonical validation.
                cache_key = (workload, window_side, mode)  # type: ignore[assignment]
            with self._registry_lock:
                cached = self._validations.get(cache_key)
            hit = cached is not None
            if cached is None:
                result = validate_workload(workload, window_side=window_side,
                                           mode=mode)
                with self._registry_lock:
                    cached = self._validations.setdefault(cache_key, result)
        except Exception as error:
            with self._stats_lock:
                self._stats.workloads_failed += 1
            self._emit(_event("workload-failed", workload,
                                    elapsed_s=time.perf_counter() - started,
                                    detail=str(error)))
            raise
        elapsed = time.perf_counter() - started
        with self._stats_lock:
            self._stats.workloads_run += 1
            self._stats.workload_time_s += elapsed
        if hit:
            self._emit(_event("cache-hit", workload,
                                    detail="validation evidence"))
        self._emit(_event("workload-finished", workload,
                                elapsed_s=elapsed))
        return cached

    def run_many(self, workloads: Sequence[Workload]) -> List[FlowResult]:
        """Run a batch of workloads through :meth:`run`, sharing
        characterizations across them.

        The workloads run in input order on the calling thread, and the
        results come back in that order.  A failing workload does not stop
        the batch: every later one still runs (and is cached), and the
        earliest failure is re-raised after the last.  A caller can
        therefore replay the batch through :meth:`run` to attribute each
        failure, the completed members being cache hits.
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

    def _emit_batch_event(self, kind: str, workload: Workload,
                          elapsed_s: Optional[float] = None,
                          detail: str = "") -> None:
        """Emit a lifecycle event on behalf of the service tier (the
        ``job-*`` kinds of :mod:`repro.service`)."""
        self._emit(_event(kind, workload, elapsed_s=elapsed_s,
                                detail=detail))

    def generate_vhdl(self, workload: Workload,
                      point: Optional[DesignPoint] = None,
                      fractional_bits: int = 12) -> Dict[str, str]:
        """Run the codegen stage for a workload (reusing cached stages)."""
        key = workload.characterization_key()
        self._mark_active(key, +1)
        try:
            _, lock = self._explorer_entry(workload)
            pipeline = self.pipeline(workload)
            # hold the key lock only for the shared characterize step, as
            # run() does; the pipeline's own lock serializes the rest, so
            # codegen for sibling workloads proceeds in parallel
            with self._locked_section(), lock:
                pipeline.run_stage("characterize")
            return pipeline.run_stage("codegen", point=point,
                                      fractional_bits=fractional_bits)
        finally:
            self._mark_active(key, -1)

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


class _DeferredEvents:
    """Buffers a session's events for the current thread, flushing on exit
    (outside whatever lock the with-block holds)."""

    def __init__(self, session: "Session") -> None:
        self._session = session
        self._outermost = False

    def __enter__(self) -> "_DeferredEvents":
        if getattr(self._session._deferred, "pending", None) is None:
            self._session._deferred.pending = []
            self._outermost = True
        return self

    def __exit__(self, *exc_info: Any) -> None:
        if not self._outermost:
            return
        pending = self._session._deferred.pending
        self._session._deferred.pending = None
        for event in pending:
            self._session._emit(event)


def _defensive_copy(artifact: Any) -> Any:
    """Fresh wrapper with copied containers over shared entries.

    Shields the pipeline's cached stage artifacts from in-place mutation of
    the containers callers naturally reorder/filter; the frozen design
    points and the (read-only by contract) characterization entries stay
    shared.  Artifacts with no mutable containers (the kernel) pass through.
    """
    if isinstance(artifact, FlowResult):
        return dataclasses.replace(
            artifact, exploration=_defensive_copy(artifact.exploration))
    if isinstance(artifact, ExplorationResult):
        return dataclasses.replace(
            artifact,
            characterizations=dict(artifact.characterizations),
            design_points=list(artifact.design_points),
            pareto=list(artifact.pareto),
            area_validations=dict(artifact.area_validations),
        )
    if isinstance(artifact, dict):
        # one level of container copying: the characterize artifact nests
        # the dicts a caller would naturally filter
        return {key: (dict(value) if isinstance(value, dict)
                      else list(value) if isinstance(value, list) else value)
                for key, value in artifact.items()}
    return artifact


#: Lazily created process-wide session for library callers that want
#: cross-call characterization caching without passing a Session around.
#: (Each ``python -m repro`` invocation is its own process and builds its
#: own session instead.)
_default_session: Optional[Session] = None
_default_session_lock = threading.Lock()


def default_session() -> Session:
    """The process-wide shared session (created on first use)."""
    global _default_session
    with _default_session_lock:
        if _default_session is None:
            _default_session = Session()
        return _default_session
