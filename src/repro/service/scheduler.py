"""The dispatcher: queue batches -> ``Session.run_many``.

One daemon thread drains the :class:`~repro.service.queue.JobQueue` and
routes each batch through the shared session:

* a batch of one is answered by :meth:`Session.run`;
* a larger batch goes through one :meth:`Session.run_many` call, which
  explores sibling scenarios (devices/formats/frames of one kernel family)
  in order over shared characterizations, so the family pays its
  synthesis once.

Failure attribution: ``run_many`` completes the whole batch before
re-raising the earliest failure, so on a batch error the scheduler replays
each member through ``Session.run`` — completed members are in-memory
cache hits (no recompute), failing members raise individually — and every
job ends in its own ``done``/``failed`` state.  One poisoned workload
never takes its batch siblings down.
"""

from __future__ import annotations

import threading
import time
from typing import Deque, Dict, List, Optional

from collections import deque

from repro.api.session import Session
from repro.obs import trace as obs_trace
from repro.service.jobs import Job
from repro.service.queue import JobQueue

#: How many recent batch sizes the stats ring buffer remembers.
BATCH_SIZE_HISTORY = 256


class Scheduler:
    """Owns the dispatcher thread between a queue and a session."""

    def __init__(self, session: Session, queue: JobQueue,
                 max_batch: int = 16,
                 batch_window_s: float = 0.0) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1 (got {max_batch})")
        self._session = session
        self._queue = queue
        self._max_batch = max_batch
        self._batch_window_s = batch_window_s
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        self._batches = 0
        self._batched_dispatches = 0  # batches with more than one job
        self._jobs_completed = 0
        self._jobs_failed = 0
        self._batch_sizes: Deque[int] = deque(maxlen=BATCH_SIZE_HISTORY)
        self._largest_batch = 0

    # ------------------------------------------------------------------ #
    # lifecycle

    def start(self) -> "Scheduler":
        """Start the dispatcher thread (idempotent)."""
        with self._lock:
            if self._thread is None or not self._thread.is_alive():
                self._thread = threading.Thread(
                    target=self._loop, name="repro-scheduler", daemon=True)
                self._thread.start()
        return self

    @property
    def running(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    def stop(self, drain: bool = True,
             timeout: Optional[float] = None) -> None:
        """Close the queue and wait for the dispatcher to exit.

        With ``drain`` (the default) every already-queued job is still
        executed; without it the queued jobs are cancelled (their waiters
        are released with :class:`JobCancelledError`) and only the batch
        already in flight finishes.
        """
        self._queue.close(cancel_pending=not drain)
        thread = self._thread
        if thread is not None and thread.is_alive():
            thread.join(timeout)

    def join(self, timeout: Optional[float] = None) -> None:
        thread = self._thread
        if thread is not None:
            thread.join(timeout)

    # ------------------------------------------------------------------ #
    # dispatch loop

    def _loop(self) -> None:
        while True:
            batch = self._queue.drain_batch(self._max_batch,
                                            linger_s=self._batch_window_s)
            if batch is None:
                return  # queue closed and fully drained
            if batch:
                self._dispatch(batch)

    def _dispatch(self, jobs: List[Job]) -> None:
        started = time.perf_counter()
        with self._lock:
            self._batches += 1
            self._batch_sizes.append(len(jobs))
            self._largest_batch = max(self._largest_batch, len(jobs))
            if len(jobs) > 1:
                self._batched_dispatches += 1
        for job in jobs:
            with obs_trace.adopt(job.trace_context):
                self._emit_job_event("job-started", job)
        # Partition by job class: validations run per-job through
        # Session.validate (each is one vectorized simulation — there is no
        # cross-job batching to exploit), explorations keep the
        # run/run_many batch semantics below.
        validations = [job for job in jobs if job.kind == "validate"]
        jobs = [job for job in jobs if job.kind != "validate"]
        for job in validations:
            self._run_single(job, self._session.validate)
        if not jobs:
            return
        try:
            if len(jobs) == 1:
                with obs_trace.adopt(jobs[0].trace_context):
                    with obs_trace.span("scheduler.dispatch", jobs=1):
                        results = [self._session.run(jobs[0].workload)]
            else:
                # a multi-job batch dispatches under the *first* job's
                # trace (one run_many call cannot belong to N traces);
                # every job still owns its service.job span and events
                with obs_trace.adopt(jobs[0].trace_context):
                    with obs_trace.span("scheduler.dispatch",
                                        jobs=len(jobs)):
                        results = self._session.run_many(
                            [job.workload for job in jobs])
        except Exception as error:
            if len(jobs) == 1:
                # nothing to attribute: fail the lone job directly instead
                # of paying the failed pipeline a second time in a replay
                context = jobs[0].trace_context
                self._queue.fail(jobs[0], error)
                with obs_trace.adopt(context):
                    self._emit_job_event(
                        "job-failed", jobs[0],
                        elapsed_s=time.perf_counter() - started,
                        detail=str(error))
                with self._lock:
                    self._jobs_failed += 1
            else:
                self._replay_individually(jobs)
            return
        elapsed = time.perf_counter() - started
        for job, result in zip(jobs, results):
            context = job.trace_context
            self._queue.finish(job, result)
            with obs_trace.adopt(context):
                self._emit_job_event("job-finished", job,
                                     elapsed_s=elapsed / len(jobs))
        with self._lock:
            self._jobs_completed += len(jobs)

    def _run_single(self, job: Job, runner) -> None:
        """Run one job through ``runner(workload)`` with full accounting."""
        started = time.perf_counter()
        try:
            with obs_trace.adopt(job.trace_context):
                with obs_trace.span("scheduler.dispatch", jobs=1):
                    result = runner(job.workload)
        except Exception as error:
            context = job.trace_context
            self._queue.fail(job, error)
            with obs_trace.adopt(context):
                self._emit_job_event(
                    "job-failed", job,
                    elapsed_s=time.perf_counter() - started,
                    detail=str(error))
            with self._lock:
                self._jobs_failed += 1
        else:
            context = job.trace_context
            self._queue.finish(job, result)
            with obs_trace.adopt(context):
                self._emit_job_event(
                    "job-finished", job,
                    elapsed_s=time.perf_counter() - started)
            with self._lock:
                self._jobs_completed += 1

    def _replay_individually(self, jobs: List[Job]) -> None:
        """Attribute a batch failure job by job (cache-hit replays)."""
        for job in jobs:
            self._run_single(job, self._session.run)

    def _emit_job_event(self, kind: str, job: Job,
                        elapsed_s: Optional[float] = None,
                        detail: str = "") -> None:
        """Stream a job-lifecycle event through the session's progress
        protocol (same callbacks, ``job-*`` kinds, job id in the detail)."""
        self._session._emit_batch_event(
            kind, job.workload, elapsed_s=elapsed_s,
            detail=detail or job.id)

    # ------------------------------------------------------------------ #
    # introspection

    def stats_snapshot(self) -> Dict[str, object]:
        """Atomic JSON-ready view of the dispatch counters."""
        with self._lock:
            sizes = list(self._batch_sizes)
            return {
                "max_batch": self._max_batch,
                "batch_window_s": self._batch_window_s,
                "batches": self._batches,
                "batched_dispatches": self._batched_dispatches,
                "largest_batch": self._largest_batch,
                "mean_batch_size": (sum(sizes) / len(sizes)
                                    if sizes else 0.0),
                "recent_batch_sizes": sizes,
                "jobs_completed": self._jobs_completed,
                "jobs_failed": self._jobs_failed,
            }
