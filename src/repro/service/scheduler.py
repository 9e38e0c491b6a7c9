"""The dispatcher: one queued job at a time through the shared session.

One daemon thread pops the :class:`~repro.service.queue.JobQueue` job by
job, in submission order, and runs each one alone before the next pop:
:meth:`Session.validate` for ``validate`` jobs, :meth:`Session.run` for
the rest.  So every job ends in its own ``done``/``failed`` state as soon
as its own run ends, runs (and fails) exactly once, and dispatches under
its own trace.
"""

from __future__ import annotations

import threading
import time
from typing import Optional

from repro.api.session import Session
from repro.obs import trace as obs_trace
from repro.service.jobs import Job
from repro.service.queue import JobQueue


class Scheduler:
    """Owns the dispatcher thread between a queue and a session."""

    def __init__(self, session: Session, queue: JobQueue) -> None:
        self._session = session
        self._queue = queue
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()

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
        are released with :class:`JobCancelledError`) and only the job
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
            job = self._queue.next_job()
            if job is None:
                return  # queue closed and fully drained
            self._run(job)

    def _run(self, job: Job) -> None:
        """Run one job through the session, with full accounting."""
        runner = (self._session.validate if job.kind == "validate"
                  else self._session.run)
        started = time.perf_counter()
        with obs_trace.adopt(job.trace_context):
            self._emit_job_event("job-started", job)
            try:
                with obs_trace.span("scheduler.dispatch"):
                    result = runner(job.workload)
            except Exception as error:
                self._queue.fail(job, error)
                self._emit_job_event(
                    "job-failed", job,
                    elapsed_s=time.perf_counter() - started,
                    detail=str(error))
            else:
                self._queue.finish(job, result)
                self._emit_job_event(
                    "job-finished", job,
                    elapsed_s=time.perf_counter() - started)

    def _emit_job_event(self, kind: str, job: Job,
                        elapsed_s: Optional[float] = None,
                        detail: str = "") -> None:
        """Stream a job-lifecycle event through the session's progress
        protocol (same callbacks, ``job-*`` kinds, job id in the detail)."""
        self._session._emit_batch_event(
            kind, job.workload, elapsed_s=elapsed_s,
            detail=detail or job.id)
