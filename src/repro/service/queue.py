"""The coalescing, first-in-first-out job queue.

Two data structures under one lock:

* a deque of queued jobs — the dispatch order: submission order;
* an *in-flight index* mapping each queued or running job's
  :class:`~repro.api.workload.Workload` to its :class:`Job` — the
  coalescing table.  :class:`Workload` equality covers the
  characterization key, the kernel fingerprint, and every per-run knob
  (frame geometry, iterations, constraints), so two
  submissions coalesce exactly when a direct ``Session.run`` would return
  the same :class:`~repro.api.results.FlowResult` for both.

A coalesced submission keeps its job's place in line.  A queued job
leaves the deque only when :meth:`next_job` dispatches it, or when
:meth:`close` cancels the backlog.

The queue is optionally *bounded* (``max_pending``): once that many jobs
are queued, further non-coalescing submissions are **shed** with
:class:`~repro.service.jobs.QueueFullError` instead of growing the
backlog without limit — the HTTP transport turns that into ``503`` with a
``Retry-After`` header, and well-behaved clients back off and resubmit.
Coalescing submissions are always admitted (they add no work), so a
saturated queue still deduplicates.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from typing import Deque, Dict, Optional, Tuple

from repro.api.workload import Workload
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.service.jobs import (
    Job,
    QueueFullError,
    ServiceClosedError,
    UnknownJobError,
    parse_job_kind,
)

#: How many terminal jobs are remembered for late ``status``/``result``
#: calls before the oldest are forgotten (in-flight jobs never expire).
#: A terminal job holds its result, so this also bounds the results a
#: worker keeps beside its session's own result layer.
HISTORY_LIMIT = 128

#: ``Retry-After`` suggested by a shedding queue (seconds): the base hint
#: plus this much per already-queued job, capped.  Deterministic — tests
#: and clients can reason about it.
SHED_RETRY_AFTER_BASE_S = 1.0
SHED_RETRY_AFTER_PER_JOB_S = 0.25
SHED_RETRY_AFTER_CAP_S = 30.0


class JobQueue:
    """Thread-safe FIFO job queue with request coalescing (see module doc).

    ``max_pending`` bounds the queued backlog (``None`` = unbounded): a
    non-coalescing submission that would exceed it is shed with
    :class:`QueueFullError` carrying a deterministic ``retry_after_s``
    hint that grows with queue depth.  Terminal jobs stay collectable
    until :data:`HISTORY_LIMIT` newer ones finished; queued and running
    jobs are never forgotten.
    """

    def __init__(self, max_pending: Optional[int] = None) -> None:
        if max_pending is not None and max_pending < 1:
            raise ValueError(
                f"max_pending must be >= 1 or None (got {max_pending})")
        self._max_pending = max_pending
        self._lock = threading.Lock()
        self._has_work = threading.Condition(self._lock)
        #: Queued jobs in submission order (the dispatch order).
        self._queued: Deque[Job] = deque()
        #: Coalescing index: (job kind, workload) -> its queued-or-running
        #: job.  Keying on the kind keeps an exploration and a validation
        #: of the same workload apart — their results are different types.
        self._inflight: Dict[Tuple[str, Workload], Job] = {}
        #: Every remembered job by id (bounded terminal history).
        self._jobs: Dict[str, Job] = {}
        self._terminal_order: Deque[str] = deque()
        self._ids = itertools.count(1)
        self._closed = False
        # lifetime counters (monotonic; read via stats_snapshot)
        self._submitted = 0
        self._coalesced = 0
        self._cancelled = 0
        self._completed = 0
        self._failed = 0
        self._shed = 0

    # ------------------------------------------------------------------ #
    # submission / coalescing

    def submit(self, workload: Workload,
               kind: Optional[str] = None) -> Tuple[Job, bool]:
        """File a workload; returns ``(job, coalesced)``.

        ``kind`` selects the job class (``explore``, the default, or
        ``validate``).  An identical in-flight workload *of the same kind*
        coalesces: the existing job is returned with ``coalesced=True``
        and keeps its place in line.
        """
        kind = parse_job_kind(kind)
        with self._has_work:
            if self._closed:
                raise ServiceClosedError(
                    "the service is draining and accepts no new jobs")
            job = self._inflight.get((kind, workload))
            if job is None and self._max_pending is not None:
                pending = len(self._queued)
                if pending >= self._max_pending:
                    self._shed += 1
                    retry_after = min(
                        SHED_RETRY_AFTER_CAP_S,
                        SHED_RETRY_AFTER_BASE_S
                        + pending * SHED_RETRY_AFTER_PER_JOB_S)
                    raise QueueFullError(
                        f"queue full ({pending} jobs pending, bound "
                        f"{self._max_pending}); retry in ~{retry_after:.1f}s",
                        retry_after_s=retry_after)
            self._submitted += 1
            if job is not None:
                job.coalesced += 1
                self._coalesced += 1
                return job, True
            job = Job(id=f"job-{next(self._ids)}", workload=workload,
                      kind=kind)
            if obs_trace.enabled():
                # one span per server-side job, parented to whatever is
                # current on the submitting thread — the HTTP handler's
                # adopted X-Repro-Trace context, or an in-process
                # caller's span.  Attached under the lock, before the
                # job is queued, so the dispatcher can never pop a job
                # whose trace context is still missing.  Finished at the
                # terminal transition.
                span = obs_trace.start_span("service.job", job_id=job.id,
                                            kind=kind,
                                            workload=workload.name)
                job.span = span
                job.trace_context = span.context_payload()
            self._jobs[job.id] = job
            self._inflight[(kind, workload)] = job
            self._queued.append(job)
            self._has_work.notify_all()
            return job, False

    def job(self, job_id: str) -> Job:
        """The job named ``job_id`` (raises :class:`UnknownJobError`)."""
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJobError(
                f"unknown job {job_id!r} (completed jobs are remembered "
                f"for the last {HISTORY_LIMIT} terminals)")
        return job

    # ------------------------------------------------------------------ #
    # dispatch

    def next_job(self) -> Optional[Job]:
        """Pop the next job to run, blocking until one is queued.

        The next job is the oldest queued one, and is returned already
        ``running``.  Returns ``None`` once the queue is closed and drained
        (the scheduler's exit signal).
        """
        with self._has_work:
            while not self._queued:
                if self._closed:
                    return None
                self._has_work.wait()
            job = self._queued.popleft()
            job.state = "running"
            job.started_at = time.time()
            waited = job.started_at - job.submitted_at
            obs_metrics.registry().histogram(
                "repro_service_queue_wait_seconds").observe(waited)
            if job.span is not None:
                job.span.set_attribute("queue_wait_s", waited)
            return job

    # ------------------------------------------------------------------ #
    # completion (called by the scheduler)

    def finish(self, job: Job, result) -> None:
        """Mark a running job done and deliver its result to every waiter."""
        with self._has_work:
            job.result = result
            self._make_terminal(job, "done")
            self._completed += 1

    def fail(self, job: Job, error: BaseException) -> None:
        """Mark a running job failed (the error reaches every requester)."""
        with self._has_work:
            job.error = error
            self._make_terminal(job, "failed")
            self._failed += 1

    def _make_terminal(self, job: Job, state: str) -> None:
        job.state = state
        job.finished_at = time.time()
        if job.span is not None:
            # single funnel for every terminal transition, so the job span
            # closes exactly once whether the job finished, failed, or was
            # cancelled by a non-draining close
            job.span.set_attribute("state", state)
            if state == "failed" and job.error is not None:
                job.span.set_error(job.error)
            job.span.finish()
            job.span = None
        if self._inflight.get((job.kind, job.workload)) is job:
            del self._inflight[(job.kind, job.workload)]
        self._terminal_order.append(job.id)
        while len(self._terminal_order) > HISTORY_LIMIT:
            forgotten = self._terminal_order.popleft()
            old = self._jobs.get(forgotten)
            if old is not None and old.done():
                del self._jobs[forgotten]
        job._done.set()

    # ------------------------------------------------------------------ #
    # shutdown / introspection

    def close(self, cancel_pending: bool = False) -> None:
        """Refuse new submissions; optionally cancel everything queued.

        With ``cancel_pending`` every still-queued job turns ``cancelled``
        (their waiters are released immediately); without it the scheduler
        keeps draining until :meth:`next_job` returns ``None``.
        """
        with self._has_work:
            self._closed = True
            while cancel_pending and self._queued:
                self._make_terminal(self._queued.popleft(), "cancelled")
                self._cancelled += 1
            self._has_work.notify_all()

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def pending_count(self) -> int:
        """Jobs waiting for dispatch."""
        with self._lock:
            return len(self._queued)

    def running_count(self) -> int:
        with self._lock:
            return sum(1 for job in self._inflight.values()
                       if job.state == "running")

    def stats_snapshot(self) -> Dict[str, object]:
        """Atomic JSON-ready view of the queue counters.

        ``coalesce_hit_rate`` is the fraction of submissions served by an
        already-in-flight computation — the service's headline dedup
        figure.
        """
        with self._lock:
            submitted = self._submitted
            pending = len(self._queued)
            running = sum(1 for job in self._inflight.values()
                          if job.state == "running")
            return {
                "submitted": submitted,
                "coalesced": self._coalesced,
                "coalesce_hit_rate": (self._coalesced / submitted
                                      if submitted else 0.0),
                "completed": self._completed,
                "failed": self._failed,
                "cancelled": self._cancelled,
                "shed": self._shed,
                "max_pending": self._max_pending,
                "pending": pending,
                "running": running,
            }
