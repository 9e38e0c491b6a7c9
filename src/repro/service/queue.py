"""The coalescing, priority-classed job queue.

Two data structures under one lock:

* a binary heap ordered by ``(priority, sequence)`` — the dispatch order:
  highest class first, submission order within a class;
* an *in-flight index* mapping each queued or running job's
  :class:`~repro.api.workload.Workload` to its :class:`Job` — the
  coalescing table.  :class:`Workload` equality covers the
  characterization key, the kernel fingerprint, and every per-run knob
  (frame geometry, iterations, constraints), so two
  submissions coalesce exactly when a direct ``Session.run`` would return
  the same :class:`~repro.api.results.FlowResult` for both.

A coalesced submission may *promote* its job: submitting an identical
workload at a higher priority class while the job is still queued re-files
it under the better class (the heap uses lazy invalidation — stale entries
are skipped on pop, so promotion is O(log n), not a rebuild).

Per-job deadlines are enforced at the queue: a job whose deadline passes
while still queued is moved to the ``timeout`` state by the next
:meth:`next_job` call instead of being dispatched.

The queue is optionally *bounded* (``max_pending``): once that many jobs
are queued, further non-coalescing submissions are **shed** with
:class:`~repro.service.jobs.QueueFullError` instead of growing the
backlog without limit — the HTTP transport turns that into ``503`` with a
``Retry-After`` header, and well-behaved clients back off and resubmit.
Coalescing submissions are always admitted (they add no work), so a
saturated queue still deduplicates.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple, Union

from repro.api.workload import Workload
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.service.jobs import (
    Job,
    JobTimeoutError,
    QueueFullError,
    ServiceClosedError,
    UnknownJobError,
    parse_job_kind,
    parse_priority,
)

#: How many terminal jobs are remembered for late ``status``/``result``
#: calls before the oldest are forgotten (in-flight jobs never expire).
DEFAULT_HISTORY_LIMIT = 1024

#: ``Retry-After`` suggested by a shedding queue (seconds): the base hint
#: plus this much per already-queued job, capped.  Deterministic — tests
#: and clients can reason about it.
SHED_RETRY_AFTER_BASE_S = 1.0
SHED_RETRY_AFTER_PER_JOB_S = 0.25
SHED_RETRY_AFTER_CAP_S = 30.0


class JobQueue:
    """Thread-safe priority queue with request coalescing (see module doc).

    ``max_pending`` bounds the queued backlog (``None`` = unbounded): a
    non-coalescing submission that would exceed it is shed with
    :class:`QueueFullError` carrying a deterministic ``retry_after_s``
    hint that grows with queue depth.
    """

    def __init__(self, history_limit: int = DEFAULT_HISTORY_LIMIT,
                 max_pending: Optional[int] = None) -> None:
        if max_pending is not None and max_pending < 1:
            raise ValueError(
                f"max_pending must be >= 1 or None (got {max_pending})")
        self._max_pending = max_pending
        self._lock = threading.Lock()
        self._has_work = threading.Condition(self._lock)
        #: Heap entries: (priority, sequence, job).  Entries whose job is
        #: no longer queued, or whose priority no longer matches the job's
        #: (promotion happened), are stale and skipped on pop.
        self._heap: List[Tuple[int, int, Job]] = []
        #: Coalescing index: (job kind, workload) -> its queued-or-running
        #: job.  Keying on the kind keeps an exploration and a validation
        #: of the same workload apart — their results are different types.
        self._inflight: Dict[Tuple[str, Workload], Job] = {}
        #: Every remembered job by id (bounded terminal history).
        self._jobs: Dict[str, Job] = {}
        self._terminal_order: Deque[str] = deque()
        self._history_limit = history_limit
        self._sequence = itertools.count(1)
        self._closed = False
        # lifetime counters (monotonic; read via stats_snapshot)
        self._submitted = 0
        self._coalesced = 0
        self._cancelled = 0
        self._timed_out = 0
        self._completed = 0
        self._failed = 0
        self._shed = 0

    # ------------------------------------------------------------------ #
    # submission / coalescing

    def submit(self, workload: Workload,
               priority: Union[str, int, None] = None,
               timeout_s: Optional[float] = None,
               kind: Optional[str] = None) -> Tuple[Job, bool]:
        """File a workload; returns ``(job, coalesced)``.

        ``kind`` selects the job class (``explore``, the default, or
        ``validate``).  An identical in-flight workload *of the same kind*
        coalesces: the existing job gains a requester (and, if the new
        submission outranks it while still queued, its better priority
        class) and is returned with ``coalesced=True``.  ``timeout_s`` is a *dispatch* deadline; a
        coalesced job waits as long as its most patient requester (one
        requester's tight timeout must never expire a computation others
        are still willing to wait for — impatient requesters bound their
        own ``result(timeout=...)`` instead).
        """
        priority = parse_priority(priority)
        kind = parse_job_kind(kind)
        if timeout_s is not None and timeout_s < 0:
            raise ValueError(f"timeout_s must be >= 0 (got {timeout_s})")
        deadline = (None if timeout_s is None
                    else time.monotonic() + timeout_s)
        with self._has_work:
            if self._closed:
                raise ServiceClosedError(
                    "the service is draining and accepts no new jobs")
            job = self._inflight.get((kind, workload))
            if job is None and self._max_pending is not None:
                pending = sum(1 for queued in self._inflight.values()
                              if queued.state == "queued")
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
                job.requesters += 1
                job.coalesced += 1
                self._coalesced += 1
                if job.deadline is not None:
                    # most-patient-requester rule: an unbounded requester
                    # clears the deadline, a later one only extends it
                    if deadline is None:
                        job.deadline = None
                        job.timeout_s = None
                    elif deadline > job.deadline:
                        job.deadline = deadline
                        job.timeout_s = timeout_s
                if priority < job.priority and job.state == "queued":
                    job.priority = priority  # invalidates the old entry
                    heapq.heappush(self._heap,
                                   (priority, job.sequence, job))
                    self._has_work.notify_all()
                return job, True
            sequence = next(self._sequence)
            job = Job(id=f"job-{sequence}", workload=workload,
                      priority=priority, sequence=sequence, kind=kind,
                      timeout_s=timeout_s, deadline=deadline)
            if obs_trace.enabled():
                # one span per server-side job, parented to whatever is
                # current on the submitting thread — the HTTP handler's
                # adopted X-Repro-Trace context, or an in-process
                # caller's span.  Attached under the lock, before the
                # heap push, so the dispatcher can never pop a job whose
                # trace context is still missing.  Finished at the
                # terminal transition.
                span = obs_trace.start_span("service.job", job_id=job.id,
                                            kind=kind,
                                            workload=workload.name)
                job.span = span
                job.trace_context = span.context_payload()
            self._jobs[job.id] = job
            self._inflight[(kind, workload)] = job
            heapq.heappush(self._heap, (priority, sequence, job))
            self._has_work.notify_all()
            return job, False

    def job(self, job_id: str) -> Job:
        """The job named ``job_id`` (raises :class:`UnknownJobError`)."""
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJobError(
                f"unknown job {job_id!r} (completed jobs are remembered "
                f"for the last {self._history_limit} terminals)")
        return job

    def cancel(self, job_id: str) -> bool:
        """Withdraw one requester from a job; returns whether it still ran.

        A queued job whose last requester cancels moves to ``cancelled``
        and is never dispatched (returns ``False``).  A job with other
        requesters — or one already running (the exploration cannot be
        interrupted mid-flight) — keeps going (returns ``True``).
        """
        job = self.job(job_id)
        with self._has_work:
            if job.done():
                return job.state not in ("cancelled", "timeout")
            job.requesters = max(0, job.requesters - 1)
            if job.requesters > 0 or job.state != "queued":
                return True
            self._make_terminal(job, "cancelled")
            self._cancelled += 1
            return False

    # ------------------------------------------------------------------ #
    # dispatch

    def next_job(self) -> Optional[Job]:
        """Pop the next job to run, blocking until one is ready.

        The next job is the highest-priority queued one, in submission
        order within its class, and is returned already ``running``.
        Returns ``None`` once the queue is closed and drained (the
        scheduler's exit signal).
        """
        with self._has_work:
            while True:
                self._expire_queued()
                job = self._pop_ready()
                if job is not None or self._closed:
                    return job
                # nothing is queued, so no deadline can pass while waiting
                self._has_work.wait()

    def _pop_ready(self) -> Optional[Job]:
        """Pop the next dispatchable job (caller holds the lock)."""
        while self._heap:
            entry_priority, _sequence, job = heapq.heappop(self._heap)
            if job.state != "queued" or entry_priority != job.priority:
                continue  # stale (terminal or promoted)
            job.state = "running"
            job.started_at = time.time()
            waited = job.started_at - job.submitted_at
            obs_metrics.registry().histogram(
                "repro_service_queue_wait_seconds").observe(waited)
            if job.span is not None:
                job.span.set_attribute("queue_wait_s", waited)
            return job
        return None

    def _expire_queued(self) -> None:
        """Time out queued jobs whose deadline has passed (never dispatched)."""
        now = time.monotonic()
        for job in list(self._inflight.values()):
            if (job.state == "queued" and job.deadline is not None
                    and job.deadline <= now):
                job.error = JobTimeoutError(
                    f"job {job.id} spent more than {job.timeout_s}s queued")
                self._make_terminal(job, "timeout")
                self._timed_out += 1

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
            # closes exactly once whether the job finished, failed, timed
            # out in the queue, or lost its last requester
            job.span.set_attribute("state", state)
            if state == "failed" and job.error is not None:
                job.span.set_error(job.error)
            job.span.finish()
            job.span = None
        if self._inflight.get((job.kind, job.workload)) is job:
            del self._inflight[(job.kind, job.workload)]
        self._terminal_order.append(job.id)
        while len(self._terminal_order) > self._history_limit:
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
            if cancel_pending:
                for job in list(self._inflight.values()):
                    if job.state == "queued":
                        self._make_terminal(job, "cancelled")
                        self._cancelled += 1
            self._has_work.notify_all()

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def pending_count(self) -> int:
        """Jobs waiting for dispatch."""
        with self._lock:
            return sum(1 for job in self._inflight.values()
                       if job.state == "queued")

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
            pending = sum(1 for job in self._inflight.values()
                          if job.state == "queued")
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
                "timed_out": self._timed_out,
                "shed": self._shed,
                "max_pending": self._max_pending,
                "pending": pending,
                "running": running,
            }
