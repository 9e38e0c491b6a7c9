"""Job records and the service error taxonomy.

A :class:`Job` is one unit of server-side work: a :class:`~repro.api
.workload.Workload`, its job class and a completion event.  Jobs are
created by :meth:`repro.service.queue.JobQueue.submit` and mutated only
under the queue's lock; waiters block on the job's completion event, never
on the lock, so a slow exploration cannot stall ``status``/``stats``
traffic.

A job goes ``queued -> running -> done | failed``; it turns ``cancelled``
only when its server closes with ``drain=False`` while it is still queued.
The one timeout is a caller's own wait (``result(timeout=...)``): it
raises :class:`JobTimeoutError` and leaves the job in flight.

Coalescing makes one job the unit of *sharing* too: N identical
submissions attach to one job (``coalesced`` counts the N-1
piggybackers) and every requester receives the same
:class:`~repro.api.results.FlowResult`.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

from repro.api.results import FlowResult, ValidationResult
from repro.api.workload import Workload

#: The job lifecycle states.  ``queued`` and ``running`` are the in-flight
#: states (new identical submissions coalesce onto them); the other three
#: are terminal.
JOB_STATES: Tuple[str, ...] = ("queued", "running", "done", "failed",
                               "cancelled")


#: The job classes the service runs.  ``explore`` is the full staged flow
#: (coalescible, dispatched through ``Session.run``); ``validate`` is the
#: simulated-vs-golden equivalence check (coalescible among validations,
#: dispatched through ``Session.validate``).
JOB_KINDS: Tuple[str, ...] = ("explore", "validate")


def parse_job_kind(value: Optional[str]) -> str:
    """Normalize a job-class name.  ``None`` means ``explore``."""
    if value is None:
        return "explore"
    try:
        name = value.strip().lower()
    except AttributeError:
        raise ValueError(f"invalid job kind {value!r}; kinds are "
                         f"{', '.join(JOB_KINDS)}") from None
    if name not in JOB_KINDS:
        raise ValueError(f"unknown job kind {value!r}; kinds are "
                         f"{', '.join(JOB_KINDS)}")
    return name


def check_wait(timeout: Optional[float]) -> Optional[float]:
    """Validate a caller's ``result`` wait in seconds (``None`` waits
    forever).  A NaN, infinite or negative wait is a :class:`ValueError`:
    NaN would never expire and never sleep."""
    if timeout is not None and not (math.isfinite(timeout)
                                    and timeout >= 0):
        raise ValueError(
            f"timeout must be a finite number of seconds >= 0 "
            f"(got {timeout!r})")
    return timeout


# ---------------------------------------------------------------------- #
# error taxonomy


class ServiceError(RuntimeError):
    """Base class of every service-level error."""


class UnknownJobError(ServiceError, KeyError):
    """Raised when a job id does not name a (still remembered) job."""

    def __str__(self) -> str:  # KeyError repr-quotes its argument; don't
        return self.args[0] if self.args else ""


class JobCancelledError(ServiceError):
    """Raised by ``result()`` when the server closed with ``drain=False``
    while the job was still queued."""


class JobTimeoutError(ServiceError):
    """Raised when a caller's ``result(timeout=...)`` wait expired; the job
    itself is still in flight and may yet finish."""


class JobFailedError(ServiceError):
    """Raised by ``result()`` when the workload itself failed.

    The original error message is carried verbatim (the HTTP transport
    only ships strings; the in-process path additionally chains the
    original exception as ``__cause__``).
    """


class ServiceClosedError(ServiceError):
    """Raised on submission to a draining or stopped server."""


class QueueFullError(ServiceError):
    """Raised when a bounded queue sheds a submission (load-shedding).

    Shedding is backpressure, not failure: the HTTP transport maps this to
    ``503`` with a ``Retry-After`` header (``retry_after_s``), and
    :class:`~repro.service.client.ReproClient` retries the submission with
    capped exponential backoff before giving up with
    :class:`FleetOverloadedError`.
    """

    def __init__(self, message: str, retry_after_s: float = 1.0) -> None:
        super().__init__(message)
        #: Seconds the shedder suggests waiting before resubmitting.
        self.retry_after_s = retry_after_s


class FleetOverloadedError(ServiceError):
    """Raised client-side when every shed-retry attempt was itself shed.

    The typed give-up of the backpressure protocol: the service (or the
    whole fleet) stayed saturated for the client's entire retry budget.
    """


# ---------------------------------------------------------------------- #
# the job record


@dataclass
class Job:
    """One scheduled exploration request (mutated only under the queue lock).

    Jobs are dispatched in submission order.
    """

    id: str
    workload: Workload
    #: Job class (see :data:`JOB_KINDS`): what the scheduler runs for this
    #: workload and what ``result`` carries when done.
    kind: str = "explore"
    submitted_at: float = field(default_factory=time.time)
    state: str = "queued"
    #: How many submissions were coalesced onto this in-flight job.
    coalesced: int = 0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    result: Optional[Union[FlowResult, ValidationResult]] = None
    error: Optional[BaseException] = None
    #: Span handoff payload (``repro.obs.trace.context_payload`` shape)
    #: parenting every server-side span of this job; ``None`` when tracing
    #: is off.  The live span object itself lives in ``span`` and is
    #: finished by the queue at the terminal transition.
    trace_context: Optional[Dict[str, object]] = None
    span: Optional[object] = field(default=None, repr=False)
    _done: threading.Event = field(default_factory=threading.Event,
                                   repr=False)

    def done(self) -> bool:
        """Whether the job reached a terminal state."""
        return self._done.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job is terminal (or ``timeout`` elapses)."""
        return self._done.wait(timeout)

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready status view (what ``status``/``submit`` return)."""
        return {
            "job_id": self.id,
            "state": self.state,
            "kind": self.kind,
            "workload": self.workload.name,
            "kernel_fingerprint": self.workload.kernel_fingerprint,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "coalesced": self.coalesced,
            "trace_id": (None if self.trace_context is None
                         else self.trace_context.get("trace_id")),
            "error": None if self.error is None else str(self.error),
        }

    def raise_if_unsuccessful(self) -> None:
        """Map a terminal non-``done`` state onto the error taxonomy."""
        if self.state == "failed":
            raise JobFailedError(
                f"job {self.id} ({self.workload.name}) failed: "
                f"{self.error}") from self.error
        if self.state == "cancelled":
            raise JobCancelledError(f"job {self.id} was cancelled")
