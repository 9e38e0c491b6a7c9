"""The long-lived exploration service.

``repro.service`` turns the batch API into a daemon: a
:class:`ReproServer` owns one shared :class:`~repro.api.session.Session`
(and therefore one characterization cache and one persistent
:class:`~repro.api.store.ArtifactStore` binding) and serves exploration
*jobs* submitted by many concurrent clients.  Two properties distinguish
it from N short-lived sessions:

* **request coalescing** — identical in-flight workloads share one
  computation: the :class:`JobQueue` keys queued *and* running jobs by the
  full workload identity (characterization key + kernel fingerprint +
  per-run knobs), so sixteen concurrent submissions of the same workload
  trigger exactly one exploration and all sixteen receive the same
  :class:`~repro.api.results.FlowResult` — digest-identical to a direct
  ``Session.run``;
* **first-in-first-out dispatch** — the server's own dispatcher thread
  runs one job at a time, in submission order; a job never expires, and
  the only timeout is a caller's own wait (``result(timeout=...)``), which
  leaves the job in flight.

The server speaks two transports with one protocol: in-process method
calls, and a minimal stdlib-only JSON endpoint over :mod:`http.server`
(``submit`` / ``status`` / ``result`` / ``stats`` / ``healthz``), with
:class:`ReproClient` wrapping both.  The listener, ``/trace``,
``/metrics`` and the shutdown sequence live in
:class:`~repro.service.server.JobEndpoint`, the base the worker shares
with the fleet router.  Job lifecycle is streamed through the
existing progress-callback protocol (:class:`~repro.api.session
.SessionEvent` with ``job-*`` kinds) alongside the session's stage events.

Quick start::

    from repro.api import Workload
    from repro.service import ReproClient, ReproServer

    with ReproServer(store="~/.cache/repro") as server:
        client = ReproClient(server)            # or ReproClient("http://...")
        handle = client.submit(Workload.from_algorithm("blur"))
        result = handle.result(timeout=60)

Shell equivalent: ``python -m repro serve --store ~/.cache/repro`` then
``python -m repro submit blur``.
"""

from repro.service.jobs import (
    JOB_STATES,
    FleetOverloadedError,
    Job,
    JobCancelledError,
    JobFailedError,
    JobTimeoutError,
    QueueFullError,
    ServiceClosedError,
    ServiceError,
    UnknownJobError,
    parse_job_kind,
)
from repro.service.metrics import METRICS_CONTENT_TYPE, render_prometheus
from repro.service.queue import JobQueue
from repro.service.server import DEFAULT_PORT, ReproServer
from repro.service.client import JobHandle, ReproClient

__all__ = [
    "DEFAULT_PORT",
    "FleetOverloadedError",
    "JOB_STATES",
    "Job",
    "JobCancelledError",
    "JobFailedError",
    "JobHandle",
    "JobQueue",
    "JobTimeoutError",
    "METRICS_CONTENT_TYPE",
    "QueueFullError",
    "ReproClient",
    "ReproServer",
    "ServiceClosedError",
    "ServiceError",
    "UnknownJobError",
    "parse_job_kind",
    "render_prometheus",
]
