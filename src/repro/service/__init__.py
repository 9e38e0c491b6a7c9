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
* **priority scheduling** — jobs carry a priority class (``interactive`` >
  ``batch`` > ``background``); the :class:`Scheduler` runs one job at a
  time and always pops the highest non-empty class next, so an
  interactive request never waits behind a background sweep that is
  still queued.

The server speaks two transports with one protocol: in-process method
calls, and a minimal stdlib-only JSON endpoint over :mod:`http.server`
(``submit`` / ``status`` / ``result`` / ``stats`` / ``healthz``), with
:class:`ReproClient` wrapping both.  Job lifecycle is streamed through the
existing progress-callback protocol (:class:`~repro.api.session
.SessionEvent` with ``job-*`` kinds) alongside the session's stage events.

Quick start::

    from repro.api import Workload
    from repro.service import ReproClient, ReproServer

    with ReproServer(store="~/.cache/repro") as server:
        client = ReproClient(server)            # or ReproClient("http://...")
        handle = client.submit(Workload.from_algorithm("blur"),
                               priority="interactive")
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
    PRIORITY_CLASSES,
    QueueFullError,
    ServiceClosedError,
    ServiceError,
    UnknownJobError,
    parse_job_kind,
    parse_priority,
    priority_name,
)
from repro.service.metrics import METRICS_CONTENT_TYPE, render_prometheus
from repro.service.queue import JobQueue
from repro.service.scheduler import Scheduler
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
    "PRIORITY_CLASSES",
    "QueueFullError",
    "ReproClient",
    "ReproServer",
    "Scheduler",
    "ServiceClosedError",
    "ServiceError",
    "UnknownJobError",
    "parse_job_kind",
    "parse_priority",
    "priority_name",
    "render_prometheus",
]
