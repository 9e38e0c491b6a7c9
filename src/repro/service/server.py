"""The exploration daemon: one shared session behind a job API.

:class:`ReproServer` wires the service pieces together — a
:class:`~repro.api.session.Session` (optionally store-backed), a
coalescing :class:`~repro.service.queue.JobQueue`, and its own dispatcher
thread, which runs the queued jobs one at a time through the session —
and exposes one protocol over two transports:

* **in-process**: ``submit`` / ``status`` / ``result`` / ``stats`` /
  ``healthz`` as plain methods (every payload JSON-ready, so the two
  transports cannot drift);
* **HTTP**: the same operations as a minimal stdlib-only JSON endpoint
  (:mod:`http.server`, threaded) via :meth:`~JobEndpoint.serve_http` —
  ``POST /submit``, ``GET /status``, ``GET /result``, ``GET /stats``,
  ``GET /healthz``, ``GET /metrics`` (Prometheus text), ``GET /trace`` /
  ``GET /trace/<id>`` (recorded traces), ``POST /register`` (fleet
  handshake), ``POST /shutdown``.

Jobs run first in, first out; a job never expires.  The only timeout is a
caller's own wait: ``result(timeout=...)`` raises
:class:`~repro.service.jobs.JobTimeoutError` and leaves the job in flight,
and over HTTP an expired ``GET /result`` wait answers ``pending``.

The queue is optionally bounded (``max_pending``): a saturated server
*sheds* new work with ``503 + Retry-After`` (:class:`~repro.service.jobs
.QueueFullError`) instead of building unbounded backlog — the
backpressure half of the fleet tier (:mod:`repro.fleet`), whose router
fronts N of these servers and routes by consistent hash.

Job lifecycle (``job-queued`` / ``job-coalesced`` / ``job-started`` /
``job-finished`` / ``job-failed``) streams through the session's existing
progress-callback protocol: :meth:`on_event` callbacks receive
:class:`~repro.api.session.SessionEvent` objects for both the job
transitions and the underlying pipeline stages.

The worker and the fleet router (:class:`~repro.fleet.router.FleetRouter`)
share one base, :class:`JobEndpoint`: the HTTP listener, ``/trace``,
``/metrics`` and the shutdown sequence.  Shutdown is graceful by default:
``close(drain=True)`` stops accepting submissions (HTTP submitters get
503), finishes every queued job, then tears the HTTP listener down — so a
deploy rollover never drops accepted work.  ``drain=False`` cancels the
queued backlog instead (the job already executing still completes;
pure-Python explorations cannot be interrupted mid-flight).
"""

from __future__ import annotations

import json
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Mapping, Optional, Tuple, Union
from urllib.parse import parse_qs, urlparse

from repro.api.results import FlowResult, ValidationResult
from repro.api.session import Session, SessionEvent, _defensive_copy
from repro.api.store import ArtifactStore
from repro.api.workload import Workload
from repro.dse.stream import stream_stats
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.service.jobs import (
    JobCancelledError,
    JobFailedError,
    JobTimeoutError,
    QueueFullError,
    ServiceClosedError,
    UnknownJobError,
    check_wait,
)
from repro.service.metrics import METRICS_CONTENT_TYPE, render_prometheus
from repro.service.queue import JobQueue

#: Default TCP port of ``python -m repro serve`` and ``fleet`` (0 =
#: OS-assigned).
DEFAULT_PORT = 8177

#: Upper bound on one HTTP request body (a serialized workload is a few
#: kilobytes; anything near this is not a workload).
MAX_REQUEST_BYTES = 8 * 1024 * 1024

#: Per-request cap on how long ``GET /result`` may block server-side;
#: clients with larger timeouts poll (see :class:`repro.service.client
#: .ReproClient`), so slow explorations never pin a connection forever.
MAX_RESULT_WAIT_S = 300.0

#: The body keys ``POST /submit`` accepts; any other key is a 400, so a
#: field the server does not know is never silently dropped.
_SUBMIT_FIELDS = ("workload", "job")


class JobEndpoint:
    """The lifecycle a worker and a fleet router share.

    A subclass serves the job verbs (``submit`` / ``status`` / ``result``
    / ``stats`` / ``healthz`` / ``register``) and :meth:`_stop_work`,
    which winds the accepted work down on :meth:`close`.  This base owns
    the rest: trace auto-enable, the start time, the HTTP listener,
    ``/trace``, ``/metrics`` and the shutdown sequence.
    """

    #: Prefix of the ``GET /metrics`` families walked from ``stats()``.
    metrics_prefix = "repro"
    #: Name prefix of the listener and shutdown threads.
    thread_prefix = "repro-service"

    def __init__(self) -> None:
        # endpoints trace by default (REPRO_OBS=0 opts out): the ring-buffer
        # TraceStore is bounded, and library use without a server stays on
        # the zero-cost disabled path
        obs_trace.auto_enable()
        self._started_at = time.time()
        self._httpd: Optional[_ServiceHTTPServer] = None
        self._http_thread: Optional[threading.Thread] = None
        self._http_address: Optional[Tuple[str, int]] = None
        self._shutdown_requested = threading.Event()
        self._drain_on_shutdown = True
        # serializes close() against itself and against serve_http()
        self._lifecycle_lock = threading.Lock()
        self._stopped = False

    # ------------------------------------------------------------------ #
    # lifecycle

    def __enter__(self) -> "JobEndpoint":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until a shutdown was requested (HTTP ``/shutdown`` or
        :meth:`initiate_shutdown`); the CLI's foreground loop."""
        return self._shutdown_requested.wait(timeout)

    def initiate_shutdown(self, drain: bool = True) -> None:
        """Request an asynchronous shutdown (returns immediately).

        The actual teardown runs on a helper thread, so an HTTP handler
        can acknowledge the request before the listener goes away.
        """
        self._drain_on_shutdown = drain
        if not self._shutdown_requested.is_set():
            self._shutdown_requested.set()
            threading.Thread(target=self.close, kwargs={"drain": drain},
                             name=f"{self.thread_prefix}-shutdown",
                             daemon=True).start()

    def close(self, drain: Optional[bool] = None) -> None:
        """Stop serving (idempotent, thread-safe).

        ``drain=True`` (default) finishes the accepted work first, even
        on a worker built with ``start=False`` and never started: its
        dispatcher starts to run the backlog.  HTTP stays up while
        draining so pending ``result`` calls are answered, then the
        listener stops.  ``drain=False`` cancels the backlog.
        """
        if drain is None:
            drain = self._drain_on_shutdown
        with self._lifecycle_lock:
            if self._stopped:
                return
            self._shutdown_requested.set()
            self._stop_work(drain)
            if self._httpd is not None:
                self._httpd.shutdown()
                self._httpd.server_close()
                self._http_thread.join(timeout=5.0)
            self._stopped = True

    def _stop_work(self, drain: bool) -> None:
        """Refuse new jobs, then finish (``drain``) or cancel the backlog."""
        raise NotImplementedError

    def _draining(self) -> bool:
        """Whether the work refuses new jobs before any shutdown request
        (a worker's queue can be closed on its own)."""
        return False

    def _state(self) -> str:
        if self._stopped:
            return "stopped"
        if self._shutdown_requested.is_set() or self._draining():
            return "draining"
        return "serving"

    def _lifecycle_stats(self) -> Dict[str, Any]:
        """The ``stats()`` fields every endpoint reports first."""
        return {
            "state": self._state(),
            "uptime_s": time.time() - self._started_at,
            "http_address": (None if self._http_address is None
                             else "http://{}:{}".format(*self._http_address)),
        }

    # ------------------------------------------------------------------ #
    # observability

    def metrics_text(self) -> str:
        """The counters as Prometheus text (``GET /metrics``).

        Walked ``stats()`` leaves under :attr:`metrics_prefix` (typed
        counter/gauge by leaf name) plus the typed registry families —
        queue-wait, stage-latency, and chunk-fold histograms included.
        """
        return render_prometheus(self.stats(), prefix=self.metrics_prefix,
                                 registry=obs_metrics.registry())

    def trace(self, trace_id: Optional[str] = None) -> Dict[str, Any]:
        """Recorded traces (``GET /trace``, ``GET /trace/<id>``).

        Without an id: the store's per-trace summaries plus its
        accounting.  With one: that trace's full span list (JSON-ready;
        the CLI converts to JSONL or Chrome ``trace_event`` client-side).
        With in-process workers a router's store holds the complete route
        -> worker -> pipeline span tree.
        """
        store = obs_trace.global_store()
        if trace_id is None:
            return {"traces": store.summaries(),
                    "store": store.stats_snapshot()}
        spans = store.get(trace_id)
        if spans is None:
            raise UnknownJobError(
                f"unknown trace {trace_id!r} (the trace store is a ring "
                f"buffer; old traces are evicted)")
        return {"trace_id": trace_id, "spans": spans}

    # ------------------------------------------------------------------ #
    # HTTP transport

    def serve_http(self, host: str = "127.0.0.1",
                   port: int = DEFAULT_PORT) -> Tuple[str, int]:
        """Start the JSON endpoint on ``host:port`` (0 = ephemeral).

        Returns the bound ``(host, port)``, the same one on every later
        call; the listener runs on a daemon thread until :meth:`close`.
        Once a shutdown was requested this raises
        :class:`ServiceClosedError` and binds nothing.
        """
        with self._lifecycle_lock:
            if self._shutdown_requested.is_set():
                raise ServiceClosedError(
                    "a shutdown was requested; serve_http binds nothing")
            if self._httpd is None:
                httpd = _ServiceHTTPServer((host, port),
                                           _ServiceRequestHandler)
                httpd.service = self
                thread = threading.Thread(target=httpd.serve_forever,
                                          name=f"{self.thread_prefix}-http",
                                          daemon=True)
                thread.start()
                self._httpd, self._http_thread = httpd, thread
                self._http_address = (httpd.server_address[0],
                                      httpd.server_address[1])
            return self._http_address


class ReproServer(JobEndpoint):
    """A long-lived exploration server over one shared session.

    Its memory stays bounded however many distinct jobs it serves: the
    session keeps a bounded result layer, and the queue remembers the last
    :data:`~repro.service.queue.HISTORY_LIMIT` finished jobs (each holding
    its result) for late ``status``/``result`` calls.
    """

    def __init__(self, session: Optional[Session] = None,
                 store: Optional[Union[str, os.PathLike,
                                       ArtifactStore]] = None,
                 max_pending: Optional[int] = None,
                 worker_id: Optional[str] = None,
                 on_event: Optional[Callable[[SessionEvent], None]] = None,
                 start: bool = True) -> None:
        if session is not None and store is not None:
            raise ValueError("pass either a session or a store, not both "
                             "(a session already owns its store)")
        super().__init__()
        self._session = session if session is not None else Session(
            store=store)
        if on_event is not None:
            self._session.on_event(on_event)
        self._queue = JobQueue(max_pending=max_pending)
        #: This worker's own identity, reported in the fleet registration
        #: handshake (lets a router detect two URLs naming one worker).
        self.worker_id = worker_id or f"worker-{os.getpid()}"
        self._fleet_registration: Optional[Dict[str, Any]] = None
        self._dispatcher: Optional[threading.Thread] = None
        self._dispatcher_lock = threading.Lock()
        if start:
            self.start()

    # ------------------------------------------------------------------ #
    # lifecycle

    @property
    def session(self) -> Session:
        """The shared session (one cache for every client)."""
        return self._session

    @property
    def queue(self) -> JobQueue:
        return self._queue

    def start(self) -> "ReproServer":
        """Start the dispatcher thread (idempotent; ``start=False``
        construction holds submitted jobs queued until this call)."""
        with self._dispatcher_lock:
            if self._dispatcher is None or not self._dispatcher.is_alive():
                thread = threading.Thread(target=self._dispatch,
                                          name="repro-scheduler",
                                          daemon=True)
                thread.start()
                self._dispatcher = thread
        return self

    def on_event(self, callback: Callable[[SessionEvent], None]) -> None:
        """Stream job + stage lifecycle events (the session's protocol)."""
        self._session.on_event(callback)

    def __enter__(self) -> "ReproServer":
        return self.start()

    def _stop_work(self, drain: bool) -> None:
        # with drain every queued job still runs, so a dispatcher that
        # never started starts now; without it the queued jobs are
        # cancelled (their waiters get JobCancelledError) and only the job
        # already in flight finishes
        self._queue.close(cancel_pending=not drain)
        if drain:
            self.start()
        if self._dispatcher is not None:
            self._dispatcher.join()

    def _draining(self) -> bool:
        return self._queue.closed

    def _dispatch(self) -> None:
        """The dispatcher thread: run the queued jobs one at a time, in
        submission order, until the queue is closed and drained.  Each job
        runs alone under its own trace, so it ends ``done`` or ``failed``
        as soon as its own run ends, and runs (and fails) exactly once;
        ``job-*`` events carry the job id in their detail."""
        emit = self._session._emit
        while True:
            job = self._queue.next_job()
            if job is None:
                return
            runner = (self._session.validate if job.kind == "validate"
                      else self._session.run)
            started = time.perf_counter()
            with obs_trace.adopt(job.trace_context):
                emit("job-started", job.workload, detail=job.id)
                try:
                    with obs_trace.span("scheduler.dispatch"):
                        result = runner(job.workload)
                except Exception as error:
                    self._queue.fail(job, error)
                    emit("job-failed", job.workload,
                         elapsed_s=time.perf_counter() - started,
                         detail=str(error) or job.id)
                else:
                    self._queue.finish(job, result)
                    emit("job-finished", job.workload,
                         elapsed_s=time.perf_counter() - started,
                         detail=job.id)

    # ------------------------------------------------------------------ #
    # the job API (shared verbatim by both transports)

    def submit(self, workload: Union[Workload, Mapping[str, Any]],
               job: Optional[str] = None) -> Dict[str, Any]:
        """File a workload; returns the submission receipt.

        ``job`` selects the job class: ``explore`` (default, the full
        staged flow) or ``validate`` (simulated-vs-golden equivalence
        evidence).  The receipt carries ``job_id`` (poll
        ``status``/``result`` with it) and ``coalesced`` — whether this
        submission attached to an identical same-class workload already
        in flight instead of queueing new work.
        """
        if not isinstance(workload, Workload):
            workload = Workload.from_dict(workload)
        job, coalesced = self._queue.submit(workload, kind=job)
        if obs_trace.enabled() and coalesced:
            # the job's own span was attached by the queue at creation;
            # record the join in the *requester's* trace too — this
            # submission's work is served by an already-in-flight job
            if job.span is not None:
                job.span.set_attribute("coalesced", job.coalesced)
            with obs_trace.span("service.coalesce", job_id=job.id,
                                coalesced=job.coalesced):
                pass
        self._session._emit(
            "job-coalesced" if coalesced else "job-queued",
            workload, detail=job.id)
        receipt = job.snapshot()
        receipt["coalesced"] = coalesced
        return receipt

    def status(self, job_id: str) -> Dict[str, Any]:
        """The job's current lifecycle snapshot."""
        return self._queue.job(job_id).snapshot()

    def result(self, job_id: str,
               timeout: Optional[float] = None
               ) -> Union[FlowResult, ValidationResult]:
        """Wait for a job and return its result — a :class:`FlowResult`
        for ``explore`` jobs, a :class:`ValidationResult` for ``validate``
        jobs.

        Raises :class:`JobFailedError` / :class:`JobCancelledError` for
        unsuccessful terminals, and :class:`JobTimeoutError` when
        ``timeout`` seconds pass first (the job stays in flight).  A NaN,
        infinite or negative ``timeout`` is a :class:`ValueError`.
        """
        check_wait(timeout)
        job = self._queue.job(job_id)
        if not job.wait(timeout):
            raise JobTimeoutError(
                f"job {job.id} not finished within the {timeout}s wait "
                f"(state: {job.state})")
        job.raise_if_unsuccessful()
        # each requester gets an isolated view over the shared heavy
        # artifacts, exactly like concurrent Session.run callers
        return _defensive_copy(job.result)

    def stats(self) -> Dict[str, Any]:
        """One JSON document over every layer's counters."""
        store = self._session.store
        return {
            **self._lifecycle_stats(),
            "worker_id": self.worker_id,
            "fleet": self._fleet_registration,
            "queue": self._queue.stats_snapshot(),
            "session": self._session.stats.to_dict(),
            "store": (None if store is None
                      else {"root": store.root, **store.counters()}),
            # the explorations' process-wide counters: the run counters,
            # and the cost cache under "costs" (hits growing across jobs =
            # re-explores reusing a space's cost table)
            "stream": stream_stats(),
        }

    def healthz(self) -> Dict[str, Any]:
        """Liveness/readiness probe payload."""
        state = self._state()
        return {
            "ok": state == "serving",
            "state": state,
            "worker_id": self.worker_id,
            "uptime_s": time.time() - self._started_at,
            "pending_jobs": self._queue.pending_count(),
            "running_jobs": self._queue.running_count(),
            "scheduler_alive": (self._dispatcher is not None
                                and self._dispatcher.is_alive()),
        }

    def register(self, info: Mapping[str, Any]) -> Dict[str, Any]:
        """Fleet registration handshake (``POST /register``).

        A router announces itself here before routing traffic; the worker
        records the registration (visible under ``stats()["fleet"]``) and
        answers with its identity, state, and — crucially — its store
        root, so the router can verify every fleet member shares one
        :class:`~repro.api.store.ArtifactStore` (the warm-through-store
        cache tier).  Re-registration overwrites (routers re-handshake
        after a worker restart).
        """
        store = self._session.store
        self._fleet_registration = {
            "router": info.get("router"),
            "member_name": info.get("member_name"),
            "registered_at": time.time(),
        }
        return {
            "ok": True,
            "worker_id": self.worker_id,
            "state": self._state(),
            "store_root": None if store is None else store.root,
            "max_pending": self._queue.stats_snapshot()["max_pending"],
        }


class _ServiceHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    service: JobEndpoint


#: Error class -> HTTP status code of the JSON endpoint.
_ERROR_STATUS = (
    (UnknownJobError, 404),
    (JobCancelledError, 409),
    (QueueFullError, 503),
    (ServiceClosedError, 503),
    (JobFailedError, 500),
    (ValueError, 400),
    (TypeError, 400),
    (KeyError, 400),
)


class _ServiceRequestHandler(BaseHTTPRequestHandler):
    """Routes the job API; every response body is JSON."""

    server: _ServiceHTTPServer
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------ #

    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        parsed = urlparse(self.path)
        query = {key: values[-1]
                 for key, values in parse_qs(parsed.query).items()}
        service = self.server.service
        try:
            if parsed.path == "/healthz":
                payload = service.healthz()
                self._respond(200 if payload["ok"] else 503, payload)
            elif parsed.path == "/stats":
                self._respond(200, service.stats())
            elif parsed.path == "/metrics":
                self._respond_text(200, service.metrics_text(),
                                   METRICS_CONTENT_TYPE)
            elif parsed.path == "/trace":
                self._respond(200, service.trace())
            elif parsed.path.startswith("/trace/"):
                self._respond(200,
                              service.trace(parsed.path[len("/trace/"):]))
            elif parsed.path == "/status":
                self._respond(200, service.status(self._job_id(query)))
            elif parsed.path == "/result":
                wait_s = min(check_wait(float(query.get("timeout", 30.0))),
                             MAX_RESULT_WAIT_S)
                job_id = self._job_id(query)
                try:
                    result = service.result(job_id, timeout=wait_s)
                except JobTimeoutError:
                    # only this poll's wait window expired: tell the
                    # client to keep polling
                    self._respond(200, {
                        "job_id": job_id,
                        "state": service.status(job_id)["state"],
                        "pending": True,
                    })
                    return
                payload = {
                    "job_id": job_id,
                    "state": "done",
                    "result": result.to_dict(),
                }
                if isinstance(result, ValidationResult):
                    # typed discriminator so the client can rebuild the
                    # right result class without guessing at the schema
                    payload["result_kind"] = "validation"
                self._respond(200, payload)
            else:
                self._respond(404, {"error": f"no route {parsed.path!r}"})
        except Exception as error:  # mapped to a status code below
            self._respond_error(error)

    def do_POST(self) -> None:  # noqa: N802
        parsed = urlparse(self.path)
        service = self.server.service
        try:
            body = self._read_json()
            if parsed.path == "/submit":
                unknown = sorted(set(body) - set(_SUBMIT_FIELDS))
                if unknown:
                    raise ValueError(
                        f"unknown /submit field(s) "
                        f"{', '.join(map(repr, unknown))}; the fields are "
                        f"{', '.join(_SUBMIT_FIELDS)}")
                # strict parse: a malformed or absent X-Repro-Trace header
                # degrades to None — a fresh root span — never an error
                context = obs_trace.parse_header(
                    self.headers.get(obs_trace.TRACE_HEADER))
                with obs_trace.adopt(context):
                    receipt = service.submit(body["workload"],
                                             job=body.get("job"))
                self._respond(200, receipt)
            elif parsed.path == "/register":
                self._respond(200, service.register(body))
            elif parsed.path == "/shutdown":
                drain = body.get("drain", True)
                if not isinstance(drain, bool):
                    raise ValueError(
                        f"'drain' must be a JSON boolean (got {drain!r})")
                service.initiate_shutdown(drain=drain)
                self._respond(200, {"ok": True, "draining": drain})
            else:
                self._respond(404, {"error": f"no route {parsed.path!r}"})
        except Exception as error:
            self._respond_error(error)

    # ------------------------------------------------------------------ #

    @staticmethod
    def _job_id(query: Mapping[str, str]) -> str:
        job_id = query.get("id")
        if not job_id:
            raise ValueError("missing ?id=<job id> parameter")
        return job_id

    def _read_json(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        if length < 0:
            # rfile.read(-1) would read until the client hangs up, pinning
            # this handler thread on a keep-alive connection
            raise ValueError(f"negative Content-Length ({length})")
        if length > MAX_REQUEST_BYTES:
            raise ValueError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_REQUEST_BYTES}-byte limit")
        if length == 0:
            return {}
        payload = json.loads(self.rfile.read(length).decode("utf-8"))
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    def _respond(self, status: int, payload: Mapping[str, Any],
                 headers: Optional[Mapping[str, str]] = None) -> None:
        body = json.dumps(payload).encode("utf-8")
        self._send_body(status, body, "application/json", headers)

    def _respond_text(self, status: int, text: str,
                      content_type: str = "text/plain") -> None:
        self._send_body(status, text.encode("utf-8"), content_type, None)

    def _send_body(self, status: int, body: bytes, content_type: str,
                   headers: Optional[Mapping[str, str]]) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _respond_error(self, error: Exception) -> None:
        status = 500
        for error_type, code in _ERROR_STATUS:
            if isinstance(error, error_type):
                status = code
                break
        message = (error.args[0] if isinstance(error, KeyError)
                   and error.args else str(error))
        payload = {"error": str(message), "kind": type(error).__name__}
        headers = None
        retry_after = getattr(error, "retry_after_s", None)
        if retry_after is not None:
            # the load-shedding contract: 503 + Retry-After, so any
            # off-the-shelf client (curl --retry, proxies) backs off too
            payload["retry_after_s"] = retry_after
            headers = {"Retry-After": str(max(1, round(retry_after)))}
        try:
            self._respond(status, payload, headers)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-error; nothing to salvage

    def log_message(self, format: str, *args: Any) -> None:
        """Silence per-request stderr logging (stats() is the observable)."""
