"""The service client: one ergonomic surface over both transports.

``ReproClient(server)`` talks to an in-process server — a
:class:`~repro.service.server.ReproServer` or a
:class:`~repro.fleet.router.FleetRouter` — by direct method call;
``ReproClient("http://...")`` speaks the JSON endpoint with nothing
beyond :mod:`urllib`.  Either way the verbs are the same — ``submit``
returns a :class:`JobHandle`, ``handle.result()`` blocks (HTTP waits are
chunked into bounded server-side polls, so a slow exploration never pins
one connection), and unsuccessful jobs raise the same
:class:`~repro.service.jobs` error taxonomy the server raises locally.

Production traffic hygiene (both transports): a submission shed by a
bounded queue (``503 + Retry-After``, :class:`QueueFullError`) is retried
with capped exponential backoff and *deterministic, seeded* jitter,
honoring the server's ``Retry-After`` hint as the floor of each delay;
once the retry budget is spent the client gives up with a typed
:class:`FleetOverloadedError` instead of a bare :mod:`urllib` error.
"""

from __future__ import annotations

import json
import random
import time
import urllib.error
import urllib.request
from typing import Any, Dict, Mapping, Optional, Union

from repro.api.results import FlowResult, ValidationResult
from repro.api.workload import Workload
from repro.obs import trace as obs_trace
from repro.service.jobs import (
    FleetOverloadedError,
    JobCancelledError,
    JobFailedError,
    JobTimeoutError,
    QueueFullError,
    ServiceClosedError,
    ServiceError,
    UnknownJobError,
)

#: Server-side wait per HTTP ``/result`` poll (the client loops until its
#: own timeout; shorter chunks keep connections short-lived).
RESULT_POLL_S = 30.0

#: Default shed-retry budget: how many times a shed submission is
#: resubmitted before :class:`FleetOverloadedError`.
DEFAULT_RETRIES = 4

#: Exponential backoff of the shed-retry path: ``base * 2**attempt``
#: seconds, capped, then jittered into ``[0.5, 1.0]`` of itself.
DEFAULT_BACKOFF_BASE_S = 0.25
DEFAULT_BACKOFF_CAP_S = 4.0

#: HTTP error payload ``kind`` -> the exception re-raised client-side.
_ERROR_KINDS = {
    "UnknownJobError": UnknownJobError,
    "JobTimeoutError": JobTimeoutError,
    "JobCancelledError": JobCancelledError,
    "JobFailedError": JobFailedError,
    "QueueFullError": QueueFullError,
    "ServiceClosedError": ServiceClosedError,
    "ValueError": ValueError,
    "TypeError": TypeError,
}


class JobHandle:
    """A submitted job as seen by one requester."""

    def __init__(self, client: "ReproClient", job_id: str,
                 coalesced: bool,
                 trace_id: Optional[str] = None) -> None:
        self._client = client
        self.id = job_id
        #: Whether this submission shared an already-in-flight computation.
        self.coalesced = coalesced
        #: Trace id of the server-side job span (``None`` when the server
        #: traces nothing); fetch the spans with ``client.trace(trace_id)``.
        self.trace_id = trace_id

    def __repr__(self) -> str:
        return (f"JobHandle({self.id!r}, "
                f"coalesced={self.coalesced})")

    def status(self) -> Dict[str, Any]:
        return self._client.status(self.id)

    def result(self, timeout: Optional[float] = None
               ) -> Union[FlowResult, ValidationResult]:
        """Wait for this job's result (raises on failure): a
        :class:`FlowResult` for ``explore`` submissions, a
        :class:`ValidationResult` for ``validate`` ones."""
        return self._client.result(self.id, timeout=timeout)

    def cancel(self) -> Dict[str, Any]:
        return self._client.cancel(self.id)


class ReproClient:
    """Submit workloads to a server or fleet router, local or remote.

    ``target`` is an in-process server-like object (anything exposing the
    job-API verbs: ``ReproServer``, ``FleetRouter``) or one ``http://``
    URL.  ``retries`` /
    ``backoff_base_s`` / ``backoff_cap_s`` configure the shed-retry
    policy; ``retry_jitter_seed`` seeds the jitter deterministically (two
    clients with the same seed back off identically — reproducible tests,
    and distinct seeds de-synchronize a thundering herd).
    """

    def __init__(self, target: Union[str, Any],
                 request_timeout_s: float = 10.0,
                 retries: int = DEFAULT_RETRIES,
                 backoff_base_s: float = DEFAULT_BACKOFF_BASE_S,
                 backoff_cap_s: float = DEFAULT_BACKOFF_CAP_S,
                 retry_jitter_seed: int = 0) -> None:
        self._server: Optional[Any] = None
        #: The server's base URL (``None`` for an in-process target).
        self._url: Optional[str] = None
        if isinstance(target, str):
            self._url = self._check_url(target)
        elif hasattr(target, "submit") and hasattr(target, "result"):
            self._server = target
        else:
            raise ValueError(
                f"target must be a server object or an http(s) URL "
                f"(got {target!r})")
        if retries < 0:
            raise ValueError(f"retries must be >= 0 (got {retries})")
        #: Socket timeout of one HTTP exchange (waiting calls add the
        #: server-side wait on top).
        self.request_timeout_s = request_timeout_s
        self.retries = retries
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self._jitter = random.Random(retry_jitter_seed)

    @staticmethod
    def _check_url(url: str) -> str:
        url = url.rstrip("/")
        if not url.startswith(("http://", "https://")):
            raise ValueError(
                f"server URL must start with http:// or https:// "
                f"(got {url!r})")
        return url

    # ------------------------------------------------------------------ #
    # verbs

    def submit(self, workload: Union[Workload, Mapping[str, Any]],
               priority: Union[str, int, None] = None,
               timeout_s: Optional[float] = None,
               job: Optional[str] = None) -> JobHandle:
        """File a workload; returns its :class:`JobHandle`.

        ``job`` selects the job class — ``explore`` (default) runs the
        full staged flow, ``validate`` runs the simulated-vs-golden
        equivalence check and yields a :class:`ValidationResult`.

        A shed submission (bounded queue full; ``503 + Retry-After``) is
        retried up to ``self.retries`` times with capped exponential
        backoff and seeded jitter, honoring the server's ``Retry-After``
        hint as the floor of each delay.  When the budget is spent the
        last shed surfaces as :class:`FleetOverloadedError`.
        ``retries=0`` disables the retry layer entirely — the raw
        :class:`QueueFullError` propagates (how the fleet router's
        internal clients run: backpressure must reach the *end* client
        untouched).
        """
        attempt = 0
        while True:
            try:
                return self._submit_once(workload, priority, timeout_s, job)
            except QueueFullError as shed:
                if self.retries == 0:
                    raise
                if attempt >= self.retries:
                    raise FleetOverloadedError(
                        f"submission shed {attempt + 1} time(s) and the "
                        f"retry budget ({self.retries}) is spent: {shed}"
                    ) from shed
                time.sleep(self._backoff_delay(attempt,
                                               shed.retry_after_s))
                attempt += 1

    def _backoff_delay(self, attempt: int,
                       retry_after_s: Optional[float]) -> float:
        """Capped exponential backoff, floored by the server's hint,
        jittered deterministically into ``[0.5, 1.0]`` of itself."""
        delay = self.backoff_base_s * (2 ** attempt)
        if retry_after_s is not None:
            delay = max(delay, retry_after_s)
        delay = min(delay, self.backoff_cap_s)
        return delay * (0.5 + 0.5 * self._jitter.random())

    def _submit_once(self, workload: Union[Workload, Mapping[str, Any]],
                     priority: Union[str, int, None],
                     timeout_s: Optional[float],
                     job: Optional[str]) -> JobHandle:
        if self._server is not None:
            keywords: Dict[str, Any] = {"priority": priority,
                                        "timeout_s": timeout_s}
            if job is not None:
                keywords["job"] = job
            receipt = self._server.submit(workload, **keywords)
        else:
            payload = (workload.to_dict() if isinstance(workload, Workload)
                       else dict(workload))
            body: Dict[str, Any] = {"workload": payload,
                                    "priority": priority,
                                    "timeout_s": timeout_s}
            if job is not None:
                body["job"] = job
            receipt = self._post("/submit", body)
        return JobHandle(self, receipt["job_id"],
                         bool(receipt.get("coalesced")),
                         trace_id=receipt.get("trace_id"))

    def run(self, workload: Union[Workload, Mapping[str, Any]],
            priority: Union[str, int, None] = None,
            timeout: Optional[float] = None) -> FlowResult:
        """``submit`` + ``result`` in one call (the blocking convenience)."""
        return self.submit(workload, priority=priority,
                           timeout_s=timeout).result(timeout=timeout)

    def status(self, job_id: str) -> Dict[str, Any]:
        if self._server is not None:
            return self._server.status(job_id)
        return self._get(f"/status?id={job_id}")

    def result(self, job_id: str,
               timeout: Optional[float] = None
               ) -> Union[FlowResult, ValidationResult]:
        """Wait for a job and reconstruct its typed result."""
        if self._server is not None:
            return self._server.result(job_id, timeout=timeout)
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            remaining = (None if deadline is None
                         else deadline - time.monotonic())
            if remaining is not None and remaining <= 0:
                error = JobTimeoutError(
                    f"job {job_id} not finished within the {timeout}s wait")
                error.terminal = False  # our wait expired, not the job's
                raise error
            wait_s = (RESULT_POLL_S if remaining is None
                      else min(RESULT_POLL_S, max(0.1, remaining)))
            payload = self._get(
                f"/result?id={job_id}&timeout={wait_s:.3f}",
                read_timeout=self.request_timeout_s + wait_s)
            if payload.get("pending"):
                continue  # the poll window expired; the job is in flight
            if payload.get("result_kind") == "validation":
                return ValidationResult.from_dict(payload["result"])
            return FlowResult.from_dict(payload["result"])

    def cancel(self, job_id: str) -> Dict[str, Any]:
        if self._server is not None:
            return self._server.cancel(job_id)
        return self._post("/cancel", {"job_id": job_id})

    def stats(self) -> Dict[str, Any]:
        if self._server is not None:
            return self._server.stats()
        return self._get("/stats")

    def healthz(self) -> Dict[str, Any]:
        if self._server is not None:
            return self._server.healthz()
        return self._get("/healthz")

    def metrics(self) -> str:
        """The Prometheus text of ``GET /metrics``."""
        if self._server is not None:
            return self._server.metrics_text()
        return self._get_text("/metrics")

    def trace(self, trace_id: Optional[str] = None) -> Dict[str, Any]:
        """Recorded traces: the index (no id) or one trace's spans."""
        if self._server is not None:
            return self._server.trace(trace_id)
        if trace_id is None:
            return self._get("/trace")
        return self._get(f"/trace/{trace_id}")

    def register(self, info: Mapping[str, Any]) -> Dict[str, Any]:
        """The fleet registration handshake (``POST /register``)."""
        if self._server is not None:
            return self._server.register(dict(info))
        return self._post("/register", dict(info))

    def shutdown(self, drain: bool = True) -> Dict[str, Any]:
        """Ask the server to stop (drain by default)."""
        if self._server is not None:
            self._server.initiate_shutdown(drain=drain)
            return {"ok": True, "draining": drain}
        return self._post("/shutdown", {"drain": drain})

    # ------------------------------------------------------------------ #
    # HTTP plumbing

    def _get(self, path: str,
             read_timeout: Optional[float] = None) -> Dict[str, Any]:
        return self._exchange(path, None, read_timeout)

    def _get_text(self, path: str) -> str:
        return self._exchange(path, None, None, decode_json=False)

    def _post(self, path: str,
              payload: Mapping[str, Any]) -> Dict[str, Any]:
        return self._exchange(path, json.dumps(payload).encode("utf-8"),
                              None)

    def _exchange(self, path: str, body: Optional[bytes],
                  read_timeout: Optional[float],
                  decode_json: bool = True) -> Any:
        """One request against the server URL."""
        timeout = (self.request_timeout_s if read_timeout is None
                   else read_timeout)
        headers: Dict[str, str] = {}
        if body is not None:
            headers["Content-Type"] = "application/json"
        trace_header = obs_trace.header_value()
        if trace_header is not None:
            # propagate the caller's span context across the hop so the
            # server parents its job span into the same trace
            headers[obs_trace.TRACE_HEADER] = trace_header
        request = urllib.request.Request(
            self._url + path, data=body,
            method="POST" if body is not None else "GET", headers=headers)
        try:
            with urllib.request.urlopen(request, timeout=timeout) as reply:
                text = reply.read().decode("utf-8")
        except urllib.error.HTTPError as error:
            raise self._taxonomy_error(error) from None
        except urllib.error.URLError as error:
            raise ServiceError(
                f"cannot reach the repro service at {self._url} "
                f"({error.reason})") from None
        return json.loads(text) if decode_json else text

    @staticmethod
    def _taxonomy_error(error: urllib.error.HTTPError) -> ServiceError:
        """Rebuild the server-side exception from an HTTP error payload."""
        try:
            payload = json.loads(error.read().decode("utf-8"))
        except (ValueError, OSError):
            payload = {}
        kind = _ERROR_KINDS.get(payload.get("kind"), ServiceError)
        message = payload.get("error", f"HTTP {error.code}")
        if kind is QueueFullError:
            retry_after = payload.get("retry_after_s")
            if retry_after is None:
                header = error.headers.get("Retry-After")
                retry_after = float(header) if header else 1.0
            return QueueFullError(message, retry_after_s=float(retry_after))
        return kind(message)
