"""The fleet router: consistent-hash job routing over N workers.

:class:`FleetRouter` fronts a fleet of :class:`~repro.service.server
.ReproServer` workers (in-process objects or remote URLs) behind the
*same job API* the workers speak — ``submit`` / ``status`` / ``result``
/ ``stats`` / ``healthz`` / ``metrics_text`` — so
:class:`~repro.service.client.ReproClient` (and therefore the CLI)
drives a whole fleet exactly like one worker.  The router and the worker
share one base, :class:`~repro.service.server.JobEndpoint`: the HTTP
transport, ``/trace``, ``/metrics`` and the shutdown sequence.

Routing (:mod:`repro.fleet.ring`): each submission goes to the worker
owning the consistent hash of its workload's characterization key.
Placement is a pure function of (key, ring membership) — independent of
submission order, timing, and fleet size beyond membership — and
same-key submissions always meet on one worker, so worker-local request
coalescing keeps deduplicating fleet-wide.

Failover: a healthcheck loop probes ``/healthz``; a dead worker leaves
the ring (only *its* segments move, each to its ring successor) and its
in-flight jobs are **replayed** to the successors.  Replay is safe
because results are content-addressed and digest-identical — with a
shared :class:`~repro.api.store.ArtifactStore` the replay is typically a
disk hit, not a recomputation (the registration handshake records every
worker's store root so ``stats()`` can attest the sharing).

Traffic hygiene: the router admits every well-formed submission; the
one admission gate is each worker's bounded queue (``max_pending``).  A
worker refusing work surfaces to the client as ``503 + Retry-After``
(rerouting a shed would both break same-key coalescing and overload the
neighbors; backpressure is the correct answer).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.api.results import FlowResult
from repro.api.workload import Workload
from repro.fleet.membership import (
    FleetMember,
    FleetMembership,
    build_member,
)
from repro.fleet.ring import routing_token
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
    check_wait,
    parse_job_kind,
)
from repro.service.server import JobEndpoint, ReproServer

#: Upper bound of one worker-side wait chunk while the router waits for a
#: result: short enough that a mid-wait worker death is noticed quickly,
#: long enough not to busy-poll.
RESULT_CHUNK_S = 2.0

#: How many times one job may be replayed before the router gives up
#: (beyond membership-count replays something is systematically wrong).
MAX_REPLAYS_SLACK = 2

#: How many fleet jobs the router remembers, in submission order and
#: whatever their state: each submission beyond the bound forgets the
#: oldest.  An entry holds no result (its worker keeps that), so the bound
#: is larger than a worker's history.
HISTORY_LIMIT = 1024

#: Default seconds between healthcheck sweeps (0 disables the loop;
#: :meth:`FleetRouter.check_workers` probes on demand either way).
DEFAULT_HEALTHCHECK_INTERVAL_S = 1.0


def _submit_to(member: FleetMember, workload: Workload, kind: str) -> Any:
    """Submit to one worker.  The job class is forwarded only when
    non-default, so caller-supplied member clients predating job classes
    keep working."""
    if kind == "explore":
        return member.client.submit(workload)
    return member.client.submit(workload, job=kind)


class _RoutedJob:
    """One fleet-level job: a workload pinned to a (current) worker."""

    __slots__ = ("id", "workload", "token", "kind", "worker_name",
                 "worker_job_id", "state", "coalesced", "replays",
                 "submitted_at", "trace_id")

    def __init__(self, job_id: str, workload: Workload, token: str,
                 worker_name: str, worker_job_id: str,
                 coalesced: bool, kind: str = "explore",
                 trace_id: Optional[str] = None) -> None:
        self.id = job_id
        self.workload = workload
        self.token = token
        self.kind = kind
        self.worker_name = worker_name
        self.worker_job_id = worker_job_id
        self.state = "routed"
        self.coalesced = coalesced
        self.replays = 0
        self.submitted_at = time.time()
        self.trace_id = trace_id

    def snapshot(self) -> Dict[str, Any]:
        return {
            "job_id": self.id,
            "state": self.state,
            "kind": self.kind,
            "workload": self.workload.name,
            "worker": self.worker_name,
            "worker_job_id": self.worker_job_id,
            "coalesced": self.coalesced,
            "replays": self.replays,
            "submitted_at": self.submitted_at,
            "trace_id": self.trace_id,
        }


class FleetRouter(JobEndpoint):
    """Route exploration jobs across a worker fleet (see module doc).

    ``workers`` is a sequence of worker specs — ``http://`` URLs,
    in-process :class:`ReproServer` objects, :class:`ReproClient`\\ s, or
    ``(name, spec)`` pairs.  The router handshakes with every worker at
    construction (``POST /register``), healthchecks them on
    ``healthcheck_interval_s``, and **owns** them by default: closing the
    router drains and closes the whole fleet (``close_workers=False`` to
    front workers with an independent lifecycle).  It admits every
    well-formed submission: only a worker's bounded queue sheds.
    """

    metrics_prefix = "repro_fleet"
    thread_prefix = "repro-fleet"

    def __init__(self, workers: Any = (),
                 healthcheck_interval_s: float =
                 DEFAULT_HEALTHCHECK_INTERVAL_S,
                 close_workers: bool = True) -> None:
        super().__init__()
        self._membership = FleetMembership()
        self._close_workers = close_workers
        self._lock = threading.RLock()
        self._jobs: "OrderedDict[str, _RoutedJob]" = OrderedDict()
        self._sequence = 0
        # lifetime counters
        self._routed = 0
        self._failovers = 0
        self._replays = 0
        self._shed = 0
        self._done = 0
        self._failed = 0
        self._healthcheck_stop = threading.Event()
        self._healthcheck_thread: Optional[threading.Thread] = None
        for index, spec in enumerate(workers):
            member = build_member(spec, index)
            self._membership.add(member)
            self._handshake(member)
        if healthcheck_interval_s and healthcheck_interval_s > 0:
            self._healthcheck_thread = threading.Thread(
                target=self._healthcheck_loop,
                args=(healthcheck_interval_s,),
                name="repro-fleet-healthcheck", daemon=True)
            self._healthcheck_thread.start()

    # ------------------------------------------------------------------ #
    # construction helpers

    @classmethod
    def local(cls, count: int,
              store: Union[str, Any, None] = None,
              max_pending: Optional[int] = None,
              healthcheck_interval_s: float =
              DEFAULT_HEALTHCHECK_INTERVAL_S,
              **server_kwargs: Any) -> "FleetRouter":
        """Spawn ``count`` in-process workers and a router over them.

        Each worker gets its own :class:`~repro.api.session.Session`; a
        ``store`` path makes that one directory the fleet's shared cache
        tier (a characterization synthesized on ``worker-0`` is a disk
        hit on ``worker-3``).  ``server_kwargs`` pass through to every
        :class:`ReproServer` (``on_event=``).
        """
        if count < 1:
            raise ValueError(f"count must be >= 1 (got {count})")
        workers = []
        for index in range(count):
            name = f"worker-{index}"
            server = ReproServer(store=store, max_pending=max_pending,
                                 worker_id=name, **server_kwargs)
            workers.append((name, server))
        return cls(workers, healthcheck_interval_s=healthcheck_interval_s)

    def _handshake(self, member: FleetMember) -> None:
        """Register with a worker; record its identity and store root."""
        try:
            member.registration = member.client.register({
                "router": self._identity(),
                "member_name": member.name,
            })
        except Exception:
            member.registration = None  # probed again by the healthcheck

    def _identity(self) -> str:
        if self._http_address is not None:
            return "http://{}:{}".format(*self._http_address)
        return "in-process-router"

    # ------------------------------------------------------------------ #
    # lifecycle

    @property
    def membership(self) -> FleetMembership:
        return self._membership

    def _stop_work(self, drain: bool) -> None:
        # routing already stopped with the shutdown request (see _route);
        # drain (default) and close the fleet's workers if the router owns
        # them
        self._healthcheck_stop.set()
        if self._healthcheck_thread is not None:
            self._healthcheck_thread.join(timeout=5.0)
        if self._close_workers:
            for member in self._membership.all():
                try:
                    if member.server is not None:
                        member.server.close(drain=drain)
                    else:
                        member.client.shutdown(drain=drain)
                except Exception:
                    pass  # a dead worker cannot be shut down twice

    # ------------------------------------------------------------------ #
    # healthcheck / failover

    def _healthcheck_loop(self, interval_s: float) -> None:
        while not self._healthcheck_stop.wait(interval_s):
            try:
                self.check_workers()
            except Exception:
                pass  # the loop must survive any single sweep

    def check_workers(self) -> Dict[str, List[str]]:
        """One synchronous healthcheck sweep; replays the in-flight jobs
        of every newly-dead worker onto its ring successors."""
        newly_dead, newly_alive = self._membership.healthcheck()
        for name in newly_alive:
            # a worker that came back re-handshakes (it may have restarted
            # and lost the registration)
            self._handshake(self._membership.get(name))
        for name in newly_dead:
            self._on_worker_death(name)
        return {"newly_dead": newly_dead, "newly_alive": newly_alive}

    def _on_worker_death(self, name: str) -> None:
        with self._lock:
            self._failovers += 1
            stranded = [job for job in self._jobs.values()
                        if job.state == "routed"
                        and job.worker_name == name]
        for job in stranded:
            try:
                self._replay(job)
            except Exception:
                pass  # the result() waiter retries and surfaces the error

    def _replay(self, job: _RoutedJob) -> None:
        """Resubmit a stranded job to the ring successor (idempotent:
        results are content-addressed, so a double-run is digest-identical
        and usually a shared-store disk hit)."""
        with self._lock:
            if job.state != "routed":
                return
            if job.replays >= len(self._membership.all()) + MAX_REPLAYS_SLACK:
                raise ServiceError(
                    f"job {job.id} exhausted its replay budget "
                    f"({job.replays} replays)")
        preference = self._membership.preference(job.token)
        if not preference:
            raise QueueFullError(
                "no alive workers to replay onto; retry when the fleet "
                "recovers", retry_after_s=5.0)
        # a dead worker is already off the ring, so `preference` never
        # names it; a *restarted* worker (alive, job lost) is preference[0]
        # again and correctly receives the fresh resubmission
        last_error: Optional[Exception] = None
        for member in preference:
            try:
                handle = _submit_to(member, job.workload, job.kind)
            except (QueueFullError, ServiceError) as error:
                last_error = error
                continue
            with self._lock:
                job.worker_name = member.name
                job.worker_job_id = handle.id
                job.replays += 1
                self._replays += 1
                member.jobs_routed += 1
            return
        raise last_error if last_error is not None else ServiceError(
            f"no worker accepted the replay of job {job.id}")

    # ------------------------------------------------------------------ #
    # the job API (same verbs as ReproServer; the HTTP handler is shared)

    def submit(self, workload: Union[Workload, Mapping[str, Any]],
               job: Optional[str] = None) -> Dict[str, Any]:
        """Place and file a workload; returns the fleet receipt.

        Consistent-hash placement, then the home worker's own bounded
        queue — whose shed (``QueueFullError``) propagates to the caller
        untouched: backpressure is end-to-end, never rerouted.  ``job``
        selects the job class (``explore``/``validate``) and is forwarded
        to the home worker; placement ignores it, so a validation lands
        on the worker whose caches the matching exploration warmed.
        """
        if not isinstance(workload, Workload):
            workload = Workload.from_dict(workload)
        with obs_trace.span("fleet.route",
                            workload=workload.name) as route_span:
            return self._route(workload, job, route_span)

    def _route(self, workload: Workload, job: Optional[str],
               route_span: Any) -> Dict[str, Any]:
        kind = parse_job_kind(job)
        if self._shutdown_requested.is_set():
            raise ServiceClosedError(
                "the fleet router is draining and accepts no new jobs")
        token = routing_token(workload)
        preference = self._membership.preference(token)
        if not preference:
            with self._lock:
                self._shed += 1
            raise QueueFullError(
                "no alive workers in the fleet; retry when one recovers",
                retry_after_s=5.0)
        last_error: Optional[Exception] = None
        for member in preference:
            try:
                handle = _submit_to(member, workload, kind)
            except (QueueFullError, FleetOverloadedError) as shed:
                # FleetOverloadedError can only come from a caller-supplied
                # member client with its own retry budget; either way the
                # shed propagates — end-to-end backpressure (see docstring)
                with self._lock:
                    self._shed += 1
                raise shed
            except ServiceError as error:
                # unreachable/draining worker: confirm, fail over to the
                # ring successor (the next preference entry)
                last_error = error
                if self._membership.mark_dead(member.name):
                    self._on_worker_death(member.name)
                continue
            # the worker's receipt names the trace its job span joined
            # (this router's own trace when the header propagated); fall
            # back to the route span's trace for untraced workers
            trace_id = (getattr(handle, "trace_id", None)
                        or (route_span.context_payload() or {}).get(
                            "trace_id"))
            route_span.set_attributes(worker=member.name, token=token)
            with self._lock:
                self._sequence += 1
                job = _RoutedJob(f"fleet-{self._sequence}", workload,
                                 token, member.name, handle.id,
                                 handle.coalesced, kind=kind,
                                 trace_id=trace_id)
                self._jobs[job.id] = job
                while len(self._jobs) > HISTORY_LIMIT:
                    # a result() already waiting holds its job object
                    self._jobs.popitem(last=False)
                self._routed += 1
                member.jobs_routed += 1
            return job.snapshot()
        raise last_error if last_error is not None else ServiceError(
            "no worker accepted the submission")

    def _job(self, job_id: str) -> _RoutedJob:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJobError(
                f"unknown fleet job {job_id!r} (jobs are remembered for "
                f"the last {HISTORY_LIMIT} submissions)")
        return job

    def status(self, job_id: str) -> Dict[str, Any]:
        """The fleet-level snapshot, merged with the worker's view."""
        job = self._job(job_id)
        snapshot = job.snapshot()
        member = self._membership.get(job.worker_name)
        try:
            worker_view = member.client.status(job.worker_job_id)
        except Exception:
            worker_view = None  # worker gone; the fleet view stands
        if worker_view is not None:
            if job.state == "routed":
                snapshot["state"] = worker_view["state"]
            snapshot["worker_status"] = worker_view
        return snapshot

    def result(self, job_id: str,
               timeout: Optional[float] = None) -> Any:
        """Wait for a fleet job, following it across failovers; a
        :class:`FlowResult` for ``explore`` jobs, a
        :class:`~repro.api.results.ValidationResult` for ``validate``.

        The wait is chunked (:data:`RESULT_CHUNK_S`) so a worker dying
        mid-wait is noticed within a chunk: the router probes the worker,
        replays the job onto the ring successor, and keeps waiting there.
        Zero jobs are lost to a worker death — replays are idempotent by
        content-addressing.  ``timeout`` bounds only this wait
        (:class:`JobTimeoutError` leaves the job in flight); a NaN,
        infinite or negative one is a :class:`ValueError`.
        """
        check_wait(timeout)
        job = self._job(job_id)
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        while True:
            remaining = (None if deadline is None
                         else deadline - time.monotonic())
            if remaining is not None and remaining <= 0:
                raise JobTimeoutError(
                    f"fleet job {job.id} not finished within the "
                    f"{timeout}s wait (state: {job.state})")
            chunk = (RESULT_CHUNK_S if remaining is None
                     else max(0.05, min(RESULT_CHUNK_S, remaining)))
            with self._lock:
                member = self._membership.get(job.worker_name)
                worker_job_id = job.worker_job_id
            try:
                result = member.client.result(worker_job_id,
                                              timeout=chunk)
            except JobTimeoutError:
                continue  # just this chunk expired; wait again
            except JobFailedError:
                with self._lock:
                    job.state = "failed"
                    self._failed += 1
                raise
            except (JobCancelledError, UnknownJobError,
                    ServiceClosedError, ServiceError) as error:
                # Either the job failed *with* its worker (replayable) or
                # the error is job-level on a healthy worker (final).
                self._failover_or_raise(job, member, error)
                continue
            with self._lock:
                job.state = "done"
                self._done += 1
            return result

    def _failover_or_raise(self, job: _RoutedJob, member: FleetMember,
                           error: Exception) -> None:
        if isinstance(error, UnknownJobError):
            # the worker restarted (or evicted the job from history) while
            # the fleet entry is still in flight: replay, don't surface —
            # content-addressing makes the rerun digest-identical
            self._replay(job)
            return
        if member.alive and member.probe():
            # the worker is healthy, so the error is about the job itself
            with self._lock:
                job.state = "failed"
                self._failed += 1
            raise error
        if self._membership.mark_dead(member.name):
            with self._lock:
                self._failovers += 1
        self._replay(job)

    # ------------------------------------------------------------------ #
    # introspection

    def stats(self) -> Dict[str, Any]:
        """Fleet-wide aggregation: router counters, per-worker stats,
        and the cross-fleet totals (queue depths, coalesce rates, store
        counters) the north star asks a fleet operator to watch."""
        members = self._membership.all()
        workers: Dict[str, Any] = {}
        aggregate = {
            "submitted": 0, "coalesced": 0, "completed": 0, "failed": 0,
            "pending": 0, "running": 0, "shed": 0,
            "store_disk_hits": 0, "store_writes": 0, "synthesis_runs": 0,
        }
        store_roots = set()
        for member in members:
            entry = member.snapshot()
            try:
                worker_stats = member.client.stats()
            except Exception:
                worker_stats = None
            entry["stats"] = worker_stats
            workers[member.name] = entry
            if worker_stats is not None:
                queue = worker_stats.get("queue", {})
                session = worker_stats.get("session", {})
                for key in ("submitted", "coalesced", "completed",
                            "failed", "pending", "running", "shed"):
                    aggregate[key] += queue.get(key) or 0
                aggregate["store_disk_hits"] += (
                    session.get("store_disk_hits") or 0)
                aggregate["store_writes"] += session.get("store_writes") or 0
                aggregate["synthesis_runs"] += (
                    session.get("synthesis_runs") or 0)
            if entry["store_root"] is not None:
                store_roots.add(entry["store_root"])
        submitted = aggregate["submitted"]
        aggregate["coalesce_hit_rate"] = (
            aggregate["coalesced"] / submitted if submitted else 0.0)
        with self._lock:
            router = {
                "routed": self._routed,
                "failovers": self._failovers,
                "replays": self._replays,
                "shed": self._shed,
                "done": self._done,
                "failed": self._failed,
                "inflight": sum(1 for job in self._jobs.values()
                                if job.state == "routed"),
            }
        return {
            **self._lifecycle_stats(),
            "router": router,
            "membership": self._membership.counters(),
            "ring": {"members": list(self._membership.ring.members),
                     "replicas": self._membership.ring.replicas},
            "store_shared": len(store_roots) <= 1,
            "store_roots": sorted(store_roots),
            "workers": workers,
            "aggregate": aggregate,
        }

    def healthz(self) -> Dict[str, Any]:
        state = self._state()
        counters = self._membership.counters()
        ok = state == "serving" and counters["workers_alive"] > 0
        return {
            "ok": ok,
            "state": state,
            "uptime_s": time.time() - self._started_at,
            "workers_alive": counters["workers_alive"],
            "workers_total": counters["workers_total"],
        }

    def register(self, info: Mapping[str, Any]) -> Dict[str, Any]:
        """A worker announcing itself (``POST /register`` on the router).

        ``python -m repro serve --announce <router-url>`` posts here
        after binding; the router adds (or revives) the member and
        handshakes back, completing the two-way registration.  A worker
        restarted under the same name at a new address is moved there:
        its ring name, and so its placement, stays the same.
        """
        url = info.get("url")
        if not url:
            raise ValueError(
                "worker registration needs a 'url' field to route to")
        url = str(url).rstrip("/")
        name = info.get("name") or url
        try:
            member = self._membership.relocate(name, url)
            self._membership.mark_alive(name)
        except KeyError:
            member = self._membership.add(build_member((name, url), 0))
        self._handshake(member)
        counters = self._membership.counters()
        return {
            "ok": True,
            "member_name": name,
            "workers_alive": counters["workers_alive"],
            "workers_total": counters["workers_total"],
        }
