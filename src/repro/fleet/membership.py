"""Fleet membership: worker records, liveness, and the live ring.

A :class:`FleetMember` pairs a stable member name (what the ring hashes)
with a :class:`~repro.service.client.ReproClient` to an in-process
:class:`~repro.service.server.ReproServer` or a remote ``http://`` URL.
:class:`FleetMembership` owns the set of members and the
:class:`~repro.fleet.ring.HashRing` built over the *alive* subset:
marking a member dead removes it from the ring (its segments fall to the
successors), marking it alive again restores it.

Liveness is probed through the worker's own ``/healthz`` — a worker that
answers but reports itself draining/stopped counts as dead for placement
(it refuses new jobs).  Registration handshakes (``POST /register``)
record each worker's identity and store root so the router can verify
the fleet shares one :class:`~repro.api.store.ArtifactStore` — the
shared cache tier that makes failover replays disk hits instead of
recomputations.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.service.client import ReproClient
from repro.fleet.ring import HashRing


class FleetMember:
    """One worker as the router sees it (mutated under membership lock)."""

    def __init__(self, name: str, client: ReproClient,
                 url: Optional[str] = None,
                 server: Optional[Any] = None) -> None:
        self.name = name
        self.client = client
        #: The HTTP endpoint (None for in-process members).
        self.url = url
        #: The in-process server, when the router owns/wraps one.
        self.server = server
        self.alive = True
        #: The worker's answer to the registration handshake.
        self.registration: Optional[Dict[str, Any]] = None
        self.last_checked_at: Optional[float] = None
        #: Jobs this router routed here (placement census).
        self.jobs_routed = 0

    def probe(self) -> bool:
        """One liveness probe (no state mutation; membership decides)."""
        try:
            health = self.client.healthz()
        except Exception:
            return False
        return bool(health.get("ok"))

    def snapshot(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "url": self.url,
            "in_process": self.url is None,
            "alive": self.alive,
            "jobs_routed": self.jobs_routed,
            "worker_id": (None if self.registration is None
                          else self.registration.get("worker_id")),
            "store_root": (None if self.registration is None
                           else self.registration.get("store_root")),
        }


class FleetMembership:
    """The member set plus the ring over its alive subset (thread-safe)."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._members: Dict[str, FleetMember] = {}
        self._ring = HashRing()
        self._deaths = 0
        self._revivals = 0

    # ------------------------------------------------------------------ #
    # membership edits

    def add(self, member: FleetMember) -> FleetMember:
        with self._lock:
            if member.name in self._members:
                raise ValueError(
                    f"fleet member {member.name!r} already exists")
            self._members[member.name] = member
            self._ring.add(member.name)
            return member

    def get(self, name: str) -> FleetMember:
        with self._lock:
            member = self._members.get(name)
        if member is None:
            raise KeyError(f"unknown fleet member {name!r}")
        return member

    def relocate(self, name: str, url: str) -> FleetMember:
        """Point remote member ``name`` at ``url``; its ring name stays.

        Raises ``KeyError`` for an unknown name and ``ValueError`` for an
        in-process member, which has no address to move.
        """
        with self._lock:
            member = self.get(name)
            if member.url != url:
                if member.url is None:
                    raise ValueError(
                        f"fleet member {name!r} is an in-process worker; "
                        f"it cannot be announced at {url!r}")
                member.client = ReproClient(url, retries=0)
                member.url = url
            return member

    def mark_dead(self, name: str) -> bool:
        """Remove ``name`` from placement; True if it was alive before."""
        with self._lock:
            member = self._members.get(name)
            if member is None or not member.alive:
                return False
            member.alive = False
            self._ring.remove(name)
            self._deaths += 1
            return True

    def mark_alive(self, name: str) -> bool:
        """Restore ``name`` to placement; True if it was dead before."""
        with self._lock:
            member = self._members.get(name)
            if member is None or member.alive:
                return False
            member.alive = True
            self._ring.add(name)
            self._revivals += 1
            return True

    # ------------------------------------------------------------------ #
    # placement

    def preference(self, token: str) -> List[FleetMember]:
        """Alive members in failover order for ``token`` (owner first)."""
        with self._lock:
            return [self._members[name]
                    for name in self._ring.preference(token)]

    def alive(self) -> List[FleetMember]:
        with self._lock:
            return [member for member in self._members.values()
                    if member.alive]

    def all(self) -> List[FleetMember]:
        with self._lock:
            return list(self._members.values())

    @property
    def ring(self) -> HashRing:
        return self._ring

    # ------------------------------------------------------------------ #
    # liveness sweep

    def healthcheck(self) -> Tuple[List[str], List[str]]:
        """Probe every member; returns ``(newly_dead, newly_alive)``.

        A member is marked dead on its first failed probe, and alive again
        on its first successful one.
        """
        newly_dead: List[str] = []
        newly_alive: List[str] = []
        for member in self.all():
            ok = member.probe()
            with self._lock:
                member.last_checked_at = time.time()
                if ok:
                    if self.mark_alive(member.name):
                        newly_alive.append(member.name)
                elif self.mark_dead(member.name):
                    newly_dead.append(member.name)
        return newly_dead, newly_alive

    def counters(self) -> Dict[str, int]:
        with self._lock:
            return {
                "workers_total": len(self._members),
                "workers_alive": sum(1 for m in self._members.values()
                                     if m.alive),
                "deaths": self._deaths,
                "revivals": self._revivals,
            }


def build_member(spec: Union[str, Tuple[str, Any], Any],
                 index: int) -> FleetMember:
    """Normalize a worker spec into a :class:`FleetMember`.

    ``spec`` may be an ``http://`` URL string, an in-process server-like
    object (``ReproServer``), a ready :class:`ReproClient`, or a
    ``(name, any-of-the-above)`` pair.  Default names: ``worker-<index>``
    for in-process members, the URL for remote ones.
    """
    name: Optional[str] = None
    if (isinstance(spec, tuple) and len(spec) == 2
            and isinstance(spec[0], str)):
        name, spec = spec
    # router-internal clients run with retries=0: a worker's shed must
    # propagate to the router (and on to the end client) immediately,
    # never be absorbed by an intermediate retry loop
    if isinstance(spec, str):
        client = ReproClient(spec, retries=0)
        return FleetMember(name or spec.rstrip("/"), client,
                           url=spec.rstrip("/"))
    if isinstance(spec, ReproClient):
        url = spec._url
        return FleetMember(name or url or f"worker-{index}", spec, url=url)
    if hasattr(spec, "submit") and hasattr(spec, "result"):
        return FleetMember(name or f"worker-{index}",
                           ReproClient(spec, retries=0), server=spec)
    raise ValueError(
        f"worker spec must be a URL, a server object, a ReproClient, or "
        f"a (name, spec) pair (got {spec!r})")
