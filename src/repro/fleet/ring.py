"""Consistent-hash placement: which worker owns a characterization key.

The router places every submission by the **consistent hash of its
workload's characterization key** (:meth:`repro.api.Workload
.characterization_key`), the key a session shares cone characterizations
under, lifted from "which explorer of this session" to "which worker of
this fleet".  Placement is a pure function of ``(key token, ring
membership)``:

* independent of submission order, timing, and fleet history — replaying
  a trace in any order lands every job on the same worker;
* same-key jobs always land on the same worker, so the worker-local
  request coalescing of :mod:`repro.service` keeps working fleet-wide
  (two users asking for the same exploration meet in one queue);
* **minimal disruption**: removing a member moves *only that member's*
  segments to their ring successors, and adding one steals segments only
  for itself — every other key keeps its owner (asserted in
  ``tests/fleet/test_ring.py``).

Hashing is :func:`hashlib.sha256` over deterministic strings (member
names and key tokens), never built-in ``hash()`` — placement must agree
across processes and ``PYTHONHASHSEED`` values.  Each member is placed at
``replicas`` points on the ring (virtual nodes) so segment sizes stay
balanced at small fleet sizes.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, Iterable, List, Optional, Tuple

from repro.api.workload import Workload

#: Virtual nodes per member: enough to keep max/mean segment skew low for
#: single-digit fleets while keeping ring edits cheap.
DEFAULT_REPLICAS = 64


def _hash_point(text: str) -> int:
    """A point on the ring (first 8 bytes of sha256, big-endian)."""
    return int.from_bytes(
        hashlib.sha256(text.encode("utf-8")).digest()[:8], "big")


def routing_token(workload: Workload) -> str:
    """The deterministic string the ring hashes for a workload.

    Derived from :meth:`Workload.characterization_key` — the identity
    used for sharding (PR 3) and characterization caching, so everything
    that would share synthesis/calibration work routes to one worker.
    ``repr`` of the key tuple is deterministic (frozen dataclasses,
    enums, strings, numbers — no set/dict iteration order, no id()s).
    """
    return hashlib.sha256(
        repr(workload.characterization_key()).encode("utf-8")).hexdigest()


class HashRing:
    """A consistent-hash ring over named members (virtual-node variant)."""

    def __init__(self, members: Iterable[str] = (),
                 replicas: int = DEFAULT_REPLICAS) -> None:
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1 (got {replicas})")
        self._replicas = replicas
        #: Sorted virtual-node points and their parallel owner list.
        self._points: List[int] = []
        self._owners: List[str] = []
        self._members: Dict[str, Tuple[int, ...]] = {}
        for member in members:
            self.add(member)

    # ------------------------------------------------------------------ #
    # membership

    def add(self, member: str) -> None:
        """Place ``member`` on the ring (idempotent)."""
        if not member:
            raise ValueError("member name must be non-empty")
        if member in self._members:
            return
        points = tuple(_hash_point(f"{member}#{replica}")
                       for replica in range(self._replicas))
        self._members[member] = points
        for point in points:
            index = bisect.bisect(self._points, point)
            self._points.insert(index, point)
            self._owners.insert(index, member)

    def remove(self, member: str) -> None:
        """Take ``member`` off the ring (idempotent); its segments fall
        to their ring successors, every other segment stays put."""
        if member not in self._members:
            return
        del self._members[member]
        keep = [(point, owner) for point, owner
                in zip(self._points, self._owners) if owner != member]
        self._points = [point for point, _owner in keep]
        self._owners = [owner for _point, owner in keep]

    @property
    def members(self) -> Tuple[str, ...]:
        """Current membership, sorted (identity of the ring)."""
        return tuple(sorted(self._members))

    @property
    def replicas(self) -> int:
        return self._replicas

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, member: str) -> bool:
        return member in self._members

    # ------------------------------------------------------------------ #
    # placement

    def owner(self, token: str) -> str:
        """The member owning ``token`` (the first point at or after its
        hash, wrapping at the top of the ring)."""
        preference = self.preference(token, count=1)
        if not preference:
            raise LookupError("the ring has no members")
        return preference[0]

    def preference(self, token: str,
                   count: Optional[int] = None) -> List[str]:
        """The failover order for ``token``: its owner, then each next
        *distinct* member walking clockwise.

        ``count`` caps the list (default: every member).  The first entry
        is :meth:`owner`; entry ``i+1`` is where ``token``'s jobs replay
        if the first ``i+1`` owners die — successor failover, the same
        walk :class:`~repro.fleet.router.FleetRouter` performs.
        """
        if not self._members:
            return []
        if count is None:
            count = len(self._members)
        start = bisect.bisect(self._points, _hash_point(token))
        ordered: List[str] = []
        seen = set()
        for offset in range(len(self._points)):
            owner = self._owners[(start + offset) % len(self._points)]
            if owner not in seen:
                seen.add(owner)
                ordered.append(owner)
                if len(ordered) >= count:
                    break
        return ordered
