"""The worker-fleet tier: consistent-hash routing over N exploration servers.

``repro.fleet`` scales the single-server service tier (:mod:`repro.service`)
horizontally: a :class:`FleetRouter` fronts N :class:`~repro.service.server
.ReproServer` workers behind the *same job API* (``submit`` / ``status`` /
``result`` / ``stats`` / ``healthz`` / ``metrics``), so
:class:`~repro.service.ReproClient`, the CLI, and the HTTP transport all
drive a fleet exactly like one worker; the router inherits the worker's
listener and shutdown sequence from :class:`~repro.service.server
.JobEndpoint`.  Four properties define the tier:

* **deterministic placement** — every submission routes by the consistent
  hash of its workload's characterization key (:mod:`repro.fleet.ring`):
  placement is a pure function of ``(key, ring membership)``, independent of
  submission order and timing, and same-key submissions always meet on one
  worker — so worker-local request coalescing keeps deduplicating
  fleet-wide, and a replayed trace is digest-identical at any fleet size;
* **shared-store cache warming** — workers share one content-addressed
  :class:`~repro.api.store.ArtifactStore`: a characterization synthesized on
  worker A is a disk hit on worker B (zero synthesizer invocations), which
  is what makes failover replays cheap and idempotent;
* **failover** — a healthcheck loop takes dead workers off the ring (only
  *their* segments move, each to its ring successor) and replays their
  in-flight jobs; killing a worker mid-burst loses zero jobs;
* **load shedding** — bounded worker queues (``max_pending``) are the
  fleet's one admission gate: a full queue sheds with ``503 +
  Retry-After`` end-to-end, and clients retry with capped, seeded
  backoff.  The router admits every well-formed submission.

Quick start::

    from repro.fleet import FleetRouter
    from repro.service import ReproClient
    from repro.api import Workload

    with FleetRouter.local(4, store="~/.cache/repro") as fleet:
        client = ReproClient(fleet)
        result = client.run(Workload.from_algorithm("blur"))

Shell equivalent: ``python -m repro fleet --workers 4 --store
~/.cache/repro`` then ``python -m repro submit blur --fleet http://...``.
"""

from repro.fleet.membership import FleetMember, FleetMembership
from repro.fleet.ring import DEFAULT_REPLICAS, HashRing, routing_token
from repro.fleet.router import FleetRouter

__all__ = [
    "DEFAULT_REPLICAS",
    "FleetMember",
    "FleetMembership",
    "FleetRouter",
    "HashRing",
    "routing_token",
]
