"""Fleet mode: a consistent-hash routed worker fleet with shared caching.

``repro.service`` scales one machine; ``repro.fleet`` scales N of them.  A
`FleetRouter` fronts N `ReproServer` workers and routes every submission by
a consistent hash of the workload's characterization key, so placement is a
pure function of (key, worker ring) — independent of submission order,
timing, or which router process computes it.  This demo shows the four
fleet-tier behaviors on top of the service tier:

1. deterministic placement — two independently built fleets place the same
   workloads on the same workers, and same-key duplicates land on the same
   worker so request coalescing keeps working fleet-wide;
2. shared-store warming — a workload synthesized anywhere in the fleet is
   a disk hit everywhere else, because the workers share one artifact
   store: the fleet's second tier of caching;
3. failover — killing a worker moves only its ring segment to the
   successor, and its in-flight jobs are replayed idempotently;
4. load shedding — bounded worker queues, the fleet's one admission gate,
   shed bursts with a ``Retry-After`` hint the retrying client honors.

Run with:  PYTHONPATH=src python examples/fleet_demo.py

Shell equivalent (real processes, one router + two workers):

    python -m repro serve --port 8101 --store /tmp/repro-store &
    python -m repro serve --port 8102 --store /tmp/repro-store &
    python -m repro fleet --port 8100 \
        --worker a=http://127.0.0.1:8101 --worker b=http://127.0.0.1:8102 &
    python -m repro submit blur --fleet http://127.0.0.1:8100
"""

import tempfile
import threading

from repro.api import Session, Workload
from repro.fleet import FleetRouter, routing_token
from repro.service import QueueFullError, ReproClient

#: Small knobs so the demo finishes in seconds.
SMALL = dict(iterations=4, window_sides=(1, 2, 3), max_depth=2,
             max_cones_per_depth=4, frame_width=640, frame_height=480)


def main() -> None:
    workloads = [Workload.from_algorithm(name, **SMALL)
                 for name in ("blur", "erode", "jacobi")]

    # ------------------------------------------------------------------ #
    # 1. placement is a pure function of the characterization key and the
    #    worker ring: two independently built fleets agree on every
    #    placement, before a single job is submitted.
    with FleetRouter.local(4) as first, FleetRouter.local(4) as second:
        placements = {
            workload.name: first.membership.ring.owner(
                routing_token(workload))
            for workload in workloads}
        agreed = all(
            second.membership.ring.owner(routing_token(w)) == placements[
                w.name] for w in workloads)
        print(f"placement:  {placements} "
              f"(two independent fleets agree: {agreed})")

    # ------------------------------------------------------------------ #
    # 2. shared-store warming: one direct session pays the synthesis cost,
    #    then a 2-worker fleet sharing the same store serves every request
    #    from disk — zero synthesizer invocations anywhere in the fleet.
    with tempfile.TemporaryDirectory() as store:
        Session(store=store).run(workloads[0])          # warm the store
        with FleetRouter.local(2, store=store) as fleet:
            client = ReproClient(fleet)
            client.submit(workloads[0]).result(timeout=60)
            stats = fleet.stats()
            print(f"warming:    served from the shared store — aggregate "
                  f"synthesis_runs={stats['aggregate']['synthesis_runs']}, "
                  f"store_disk_hits={stats['aggregate']['store_disk_hits']},"
                  f" store_shared={stats['store_shared']}")

        # 3. failover: land a burst on a paused fleet, kill one worker,
        #    and let the router replay its stranded jobs on the successor.
        with FleetRouter.local(2, store=store,
                               healthcheck_interval_s=0,
                               start=False) as fleet:
            client = ReproClient(fleet)
            handles = [client.submit(each) for each in workloads]
            victim = fleet.membership.ring.owner(
                routing_token(workloads[-1]))
            survivor = next(m.name for m in fleet.membership.all()
                            if m.name != victim)
            fleet.membership.get(survivor).server.start()
            fleet.membership.get(victim).server.close(drain=False)
            fleet.check_workers()
            pareto_sizes = [len(h.result(timeout=120).pareto)
                            for h in handles]
            stats = fleet.stats()["router"]
            print(f"failover:   killed {victim}; {stats['replays']} "
                  f"job(s) replayed on {survivor}, all "
                  f"{len(pareto_sizes)} results delivered")

    # ------------------------------------------------------------------ #
    # 4. load shedding: a paused worker with a one-slot queue sheds the
    #    overflow with a Retry-After hint; the retrying client backs off
    #    (capped exponential + seeded jitter) and recovers once the
    #    worker starts draining.
    with FleetRouter.local(1, max_pending=1, start=False) as fleet:
        raw = ReproClient(fleet, retries=0)       # surface the shed
        raw.submit(workloads[0])                  # fills the only slot
        try:
            raw.submit(workloads[1])
        except QueueFullError as shed:
            print(f"shedding:   queue full -> retry after "
                  f"{shed.retry_after_s:.2f}s")
        retrying = ReproClient(fleet, retries=6, backoff_base_s=0.05,
                               backoff_cap_s=0.2, retry_jitter_seed=7)
        threading.Timer(
            0.15, fleet.membership.get("worker-0").server.start).start()
        handle = retrying.submit(workloads[1])    # retries until admitted
        handle.result(timeout=60)
        print(f"recovery:   retrying client got the result anyway "
              f"(router shed {fleet.stats()['router']['shed']} "
              f"submission(s) along the way)")

    # ------------------------------------------------------------------ #
    # everything above is also scrape-able: workers and the router expose
    # Prometheus text metrics (GET /metrics) rendered from stats().
    with FleetRouter.local(2) as fleet:
        lines = [line for line in fleet.metrics_text().splitlines()
                 if line.startswith("repro_fleet_membership")]
        print("metrics:    " + "; ".join(lines))


if __name__ == "__main__":
    main()
