"""Service mode: a long-lived exploration daemon with coalescing clients.

The batch API answers one process's workloads; ``repro.service`` serves
*everyone's*.  One `ReproServer` owns a single shared `Session`, so every
client that hits it — in-process or over HTTP — shares one
characterization cache and one persistent store binding.  This demo shows
the service tier on top of that sharing:

1. request coalescing — concurrent identical submissions ride one
   computation and all get the same result;
2. the HTTP transport — the same protocol over the wire, stdlib only.

Run with:  PYTHONPATH=src python examples/service_demo.py

Shell equivalent of the HTTP part:

    python -m repro serve --store ~/.cache/repro &
    python -m repro submit blur
"""

from repro.api import Workload
from repro.service import ReproClient, ReproServer

#: Small knobs so the demo finishes in seconds.
SMALL = dict(iterations=4, window_sides=(1, 2, 3), max_depth=2,
             max_cones_per_depth=4, frame_width=640, frame_height=480)


def main() -> None:
    blur = Workload.from_algorithm("blur", **SMALL)

    # ------------------------------------------------------------------ #
    # 1. coalescing: 8 "users" ask for the same exploration at once; the
    #    queue folds them onto one job and the session synthesizes once.
    with ReproServer(start=False) as server:   # paused: let the burst land
        client = ReproClient(server)
        handles = [client.submit(blur) for _ in range(8)]
        server.start()
        results = [handle.result(timeout=60) for handle in handles]
        stats = server.stats()
        print(f"coalescing: {stats['queue']['submitted']} submissions -> "
              f"{stats['queue']['completed']} computation(s), hit-rate "
              f"{stats['queue']['coalesce_hit_rate']:.0%}, "
              f"{stats['session']['synthesis_runs']} synthesis runs, "
              f"{len(results[0].pareto)} Pareto points each")

    # ------------------------------------------------------------------ #
    # 2. the same protocol over HTTP, stdlib only (what `python -m repro
    #    serve` + `python -m repro submit` speak)
    server = ReproServer()
    try:
        host, port = server.serve_http("127.0.0.1", 0)  # 0 = ephemeral
        remote = ReproClient(f"http://{host}:{port}")
        print(f"http:       {remote.healthz()['state']} on port {port}; "
              f"blur over the wire -> "
              f"{len(remote.run(blur, timeout=60).pareto)} Pareto points "
              f"(served from the session cache)")
    finally:
        server.close()


if __name__ == "__main__":
    main()
