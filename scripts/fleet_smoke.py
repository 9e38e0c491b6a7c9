#!/usr/bin/env python
"""End-to-end smoke of the fleet tier (``scripts/check.sh --fleet``).

Boots two ``python -m repro serve`` workers and one ``python -m repro
fleet`` router as real subprocesses on ephemeral ports — three separate
OS processes sharing one artifact-store directory — then:

* submits workloads through the router over HTTP and asserts every served
  result is digest-identical to a direct ``Session.run`` reference;
* asserts consistent-hash placement routed across the registered workers
  and that the router attests the shared store (``store_shared``);
* drains the whole fleet (router + both workers) and requires every
  process to exit 0.

Usage::

    PYTHONPATH=src python scripts/fleet_smoke.py
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.api import Session, Workload  # noqa: E402
from repro.service import ReproClient  # noqa: E402

#: Small knobs: the smoke verifies plumbing, not paper-scale numbers.
SMALL = dict(iterations=4, window_sides=(1, 2, 3), max_depth=2,
             max_cones_per_depth=3, frame_width=320, frame_height=240)

#: Spread across both workers of a 2-member ring (see tests/fleet).
ALGORITHMS = ["blur", "erode", "jacobi"]

WORKER_PATTERN = re.compile(
    r"repro service listening on (http://[\d.]+:\d+)")
ROUTER_PATTERN = re.compile(
    r"repro fleet listening on (http://[\d.]+:\d+)")


def digest(result) -> str:
    return hashlib.sha256(json.dumps(result.to_dict(),
                                     sort_keys=True).encode()).hexdigest()


def spawn(arguments, pattern):
    env = dict(os.environ)
    env["PYTHONPATH"] = (os.path.join(REPO_ROOT, "src") + os.pathsep
                         + env.get("PYTHONPATH", ""))
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", *arguments],
        env=env, cwd=REPO_ROOT, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True)
    line = process.stdout.readline()
    match = pattern.search(line)
    if match is None:
        process.kill()
        raise SystemExit(f"error: {arguments[0]} did not announce its "
                         f"address (got {line!r})")
    return process, match.group(1)


def main() -> int:
    workloads = [Workload.from_algorithm(name, **SMALL)
                 for name in ALGORITHMS]
    with tempfile.TemporaryDirectory(prefix="repro-fleet-smoke-") as store:
        print("computing direct-session reference digests...")
        expected = [digest(Session(store=store).run(each))
                    for each in workloads]

        print("starting 2 `repro serve` workers + 1 `repro fleet` "
              "router...")
        processes = []
        try:
            workers = []
            for index in range(2):
                process, url = spawn(
                    ["serve", "--port", "0", "--quiet",
                     "--store", store,
                     "--worker-id", f"smoke-worker-{index}"],
                    WORKER_PATTERN)
                processes.append(process)
                workers.append(url)
                print(f"  worker {index} at {url}")
            # NAME=URL pins the ring identity so the 3-key placement
            # split across both workers is deterministic run-to-run
            router_process, router_url = spawn(
                ["fleet", "--port", "0",
                 "--worker", f"worker-0={workers[0]}",
                 "--worker", f"worker-1={workers[1]}",
                 "--healthcheck-interval", "0.5"],
                ROUTER_PATTERN)
            processes.append(router_process)
            print(f"  router at {router_url}")

            client = ReproClient(router_url)
            health = client.healthz()
            assert health["ok"] and health["workers_alive"] == 2, health

            served = []
            for each in workloads:
                handle = client.submit(each)
                served.append(digest(handle.result(timeout=180)))
            assert served == expected, (
                f"fleet digests diverged from direct Session.run:\n"
                f"  served:   {served}\n  expected: {expected}")
            print(f"  {len(workloads)} workloads served through the "
                  f"router, digests identical to direct runs")

            stats = client.stats()
            assert stats["router"]["routed"] == len(workloads), \
                stats["router"]
            assert stats["store_shared"] is True, stats["store_roots"]
            placement = {name: entry["jobs_routed"]
                         for name, entry in stats["workers"].items()}
            assert sum(placement.values()) == len(workloads), placement
            assert all(count > 0 for count in placement.values()), (
                f"placement did not spread across the fleet: {placement}")
            print(f"  placement {placement}, store_shared=True, "
                  f"aggregate synthesis_runs="
                  f"{stats['aggregate']['synthesis_runs']}")

            # drain the whole fleet: the router first (attach-mode fleets
            # leave worker lifecycles independent), then each worker
            client.shutdown(drain=True)
            returncode = router_process.wait(timeout=60)
            assert returncode == 0, f"router exited with {returncode}"
            for url in workers:
                ReproClient(url).shutdown(drain=True)
        except BaseException:
            for process in processes:
                process.kill()
            raise
        for process in processes:
            returncode = process.wait(timeout=60)
            assert returncode == 0, (
                f"pid {process.pid} exited with {returncode}")
        print(f"  clean whole-fleet drain ({len(processes)} processes "
              f"exited 0)")
    print("fleet smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
