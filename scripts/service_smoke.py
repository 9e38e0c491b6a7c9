#!/usr/bin/env python
"""End-to-end smoke of the exploration service (``scripts/check.sh --service``).

Boots ``python -m repro serve`` as a real subprocess on an ephemeral port,
submits two workloads over HTTP, asserts both served results are
digest-identical to direct ``Session.run`` references, checks the stats
surface, and shuts the daemon down gracefully (exit code 0 required).

Usage::

    PYTHONPATH=src python scripts/service_smoke.py
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.api import Session, Workload  # noqa: E402
from repro.service import ReproClient  # noqa: E402

#: Small knobs: the smoke verifies plumbing, not paper-scale numbers.
SMALL = dict(iterations=4, window_sides=(1, 2, 3), max_depth=2,
             max_cones_per_depth=3, frame_width=320, frame_height=240)

ADDRESS_PATTERN = re.compile(
    r"repro service listening on (http://[\d.]+:\d+)")


def digest(result) -> str:
    return hashlib.sha256(json.dumps(result.to_dict(),
                                     sort_keys=True).encode()).hexdigest()


def start_server() -> "tuple[subprocess.Popen, str]":
    env = dict(os.environ)
    env["PYTHONPATH"] = (os.path.join(REPO_ROOT, "src") + os.pathsep
                         + env.get("PYTHONPATH", ""))
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--quiet"],
        env=env, cwd=REPO_ROOT, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True)
    line = process.stdout.readline()
    match = ADDRESS_PATTERN.search(line)
    if match is None:
        process.kill()
        raise SystemExit(f"error: server did not announce its address "
                         f"(got {line!r})")
    return process, match.group(1)


def main() -> int:
    workloads = [Workload.from_algorithm("blur", **SMALL),
                 Workload.from_algorithm("jacobi", **SMALL)]
    print("computing direct-session reference digests...")
    reference = Session()
    expected = [digest(reference.run(each)) for each in workloads]

    print("starting `python -m repro serve --port 0` ...")
    process, url = start_server()
    try:
        client = ReproClient(url)
        health = client.healthz()
        assert health["ok"], f"unhealthy at startup: {health}"
        print(f"  serving at {url}")

        served = []
        for each in workloads:
            handle = client.submit(each)
            served.append(digest(handle.result(timeout=120)))
        assert served == expected, (
            f"served digests diverged from direct Session.run:\n"
            f"  served:   {served}\n  expected: {expected}")
        print(f"  2 workloads served, digests identical to direct runs")

        stats = client.stats()
        assert stats["queue"]["completed"] == 2, stats["queue"]
        print(f"  stats ok (completed={stats['queue']['completed']}, "
              f"coalesce_hit_rate="
              f"{stats['queue']['coalesce_hit_rate']:.2f})")

        client.shutdown(drain=True)
    except BaseException:
        process.kill()
        raise
    returncode = process.wait(timeout=30)
    assert returncode == 0, f"server exited with {returncode}"
    print("  clean shutdown (exit 0)")
    print("service smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
