"""Server memory smoke test (`scripts/check.sh --memory`).

Sends distinct exploration jobs, one at a time, through one in-process
:class:`~repro.service.server.ReproServer` and prints the process's peak
RSS every 100 jobs.  The jobs are seeded ``moderate``-shaped explorations:
blur, jacobi or heat over windows 1-6, depth 4 and 16 cones per depth, with
a random frame, iteration count and on-chip port width, so the three
kernels' characterizations are paid early and every later job adds only an
exploration result.

A long-lived worker must hold a bounded number of those results: the
session's result layer and the queue's terminal history are both capped.
So after the warm-up the peak RSS must stay flat: the gate fails when the
peak at the last job exceeds the peak at job :data:`BASELINE_JOB` by more
than :data:`THRESHOLD_MB`.

    python scripts/memory_smoke.py                  # 600 jobs, gate on
    python scripts/memory_smoke.py --jobs 1400      # a longer curve
"""

from __future__ import annotations

import argparse
import random
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import Workload                               # noqa: E402
from repro.service import ReproServer                         # noqa: E402

KERNELS = ("blur", "jacobi", "heat")
KNOBS = dict(window_sides=(1, 2, 3, 4, 5, 6), max_depth=4,
             max_cones_per_depth=16)
REPORT_EVERY = 100
SEED = 2113
#: The warm-up: every layer is full well before this job.
BASELINE_JOB = 200
#: Allowed peak-RSS growth after the warm-up.  A server that keeps every
#: result grows ~0.45 MB per job of this mix (~180 MB from job 200 to 600);
#: a bounded one grows a few MB.
THRESHOLD_MB = 30.0


def peak_rss_mb() -> float:
    """Peak resident set of this process in MB (ru_maxrss is KB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def distinct_jobs(count: int, seed: int):
    """``count`` distinct seeded workloads, in submission order."""
    rng = random.Random(seed)
    seen = set()
    while len(seen) < count:
        workload = Workload.from_algorithm(
            rng.choice(KERNELS), iterations=rng.randrange(4, 9),
            frame_width=rng.randrange(160, 1921, 16),
            frame_height=rng.randrange(120, 1081, 8),
            onchip_port_elements_per_cycle=rng.choice((8, 16)), **KNOBS)
        if workload not in seen:
            seen.add(workload)
            yield workload


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--jobs", type=int, default=600,
                        help=f"jobs to send (default: 600; more than "
                             f"{BASELINE_JOB})")
    args = parser.parse_args()
    if args.jobs <= BASELINE_JOB:
        parser.error(f"--jobs must exceed {BASELINE_JOB}")

    started = time.perf_counter()
    curve = {}
    with ReproServer() as server:
        for done, workload in enumerate(distinct_jobs(args.jobs, SEED),
                                        start=1):
            receipt = server.submit(workload)
            server.result(receipt["job_id"], timeout=300)
            if done % REPORT_EVERY == 0 or done in (BASELINE_JOB,
                                                    args.jobs):
                curve[done] = peak_rss_mb()
                print(f"jobs {done:5d}  peak RSS {curve[done]:7.1f} MB  "
                      f"({time.perf_counter() - started:6.1f} s)",
                      flush=True)
        failed = server.stats()["queue"]["failed"]
    if failed:
        print(f"error: {failed} jobs failed", file=sys.stderr)
        return 1
    growth = curve[args.jobs] - curve[BASELINE_JOB]
    verdict = "ok" if growth <= THRESHOLD_MB else "FAILED"
    print(f"memory gate {verdict}: peak RSS grew {growth:.1f} MB from job "
          f"{BASELINE_JOB} to job {args.jobs} (threshold "
          f"{THRESHOLD_MB:.0f} MB)")
    return 0 if verdict == "ok" else 1


if __name__ == "__main__":
    sys.exit(main())
