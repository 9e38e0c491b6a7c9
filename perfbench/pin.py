#!/usr/bin/env python3
"""Pin the reference output digests of the full-size workloads.

Run from the repository root, on a commit whose outputs are known good::

    python3 perfbench/pin.py                  # every workload
    python3 perfbench/pin.py whatif           # one workload

Each ``reference/<workload>.json`` holds the digest of the request pool it
was computed for (a run refuses digests pinned for another pool) and the
digest of every request's expected output, computed through a direct
``Session`` — never through the service path the benchmark measures.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import workloads as bench  # noqa: E402


def pin(name: str) -> None:
    started = time.perf_counter()
    if name == "paper_cold":
        spaces = bench.paper_workloads(tiny=False)
        pool = {key: workload.to_dict() for key, workload in spaces.items()}
        digests = bench.PaperCold.batch_digests(spaces, ["igf", "chambolle"])
    elif name == "whatif":
        pool = bench.whatif_pool(tiny=False)
        digests = bench.WhatIf().compute_references(pool, tiny=False)
    else:
        pool = bench.service_pool(tiny=False)
        digests = bench.ServiceMix.compute_references(pool)
    bench.REFERENCE_DIR.mkdir(exist_ok=True)
    path = bench.REFERENCE_DIR / f"{name}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"pool": bench.digest(pool), "digests": digests}, handle,
                  separators=(",", ":"))
        handle.write("\n")
    print(f"pinned {path.name} in {time.perf_counter() - started:.1f} s")


def main() -> int:
    names = sys.argv[1:] or list(bench.WORKLOADS)
    for name in names:
        if name not in bench.WORKLOADS:
            print(f"unknown workload {name!r}", file=sys.stderr)
            return 2
        pin(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
