"""Large-space streaming smoke test (`scripts/check.sh --large`).

Two checks in one fresh process:

1. **Digest identity** — on the paper-scale subspace (the 720-candidate
   blur space of Section 4.1) a frontier-only ``explore_stream`` must
   reproduce the in-memory exploration (every admitted row kept, one chunk
   per group) exactly: same Pareto rows, byte-identical serialized design
   points, same pruned-row count — across chunk sizes {1 row, one
   (window, split) group, the whole space}, each from a cold mask cache.

2. **Bounded memory at scale** — a >=10^5-candidate space (the same shape
   knobs with the instance-count axis widened) must stream to completion
   under a hard peak-RSS ceiling, measured with
   ``resource.getrusage(RUSAGE_SELF).ru_maxrss`` over the whole process.
   The in-memory exploration is deliberately *not* run on the large space
   in this process, so the ceiling bounds the streaming path alone.

``--min-fps`` engages the throughput-side suffix pushdown on the large
run.  ``--json`` emits the collected metrics (candidates/s, peak RSS,
pruned fraction, ...) on stdout for reuse by ``scripts/bench.py``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.algorithms import get_algorithm                   # noqa: E402
from repro.dse.constraints import DseConstraints             # noqa: E402
from repro.dse.explorer import DesignSpaceExplorer           # noqa: E402
from repro.dse.stream import (clear_stream_caches,           # noqa: E402
                              explore_stream)

ITERATIONS = 10  # the paper's blur case study (Section 4.1)


def peak_rss_mb() -> float:
    """Peak resident set of this process in MB (ru_maxrss is KB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def serialized(points) -> str:
    return json.dumps([point.to_dict() for point in points], sort_keys=True)


def check_digest_identity(explorer, space, characterizations, usable):
    """Streamed == in-memory on the paper-scale subspace, chunking-invariant."""
    paper_space = dataclasses.replace(space, max_cones_per_depth=16)
    group_rows = paper_space.max_cones_per_depth
    scenarios = [
        (None, "unconstrained"),
        (DseConstraints(device_only=True), "device-only"),
    ]
    checked = 0
    for constraints, label in scenarios:
        oracle = explore_stream(paper_space, characterizations,
                                explorer.throughput_model, 1024, 768,
                                constraints, usable,
                                chunk_rows=group_rows,
                                materialize="admitted")
        digest = serialized(oracle.pareto)
        for chunk_rows in (1, group_rows, paper_space.size()):
            clear_stream_caches()  # recompute the pushdown every run
            streamed = explore_stream(
                paper_space, characterizations, explorer.throughput_model,
                1024, 768, constraints, usable, chunk_rows=chunk_rows)
            if serialized(streamed.pareto) != digest:
                raise SystemExit(f"digest mismatch ({label}, "
                                 f"chunk_rows={chunk_rows})")
            if streamed.pruned_rows != oracle.pruned_rows:
                raise SystemExit(
                    f"pruned-row mismatch ({label}): streamed "
                    f"{streamed.pruned_rows} != oracle "
                    f"{oracle.pruned_rows}")
            checked += 1
    print(f"digest identity ok: {checked} streamed runs == in-memory run "
          f"on the {paper_space.size()}-candidate paper space")


def run_large(explorer, space, characterizations, usable, chunk_rows,
              constraints):
    started = time.perf_counter()
    streamed = explore_stream(space, characterizations,
                              explorer.throughput_model, 1024, 768,
                              constraints, usable, chunk_rows=chunk_rows)
    elapsed = time.perf_counter() - started
    return streamed, elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-cones", type=int, default=2300,
                        help="instance-count axis of the large space "
                             "(default 2300 -> 103,500 candidates)")
    parser.add_argument("--chunk-rows", type=int, default=4096)
    parser.add_argument("--rss-ceiling-mb", type=float, default=512.0,
                        help="hard peak-RSS ceiling for the whole process")
    parser.add_argument("--min-rows", type=int, default=100_000,
                        help="fail if the large space is smaller than this")
    parser.add_argument("--skip-digest", action="store_true",
                        help="skip the paper-space identity check "
                             "(bench reuse)")
    parser.add_argument("--min-fps", type=float, default=None,
                        help="add a frames-per-second floor to the large "
                             "run so the throughput-side suffix pushdown "
                             "engages (reported as "
                             "throughput_pruned_rows)")
    parser.add_argument("--json", action="store_true",
                        help="emit metrics as JSON on stdout")
    args = parser.parse_args(argv)

    explorer = DesignSpaceExplorer(
        get_algorithm("blur").kernel(),
        window_sides=tuple(range(1, 10)), max_depth=5,
        max_cones_per_depth=args.max_cones, synthesize_all=True)
    characterizations, _ = explorer.characterize_cones(ITERATIONS)
    space = explorer._space(ITERATIONS)
    usable = explorer.device.usable_capacity.luts

    rows = space.size()
    if rows < args.min_rows:
        raise SystemExit(f"large space has only {rows} candidates "
                         f"(need >= {args.min_rows})")

    if not args.skip_digest:
        check_digest_identity(explorer, space, characterizations, usable)

    constraints = DseConstraints(device_only=True,
                                 min_frames_per_second=args.min_fps)
    streamed, elapsed = run_large(explorer, space, characterizations,
                                  usable, args.chunk_rows, constraints)
    rss = peak_rss_mb()
    metrics = {
        "space_rows": streamed.space_rows,
        "admitted_rows": streamed.admitted_rows,
        "pruned_rows": streamed.pruned_rows,
        "throughput_pruned_rows": streamed.throughput_pruned_rows,
        "min_fps": args.min_fps,
        "pruned_fraction": round(streamed.pruned_fraction, 4),
        "chunk_rows": args.chunk_rows,
        "chunks_total": streamed.chunks_total,
        "chunks_skipped": streamed.chunks_skipped,
        "peak_chunk_rows": streamed.peak_chunk_rows,
        "frontier_peak": streamed.frontier_peak,
        "pareto_points": len(streamed.pareto),
        "elapsed_s": round(elapsed, 3),
        "candidates_per_s": round(streamed.space_rows / elapsed, 1),
        "peak_rss_mb": round(rss, 1),
        "rss_ceiling_mb": args.rss_ceiling_mb,
    }
    if args.json:
        print(json.dumps(metrics, indent=2, sort_keys=True))
    else:
        print(f"large space: {metrics['space_rows']:,} candidates streamed "
              f"in {metrics['elapsed_s']}s "
              f"({metrics['candidates_per_s']:,.0f}/s), "
              f"{metrics['pruned_fraction']:.1%} pruned before costing, "
              f"{metrics['pareto_points']} Pareto points, "
              f"peak RSS {metrics['peak_rss_mb']} MB "
              f"(ceiling {args.rss_ceiling_mb} MB)")
    if rss > args.rss_ceiling_mb:
        raise SystemExit(f"peak RSS {rss:.1f} MB exceeded the "
                         f"{args.rss_ceiling_mb} MB ceiling")
    if streamed.peak_chunk_rows > args.chunk_rows:
        raise SystemExit("peak chunk exceeded --chunk-rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
