"""Large-space streaming smoke test (`scripts/check.sh --large`).

Four checks in one fresh process:

1. **Digest identity** — on the paper-scale subspace (the 720-candidate
   blur space of Section 4.1) the in-memory exploration (every admitted
   row kept, one columnar pass over the whole space) runs twice, from a
   cold cost cache and from the entry the first run left, and both must
   serialize byte for byte alike.  A frontier-only ``explore_stream`` must
   then reproduce it exactly: same Pareto rows, byte-identical serialized
   design points, same pruned-row count — across chunk sizes {1 row, one
   (window, split) group, the whole space}, each from a cold mask cache.
   This runs unconstrained, within the device, and under a 30 fps floor:
   there the one-row chunks cut each group's rows below the floor off by
   the suffix probe, and the larger chunks filter every costed row
   instead.

2. **What-if sweep** — seeded what-if requests on the same subspace (frame
   sizes from 320x240 to 4096x2160, fps floors, LUT caps, on-chip port
   widths), each answered in memory and by frontier-only streaming in
   one-group chunks, both from the warm cost cache (2 hits per request):
   both answers must have the same serialized Pareto set and the same
   admitted and pruned counts.  For one request in six, every admitted
   design point of the in-memory answer, on the Pareto front or not, and
   the streamed Pareto set must also serialize byte for byte like the
   per-point scalar exploration (``tests/dse/scalar_oracle.py``).

3. **Bounded memory at scale** — a >=10^5-candidate space (the same shape
   knobs with the instance-count axis widened) must stream to completion
   under a hard peak-RSS ceiling, measured with
   ``resource.getrusage(RUSAGE_SELF).ru_maxrss`` over the whole process,
   adding one cost-cache entry whose tables stop at the largest
   saturation count (45 x 361 rows, not 45 x 2,300).  The in-memory
   exploration is deliberately *not* run on the large space in this
   process, so the ceiling bounds the streaming path alone.

4. **Saturation cut** — after the RSS reading, the large space streams
   with no area cap, once with no floor and once under a 30 fps floor.
   Its cost table stops at the most executions any level runs per tile
   (361 counts), so each Pareto set must serialize like the in-memory
   answer on the same knobs narrowed to those 361 counts (16,245 rows): a
   primary count past that changes no frame time and adds area, so it can
   add no Pareto point.

``--min-fps`` engages the throughput-side suffix pushdown on the large
run.  ``--json`` emits the collected metrics (candidates/s, peak RSS,
pruned fraction, ...) on stdout for reuse by ``scripts/bench.py``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
# the per-point scalar exploration, the oracle of the one pass, lives
# beside the exploration tests
sys.path.insert(0, str(ROOT / "tests" / "dse"))

from repro.algorithms import get_algorithm                   # noqa: E402
from repro.dse.constraints import DseConstraints             # noqa: E402
from repro.dse.explorer import DesignSpaceExplorer           # noqa: E402
from repro.dse.stream import (_cached_costs,                 # noqa: E402
                              _characterization_key, clear_stream_caches,
                              explore_stream, stream_stats)
from scalar_oracle import scalar_exploration                  # noqa: E402

ITERATIONS = 10  # the paper's blur case study (Section 4.1)
SWEEP_REQUESTS = 60
SWEEP_PORTS = (4, 8, 16, 32)
#: Every this many sweep requests, one is held whole to the scalar oracle.
ORACLE_EVERY = 6


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
        (DseConstraints(min_frames_per_second=30.0), "30-fps-floor"),
    ]
    checked = 0
    for constraints, label in scenarios:
        clear_stream_caches()
        oracle, warm = (explore_stream(paper_space, characterizations,
                                       explorer.throughput_model, 1024,
                                       768, constraints, usable,
                                       chunk_rows=group_rows,
                                       materialize="admitted")
                        for _ in range(2))
        costs = stream_stats()["costs"]
        if (costs["misses"], costs["hits"]) != (1, 1):
            raise SystemExit(f"cost cache not cold then warm ({label}): "
                             f"{costs}")
        if (serialized(warm.design_points)
                != serialized(oracle.design_points)
                or serialized(warm.pareto) != serialized(oracle.pareto)):
            raise SystemExit(f"in-memory digest mismatch between a cold and "
                             f"a warm cost cache ({label})")
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
    print(f"digest identity ok: warm == cold in-memory run, {checked} "
          f"streamed runs == in-memory run on the {paper_space.size()}-"
          f"candidate paper space")


def check_whatif_sweep(explorer, space, characterizations, usable):
    """Warm in-memory answers == one-group streamed answers, per request,
    and == the scalar oracle's admitted points and Pareto set for every
    sixth one."""
    paper_space = dataclasses.replace(space, max_cones_per_depth=16)
    models = {port: explorer._throughput_model_for(port)
              for port in SWEEP_PORTS}
    clear_stream_caches()
    for model in models.values():  # one cost-cache entry per port width
        explore_stream(paper_space, characterizations, model, 1024, 768,
                       usable_luts=usable, materialize="admitted")
    warmed = stream_stats()["costs"]
    rng = random.Random(ITERATIONS)
    oracle_checked = 0
    for request in range(SWEEP_REQUESTS):
        width = rng.randrange(320, 4097, 8)
        height = rng.randrange(240, 2161, 8)
        floor = rng.choice((None, 15.0, 24.0, 30.0, 60.0, 120.0))
        cap = rng.choice((None, 150000.0, 250000.0, 350000.0, 474240.0))
        model = models[rng.choice(SWEEP_PORTS)]
        request_args = (paper_space, characterizations, model, width, height,
                        DseConstraints(min_frames_per_second=floor,
                                       max_area_luts=cap), usable)
        in_memory = explore_stream(*request_args, materialize="admitted")
        streamed = explore_stream(
            *request_args, chunk_rows=paper_space.max_cones_per_depth)
        if serialized(in_memory.pareto) != serialized(streamed.pareto):
            raise SystemExit(f"what-if request {request} ({width}x{height},"
                             f" {floor} fps, {cap} LUTs): Pareto mismatch")
        if ((in_memory.admitted_rows, in_memory.pruned_rows)
                != (streamed.admitted_rows, streamed.pruned_rows)):
            raise SystemExit(f"what-if request {request}: admitted/pruned "
                             f"{in_memory.admitted_rows}/"
                             f"{in_memory.pruned_rows} in memory, "
                             f"{streamed.admitted_rows}/"
                             f"{streamed.pruned_rows} streamed")
        if request % ORACLE_EVERY == 0:
            oracle = scalar_exploration(*request_args)
            if (serialized(in_memory.design_points)
                    != serialized(oracle.design_points)):
                raise SystemExit(f"what-if request {request}: in-memory "
                                 f"design points differ from the scalar "
                                 f"oracle's")
            if serialized(streamed.pareto) != serialized(oracle.pareto):
                raise SystemExit(f"what-if request {request}: the streamed "
                                 f"Pareto set differs from the scalar "
                                 f"oracle's")
            oracle_checked += 1
    costs = stream_stats()["costs"]
    if (costs["misses"], costs["hits"]) != (
            warmed["misses"], warmed["hits"] + 2 * SWEEP_REQUESTS):
        raise SystemExit(f"what-if sweep missed the warm cost cache: "
                         f"{warmed} -> {costs}")
    print(f"what-if sweep ok: {SWEEP_REQUESTS} warm in-memory requests == "
          f"one-group streamed requests, {oracle_checked} of them == the "
          f"scalar oracle in every admitted point and Pareto point")


def check_saturation_cut(explorer, space, characterizations, usable):
    """Uncapped streamed answers on the large space == the in-memory answer
    on the space narrowed to the most executions any level runs per
    tile."""
    width = min(space.max_cones_per_depth, max(
        max(space.materialize_row_parts(window, split,
                                        1).executions_per_level())
        for window in space.window_sides for split in space.level_splits()))
    narrowed = dataclasses.replace(space, max_cones_per_depth=width)
    sizes = []
    for constraints, label in (
            (None, "no floor"),
            (DseConstraints(min_frames_per_second=30.0), "30-fps-floor")):
        streamed = explore_stream(space, characterizations,
                                  explorer.throughput_model, 1024, 768,
                                  constraints, usable)
        in_memory = explore_stream(narrowed, characterizations,
                                   explorer.throughput_model, 1024, 768,
                                   constraints, usable,
                                   materialize="admitted")
        if serialized(streamed.pareto) != serialized(in_memory.pareto):
            raise SystemExit(f"saturation cut ({label}): the streamed "
                             f"Pareto set of the {space.size()}-candidate "
                             f"space differs from the in-memory one of "
                             f"the {narrowed.size()}-candidate space")
        sizes.append(len(streamed.pareto))
    print(f"saturation cut ok: {' and '.join(map(str, sizes))} Pareto "
          f"points streamed uncapped from {space.size():,} candidates == "
          f"in memory from {narrowed.size():,} ({width} counts)")


def check_table_width(explorer, space, characterizations):
    """The large space's cost-cache entry stops at the largest saturation
    count: groups × 361 rows, however long the count axis."""
    splits = tuple(tuple(split) for split in space.level_splits())
    entry = _cached_costs(space, splits, characterizations,
                          _characterization_key(characterizations),
                          explorer.throughput_model)
    width = min(space.max_cones_per_depth, max(
        explorer.throughput_model.saturation_count(context.representative)
        for context in entry.contexts))
    shapes = {array.shape for array in (
        entry.area, entry.compute_cycles_per_tile, entry.cycles_per_tile,
        entry.compute_bound)}
    if shapes != {(len(entry.keys), width)} or width >= (
            space.max_cones_per_depth):
        raise SystemExit(f"the cost table of the {space.size():,}-candidate "
                         f"space is {shapes}, not {len(entry.keys)} x "
                         f"{width}")


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
        check_whatif_sweep(explorer, space, characterizations, usable)

    constraints = DseConstraints(device_only=True,
                                 min_frames_per_second=args.min_fps)
    costs_before = stream_stats()["costs"]
    streamed, elapsed = run_large(explorer, space, characterizations,
                                  usable, args.chunk_rows, constraints)
    rss = peak_rss_mb()
    costs_after = stream_stats()["costs"]
    if (costs_after["misses"], costs_after["entries"]) != (
            costs_before["misses"] + 1, costs_before["entries"] + 1):
        raise SystemExit(f"the streamed run did not add one cost-cache "
                         f"entry: {costs_before} -> {costs_after}")
    check_table_width(explorer, space, characterizations)
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
    if not args.skip_digest:
        check_saturation_cut(explorer, space, characterizations, usable)
    return 0


if __name__ == "__main__":
    sys.exit(main())
