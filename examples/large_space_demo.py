"""Out-of-core exploration of a 100k+-candidate design space.

The paper's blur case study (Section 4.1) enumerates 720 architectures —
9 output windows x 5 level splittings x 16 instance counts.  Widening the
instance-count axis to 2,300 turns the same shape knobs into a
103,500-candidate space; :mod:`repro.dse.stream` explores it without ever
materializing the full candidate table:

* the fold visits each (window, split) group once and cuts its
  instance-count axis into chunks of at most ``chunk_rows`` rows — pure
  index arithmetic, no arrays until a chunk is costed;
* constraint pushdown proves, from the area model alone, how many
  instance counts of each group can possibly satisfy the area
  constraints, and prunes the rest *before* any column is built (the
  admitted set is always a prefix of the count axis, found by binary
  search on the exact engine-identical area formula);
* a :class:`StreamingFrontier` folds each chunk into bounded state — the
  final frontier is bit-identical to the in-memory exploration's, whatever
  the chunk size or order;
* the admitted-prefix masks are cached by *shape* knobs only, so a
  re-exploration that changes a per-run knob (frame size, fps floor)
  skips the admission pass entirely and re-costs only the admitted rows;
* a frames-per-second floor is pushed down too: throughput is monotone in
  the instance count, so where a group's area prefix spans several chunks
  a second binary search admits only the count suffix that can meet the
  floor, and chunks below it are never costed.

Run with::

    python examples/large_space_demo.py
"""

from __future__ import annotations

import resource
import time

from repro.algorithms import get_algorithm
from repro.dse.constraints import DseConstraints
from repro.dse.explorer import DesignSpaceExplorer
from repro.dse.stream import explore_stream, stream_stats

CHUNK_ROWS = 512


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> None:
    # The Section 4.1 blur space with the instance-count axis widened
    # 9 windows x 5 splits x 2,300 counts = 103,500 candidates.
    explorer = DesignSpaceExplorer(
        get_algorithm("blur").kernel(),
        window_sides=tuple(range(1, 10)), max_depth=5,
        max_cones_per_depth=2300, synthesize_all=True)
    characterizations, _ = explorer.characterize_cones(10)
    space = explorer._space(10)
    usable = explorer.device.usable_capacity.luts

    # 1. stream with constraint pushdown: the device capacity bounds how
    #    many primary-cone instances each group can hold, so almost the
    #    whole count axis is discarded before a single column is built.
    constraints = DseConstraints(device_only=True)
    started = time.perf_counter()
    streamed = explore_stream(space, characterizations,
                              explorer.throughput_model, 1024, 768,
                              constraints, usable, chunk_rows=CHUNK_ROWS)
    elapsed = time.perf_counter() - started
    print(f"{streamed.space_rows:,} candidates cut into "
          f"{streamed.chunks_total} chunks of <= {CHUNK_ROWS} rows "
          f"(each inside one (window, split) group)")
    print(f"streamed in {elapsed * 1000:.0f} ms "
          f"({streamed.space_rows / elapsed:,.0f} candidates/s): "
          f"{streamed.pruned_rows:,} rows ({streamed.pruned_fraction:.1%}) "
          f"pruned before costing, {streamed.chunks_skipped} of "
          f"{streamed.chunks_total} chunks never materialized")
    print(f"bounded state: peak chunk {streamed.peak_chunk_rows} rows, "
          f"frontier never exceeded {streamed.frontier_peak} points, "
          f"process peak RSS {peak_rss_mb():.0f} MB")
    print()

    # 2. the fastest feasible designs sit at the frontier's large-area end:
    #    every faster candidate would dominate them
    print("3 fastest feasible architectures (frontier tail):")
    for point in reversed(streamed.pareto[-3:]):
        print(f"  {point.architecture.label():<24} "
              f"{point.frames_per_second:8.1f} fps  "
              f"{point.area_luts:10.0f} LUTs")
    print()

    # 3. incremental re-explore: a new frame geometry is a per-run knob —
    #    the admitted-prefix masks are reused, only throughput re-costs
    again = explore_stream(space, characterizations,
                           explorer.throughput_model, 640, 480,
                           constraints, usable, chunk_rows=CHUNK_ROWS)
    cache = stream_stats()
    print(f"re-explored at 640x480: mask cache "
          f"{'hit' if again.mask_cache_hit else 'miss'} "
          f"(hits={cache['hits']}, misses={cache['misses']}) — "
          f"the admission pass was skipped, "
          f"{len(again.pareto)} Pareto points")

    # 4. the frontier is the exact frontier: the Pareto set of the
    #    103,500-candidate space, held at no point in full in memory
    smallest, fastest = streamed.pareto[0], streamed.pareto[-1]
    print(f"frontier spans {smallest.area_luts:.0f} LUTs "
          f"({smallest.frames_per_second:.1f} fps) to "
          f"{fastest.area_luts:.0f} LUTs "
          f"({fastest.frames_per_second:.1f} fps) "
          f"across {len(streamed.pareto)} points")
    print()

    # 5. throughput-side pushdown: an fps floor admits only a suffix of
    #    each group's count axis (throughput is monotone in the instance
    #    count), so the chunks below it are never costed.
    floored = DseConstraints(device_only=True, min_frames_per_second=30.0)
    fast = explore_stream(space, characterizations,
                          explorer.throughput_model, 1024, 768,
                          floored, usable, chunk_rows=CHUNK_ROWS)
    print(f"30 fps floor: {fast.throughput_pruned_rows:,} more rows "
          f"rejected throughput-side "
          f"({fast.pruned_fraction:.2%} pruned in total), "
          f"{len(fast.pareto)} Pareto points")


if __name__ == "__main__":
    main()
