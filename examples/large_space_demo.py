"""Out-of-core exploration of a 100k+-candidate design space.

The paper's blur case study (Section 4.1) enumerates 720 architectures —
9 output windows x 5 level splittings x 16 instance counts.  Widening the
instance-count axis to 2,300 turns the same shape knobs into a
103,500-candidate space; :mod:`repro.dse.stream` explores it without ever
materializing the full candidate table:

* the cost table stops at the largest saturation count of the space's
  (window, split) groups, the most executions a level of the primary
  depth runs per tile: past it more instances change no frame time, so
  the whole space is costed as a 45 x 361 table, and every row past it
  takes the table's last column;
* the area constraints read only the areas, so one elementwise test over
  the table's area column admits the rows that satisfy them, and no
  pruned row ever becomes a design point (with nonnegative cone areas the
  admitted set is a prefix of the count axis; a group whose prefix runs
  past the table finds its end by binary search on the exact
  engine-identical area formula);
* of a group's rows past the table only the last can join the frontier
  (the others share its frame time and lie between it and the table's
  last column in area), so one Pareto pass over the table plus one row
  per group gives the exact frontier of the whole space;
* the cost table is cached by space and model, so a re-exploration that
  changes a per-run knob (frame size, fps floor, area cap) pays only for
  the frame times and the masks;
* a frames-per-second floor is monotone too (throughput never falls as
  instances are added), so it admits a suffix of each group's count axis,
  and one fps mask over the table rejects the rest.

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

    # 1. stream within the device: its capacity bounds how many
    #    primary-cone instances each group can hold, so almost the whole
    #    count axis is pruned before a single design point is built.
    groups = [space.materialize_row_parts(window, split, 1)
              for window in space.window_sides
              for split in space.level_splits()]
    width = max(explorer.throughput_model.saturation_count(architecture)
                for architecture in groups)
    constraints = DseConstraints(device_only=True)
    started = time.perf_counter()
    streamed = explore_stream(space, characterizations,
                              explorer.throughput_model, 1024, 768,
                              constraints, usable)
    elapsed = time.perf_counter() - started
    print(f"{streamed.space_rows:,} candidates costed as a "
          f"{len(groups)} x {width} table: past {width} instances no "
          f"(window, split) group gets faster")
    print(f"streamed in {elapsed * 1000:.0f} ms "
          f"({streamed.space_rows / elapsed:,.0f} candidates/s): "
          f"{streamed.pruned_rows:,} rows ({streamed.pruned_fraction:.1%}) "
          f"pruned before costing")
    print(f"bounded state: {len(streamed.pareto)} Pareto points kept, "
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
    #    the cost table is reused, only the frame times are recomputed
    hits = stream_stats()["costs"]["hits"]
    again = explore_stream(space, characterizations,
                           explorer.throughput_model, 640, 480,
                           constraints, usable)
    costs = stream_stats()["costs"]
    print(f"re-explored at 640x480: cost cache "
          f"{'hit' if costs['hits'] > hits else 'miss'} "
          f"(hits={costs['hits']}, misses={costs['misses']}) — "
          f"only the frame times were recomputed, "
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
    #    count), and one fps mask over the table finds it.
    floored = DseConstraints(device_only=True, min_frames_per_second=30.0)
    fast = explore_stream(space, characterizations,
                          explorer.throughput_model, 1024, 768,
                          floored, usable)
    print(f"30 fps floor: {fast.throughput_pruned_rows:,} more rows "
          f"rejected throughput-side "
          f"({fast.pruned_fraction:.2%} pruned in total), "
          f"{len(fast.pareto)} Pareto points")


if __name__ == "__main__":
    main()
