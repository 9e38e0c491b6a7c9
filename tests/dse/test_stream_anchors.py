"""Stream anchors: the exploration pass's outcomes pinned across commits.

The other stream tests hold ``explore_stream`` to the per-point scalar
oracle.  That fixes the admitted rows and the frontier, but not the pass's
own accounting.  ``tests/fixtures/stream_anchors.json`` pins, per case and
run:

* every accounting field of
  :class:`~repro.dse.stream.StreamingExploration` (``chunks_total``,
  ``chunks_skipped``, ``peak_chunk_rows``, ``pruned_rows``,
  ``throughput_pruned_rows``, ...);
* ``pareto_row_index``, and the sha256 of the serialized design points
  and of the serialized frontier;
* the ``stream_stats()`` counters the run leaves (the run counters and the
  cost cache's under ``costs``), and the ``chunks`` attribute of its
  ``stream.explore`` span.

The grid: blur (6 iterations) and chamb (5) at 1024x768 on windows 1-5,
max depth 3 and 40 cones per depth; constraints none, device only, a
30 fps floor, a 120 fps floor within 200,000 LUTs, and an unreachable
floor; ``chunk_rows`` 1, 3, 7, 40 and 100,000; both ``materialize`` values;
on-chip port widths 4 and 16.  Each case runs twice, from a cleared cost
cache and then warm.  At ``chunk_rows`` 1 and 3 the fps floors run the
suffix probe in most groups.

The comparison is exact.  A change meant to alter the pass's outcomes
re-pins the fixture in the same change, with the difference explained.
Regenerate it with::

    PYTHONPATH=src python tests/dse/test_stream_anchors.py
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
from typing import Any, Dict, List

import pytest

from repro.algorithms import get_algorithm
from repro.dse.constraints import DseConstraints
from repro.dse.explorer import DesignSpaceExplorer
from repro.dse.stream import (clear_stream_caches, explore_stream,
                              reset_stream_stats, stream_stats)
from repro.obs import trace as obs_trace

FIXTURE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "fixtures", "stream_anchors.json")

ITERATIONS = {"blur": 6, "chamb": 5}
FRAME = (1024, 768)
CONSTRAINTS = {
    "none": None,
    "device": DseConstraints(device_only=True),
    "fps30": DseConstraints(min_frames_per_second=30.0),
    "fps120-area": DseConstraints(min_frames_per_second=120.0,
                                  max_area_luts=200_000.0),
    "unreachable": DseConstraints(min_frames_per_second=1e12),
}
CHUNK_ROWS = (1, 3, 7, 40, 100_000)
MATERIALIZE = ("admitted", "frontier")
PORTS = (4, 16)

CASES = [f"{kernel}/{constraint}/{chunk_rows}/{materialize}/{port}"
         for kernel in ITERATIONS for constraint in CONSTRAINTS
         for chunk_rows in CHUNK_ROWS for materialize in MATERIALIZE
         for port in PORTS]

FIELDS = ("space_rows", "admitted_rows", "pruned_rows", "chunk_rows",
          "chunks_total", "chunks_skipped", "peak_chunk_rows",
          "throughput_pruned_rows")


@functools.lru_cache(maxsize=None)
def inputs(kernel: str):
    explorer = DesignSpaceExplorer(
        get_algorithm(kernel).kernel(), window_sides=(1, 2, 3, 4, 5),
        max_depth=3, max_cones_per_depth=40)
    characterizations, _ = explorer.characterize_cones(ITERATIONS[kernel])
    return explorer, explorer._space(ITERATIONS[kernel]), characterizations


def sha256(points) -> str:
    encoded = json.dumps([point.to_dict() for point in points],
                         sort_keys=True).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


def run_record(kernel: str, constraint: str, chunk_rows: int,
               materialize: str, port: int) -> Dict[str, Any]:
    """One exploration's outcome, with the counters it left behind."""
    explorer, space, characterizations = inputs(kernel)
    spans: List[Dict[str, Any]] = []
    with obs_trace.capture(spans):
        result = explore_stream(
            space, characterizations, explorer._throughput_model_for(port),
            *FRAME, CONSTRAINTS[constraint],
            explorer.device.usable_capacity.luts, chunk_rows=chunk_rows,
            materialize=materialize)
    record: Dict[str, Any] = {name: getattr(result, name) for name in FIELDS}
    record["pareto_row_index"] = result.pareto_row_index.tolist()
    record["design_points"] = sha256(result.design_points)
    record["pareto"] = sha256(result.pareto)
    record["stream_stats"] = stream_stats()
    record["span_chunks"] = [span["attributes"]["chunks"] for span in spans
                             if span["name"] == "stream.explore"]
    return record


def case_records(case: str) -> Dict[str, Dict[str, Any]]:
    kernel, constraint, chunk_rows, materialize, port = case.split("/")
    arguments = (kernel, constraint, int(chunk_rows), materialize, int(port))
    clear_stream_caches()
    cold = run_record(*arguments)
    reset_stream_stats()
    warm = run_record(*arguments)
    clear_stream_caches()
    return {"cold": cold, "warm": warm}


def load_fixture() -> Dict[str, Dict[str, Any]]:
    with open(FIXTURE, encoding="utf-8") as handle:
        return json.load(handle)


def test_fixture_covers_every_case():
    assert sorted(load_fixture()) == sorted(CASES)
    assert len(CASES) == 200


@pytest.mark.parametrize("case", CASES)
def test_the_fold_matches_the_pinned_outcome(case):
    assert case_records(case) == load_fixture()[case]


def main() -> int:
    with open(FIXTURE, "w", encoding="utf-8") as handle:
        handle.write("{\n")
        handle.write(",\n".join(
            f"{json.dumps(case)}: "
            f"{json.dumps(case_records(case), sort_keys=True)}"
            for case in CASES))
        handle.write("\n}\n")
    print(f"wrote {FIXTURE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
