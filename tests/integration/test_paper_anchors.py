"""Paper anchors: the characterization and throughput behind Figures 5-10.

IGF with 10 iterations and Chambolle with 11, at the paper configuration:
FIXED16, windows 1-9, cone depth <= 5, <= 16 cones per depth, every cone
synthesized, 1024x768 frames.  ``tests/fixtures/paper_anchors.json`` pins,
per case study:

* per (window, depth): register count, operation count, actual and
  Equation-1 estimated LUTs, and latency cycles (Figures 5 and 8);
* per depth: the Equation-1 maximum and mean error;
* a digest of the Pareto frontier (Figures 6 and 9);
* per (window, depth): the best device-fitting frames per second
  (Figures 7 and 10).

The comparison is exact.  An intended change to the science updates the
fixture in the same change, with the difference explained.  Regenerate it
with::

    PYTHONPATH=src python tests/integration/test_paper_anchors.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Dict

import pytest

from repro.algorithms import get_algorithm
from repro.dse.explorer import DesignSpaceExplorer
from repro.ir.operators import DataFormat

FIXTURE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "fixtures", "paper_anchors.json")

#: Case study -> (registered algorithm, total iterations).
CASE_STUDIES = {"igf": ("blur", 10), "chambolle": ("chamb", 11)}
FRAME = (1024, 768)


def case_study_anchors(algorithm: str, iterations: int) -> Dict[str, object]:
    """Explore one case study at the paper configuration; return its anchors."""
    explorer = DesignSpaceExplorer(
        get_algorithm(algorithm).kernel(),
        data_format=DataFormat.FIXED16,
        window_sides=(1, 2, 3, 4, 5, 6, 7, 8, 9),
        max_depth=5,
        max_cones_per_depth=16,
        synthesize_all=True,
    )
    result = explorer.explore(iterations, *FRAME)
    cones = {
        f"w{window}_d{depth}": {
            "register_count": c.register_count,
            "operation_count": c.operation_count,
            "actual_area_luts": c.actual_area_luts,
            "estimated_area_luts": c.estimated_area_luts,
            "latency_cycles": c.latency_cycles,
        }
        for (window, depth), c in sorted(result.characterizations.items())
    }
    depths = {
        str(depth): {"max_error_percent": v.max_error_percent,
                     "mean_error_percent": v.mean_error_percent}
        for depth, v in sorted(result.area_validations.items())
    }
    frontier = json.dumps([p.to_dict() for p in result.pareto], sort_keys=True)
    return {
        "cones": cones,
        "depths": depths,
        "pareto_size": len(result.pareto),
        "pareto_digest": hashlib.sha256(frontier.encode()).hexdigest(),
        "throughput": best_fitting_fps(result.design_points),
    }


def best_fitting_fps(points) -> Dict[str, float]:
    """Best device-fitting frames per second per (window, primary depth),
    the quantity Figures 7 and 10 plot (0.0 where nothing fits)."""
    best = {f"w{window}_d{depth}": 0.0
            for window in range(1, 10) for depth in range(1, 6)}
    for point in points:
        if point.fits_device:
            key = f"w{point.architecture.window_side}_d{point.primary_depth}"
            best[key] = max(best[key], point.frames_per_second)
    return best


def load_fixture() -> Dict[str, object]:
    with open(FIXTURE, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.slow
@pytest.mark.parametrize("case", sorted(CASE_STUDIES))
def test_characterization_matches_the_pinned_paper_anchors(case):
    pinned = load_fixture()[case]
    # a JSON round trip, so floats compare exactly as they were pinned
    current = json.loads(json.dumps(case_study_anchors(*CASE_STUDIES[case])))
    assert current["cones"] == pinned["cones"]
    assert current["depths"] == pinned["depths"]
    assert current["pareto_size"] == pinned["pareto_size"]
    assert current["pareto_digest"] == pinned["pareto_digest"]
    assert current["throughput"] == pinned["throughput"]


def test_fixture_covers_the_paper_configuration():
    pinned = load_fixture()
    assert sorted(pinned) == sorted(CASE_STUDIES)
    for anchors in pinned.values():
        assert len(anchors["cones"]) == 45  # windows 1-9 x depths 1-5
        assert len(anchors["throughput"]) == 45
        assert sorted(anchors["depths"]) == ["1", "2", "3", "4", "5"]


def main() -> int:
    anchors = {case: case_study_anchors(*spec)
               for case, spec in sorted(CASE_STUDIES.items())}
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w", encoding="utf-8") as handle:
        json.dump(anchors, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {FIXTURE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
