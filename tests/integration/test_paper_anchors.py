"""Paper anchors: Figures 5-10 and the Section 4.1-4.3 comparisons.

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

``tests/fixtures/section4_anchors.json`` pins the Section 4 comparisons
that ``benchmarks/bench_sec4*.py`` print:

* 4.1: the 20-iteration 3x3 convolution on XC2VP30 at 1024x768 and
  1920x1080 and on XC6VLX760 at 1024x768 (label, frames per second and
  LUTs of the best device-fitting point), and the frame-buffer
  baseline's frames per second on XC2VP30 at 1024x768;
* 4.2: Chambolle's best device-fitting point (label, frames per second and
  LUTs) at 1024x768 and 512x512;
* 4.3: each commercial-HLS directive set's status and frames per second,
  the best configuration with its frames per second, and the IGF cone
  speedup over it.

The comparison is exact.  An intended change to the science updates the
fixtures in the same change, with the difference explained.  Regenerate
them with::

    PYTHONPATH=src python tests/integration/test_paper_anchors.py
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
from typing import Dict, Tuple

import pytest

from repro.algorithms import get_algorithm
from repro.baselines.commercial_hls import CommercialHlsTool, HlsConfiguration
from repro.dse.explorer import DesignSpaceExplorer, ExplorationResult
from repro.ir.operators import DataFormat
from repro.simulation.framebuffer_baseline import FrameBufferArchitecture
from repro.synth.fpga_device import VIRTEX2P_XC2VP30, VIRTEX6_XC6VLX760

FIXTURES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "fixtures")
FIXTURE = os.path.join(FIXTURES, "paper_anchors.json")
SECTION4_FIXTURE = os.path.join(FIXTURES, "section4_anchors.json")

#: Case study -> (registered algorithm, total iterations).
CASE_STUDIES = {"igf": ("blur", 10), "chambolle": ("chamb", 11)}
FRAME = (1024, 768)

#: Section 4.1: the literature's 20-iteration 3x3 convolution, explored on
#: each (device, frame) target of the comparison.
SEC41_ITERATIONS = 20
SEC41_TARGETS = {"xc2vp30_1024x768": (VIRTEX2P_XC2VP30, (1024, 768)),
                 "xc2vp30_1920x1080": (VIRTEX2P_XC2VP30, (1920, 1080)),
                 "xc6vlx760_1024x768": (VIRTEX6_XC6VLX760, (1024, 768))}

#: Section 4.3: the directive sets tried on the commercial HLS tool.
SEC43_CONFIGURATIONS = {
    "baseline": HlsConfiguration(),
    "unroll x8": HlsConfiguration(unroll_factor=8),
    "pipeline": HlsConfiguration(pipeline=True),
    "pipeline + partition x8": HlsConfiguration(
        pipeline=True, array_partition_factor=8, unroll_factor=8),
    "loop merge": HlsConfiguration(loop_merge=True),
    "pipeline + flatten": HlsConfiguration(pipeline=True, loop_flatten=True),
}


@functools.lru_cache(maxsize=None)
def case_study(case: str) -> Tuple[DesignSpaceExplorer, ExplorationResult]:
    """The paper-configuration explorer of one case study and its 1024x768
    exploration, shared by the Figure and Section 4 anchors."""
    algorithm, iterations = CASE_STUDIES[case]
    explorer = DesignSpaceExplorer(
        get_algorithm(algorithm).kernel(),
        data_format=DataFormat.FIXED16,
        window_sides=(1, 2, 3, 4, 5, 6, 7, 8, 9),
        max_depth=5,
        max_cones_per_depth=16,
        synthesize_all=True,
    )
    return explorer, explorer.explore(iterations, *FRAME)


def case_study_anchors(case: str) -> Dict[str, object]:
    """One case study's Figure anchors at the paper configuration."""
    _, result = case_study(case)
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


def best_fitting(result: ExplorationResult) -> Dict[str, object]:
    point = result.best_fitting_point()
    return {"label": point.label,
            "frames_per_second": point.frames_per_second,
            "area_luts": point.area_luts}


def section41() -> Dict[str, object]:
    """Section 4.1: the 20-iteration 3x3 convolution vs the literature."""
    convolution = get_algorithm("conv3x3").kernel()
    anchors: Dict[str, object] = {}
    for name, (device, frame) in SEC41_TARGETS.items():
        explorer = DesignSpaceExplorer(
            convolution, device=device, data_format=DataFormat.FIXED16,
            window_sides=(2, 4, 6, 8), max_depth=4, max_cones_per_depth=12)
        anchors[name] = best_fitting(explorer.explore(SEC41_ITERATIONS,
                                                      *frame))
    anchors["framebuffer_xc2vp30_1024x768_fps"] = FrameBufferArchitecture(
        convolution, VIRTEX2P_XC2VP30, DataFormat.FIXED16).evaluate(
            1024, 768, SEC41_ITERATIONS).frames_per_second
    return anchors


def section42() -> Dict[str, object]:
    """Section 4.2: Chambolle at 1024x768 and 512x512."""
    explorer, chambolle = case_study("chambolle")
    return {"1024x768": best_fitting(chambolle),
            "512x512": best_fitting(explorer.explore(
                CASE_STUDIES["chambolle"][1], 512, 512))}


def section43() -> Dict[str, object]:
    """Section 4.3: the commercial HLS tool on the IGF."""
    iterations = CASE_STUDIES["igf"][1]
    tool = CommercialHlsTool(get_algorithm("blur").kernel())
    directives = {}
    for name, configuration in SEC43_CONFIGURATIONS.items():
        outcome = tool.run(configuration, *FRAME, iterations)
        directives[name] = {"status": outcome.status.value,
                            "frames_per_second": outcome.frames_per_second}
    best = tool.best_configuration(*FRAME, iterations)
    cone_fps = case_study("igf")[1].best_fitting_point().frames_per_second
    return {"directives": directives,
            "best_configuration": best.configuration.describe(),
            "best_frames_per_second": best.frames_per_second,
            "cone_speedup": cone_fps / best.frames_per_second}


#: Section -> the function computing its anchors.
SECTION4 = {"4.1": section41, "4.2": section42, "4.3": section43}


def load_fixture(path: str = FIXTURE) -> Dict[str, object]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.slow
@pytest.mark.parametrize("case", sorted(CASE_STUDIES))
def test_characterization_matches_the_pinned_paper_anchors(case):
    pinned = load_fixture()[case]
    # a JSON round trip, so floats compare exactly as they were pinned
    current = json.loads(json.dumps(case_study_anchors(case)))
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


@pytest.mark.slow
@pytest.mark.parametrize("section", sorted(SECTION4))
def test_section4_matches_the_pinned_comparisons(section):
    pinned = load_fixture(SECTION4_FIXTURE)[section]
    assert json.loads(json.dumps(SECTION4[section]())) == pinned


def write_fixture(path: str, anchors: Dict[str, object]) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(anchors, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")


def main() -> int:
    write_fixture(FIXTURE, {case: case_study_anchors(case)
                            for case in sorted(CASE_STUDIES)})
    write_fixture(SECTION4_FIXTURE, {section: anchors()
                                     for section, anchors in SECTION4.items()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
