"""The per-point scalar exploration: the differential oracle of the
exploration.

Evaluates the candidate space one Python object at a time — build the
:class:`ConeArchitecture`, sum its cone areas, run the throughput model's
``evaluate``, wrap a :class:`DesignPoint`, test the constraints.  Every
exploration in production runs the one pass of
:func:`repro.dse.stream.explore_stream` over the space's cost table, in
memory or streamed; the tests hold both materialize modes to this loop
byte for byte, under the stock throughput model and the two overrides
below.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import List

import numpy as np

from repro.dse.constraints import DseConstraints
from repro.dse.design_point import DesignPoint
from repro.dse.pareto import pareto_front
from repro.estimation.throughput_model import (ConePerformance,
                                               ThroughputModel)


class SlowPorts(ThroughputModel):
    """Built with stock arguments, yet every execution interval doubles."""

    def execution_interval_cycles(self, architecture, depth, performance):
        return 2.0 * super().execution_interval_cycles(architecture, depth,
                                                       performance)


class NegativeInterval(ThroughputModel):
    """Batch-capable, but the monotonicity argument is void."""

    def execution_interval_cycles(self, architecture, depth, performance):
        return -super().execution_interval_cycles(architecture, depth,
                                                  performance)


@dataclass
class ScalarExploration:
    """The admitted design points, in enumeration order, with their rows."""

    design_points: List[DesignPoint]
    #: Global enumeration row of each admitted point.
    row_index: np.ndarray
    #: Rows rejected by the area-side constraints (``device_only``,
    #: ``max_area_luts``).
    area_pruned_rows: int

    @property
    def admitted_rows(self) -> int:
        return len(self.design_points)

    @property
    def area_luts(self) -> np.ndarray:
        return np.asarray([p.area_luts for p in self.design_points])

    @property
    def seconds_per_frame(self) -> np.ndarray:
        return np.asarray([p.seconds_per_frame for p in self.design_points])

    @property
    def pareto(self) -> List[DesignPoint]:
        return pareto_front(self.design_points)

    @property
    def pareto_row_index(self) -> np.ndarray:
        row_of = {id(point): row for point, row
                  in zip(self.design_points, self.row_index.tolist())}
        return np.asarray([row_of[id(point)] for point in self.pareto],
                          dtype=np.int64)


def scalar_exploration(space, characterizations, throughput_model,
                       frame_width, frame_height, constraints=None,
                       usable_luts=math.inf) -> ScalarExploration:
    """Evaluate ``space`` point by point."""
    constraints = constraints or DseConstraints()
    area_only = DseConstraints(max_area_luts=constraints.max_area_luts,
                               device_only=constraints.device_only)
    points: List[DesignPoint] = []
    rows: List[int] = []
    area_pruned = 0
    row = 0
    for window, split, group in space.architecture_groups():
        depths = sorted(set(split))
        if any((window, depth) not in characterizations for depth in depths):
            row += len(group)
            continue
        area_by_depth = {depth: characterizations[(window, depth)].area_luts
                         for depth in depths}
        estimated = any(not characterizations[(window, depth)].synthesized
                        for depth in depths)
        cone_performance = {
            depth: ConePerformance(
                depth=depth, window_side=window,
                latency_cycles=characterizations[
                    (window, depth)].latency_cycles,
                initiation_interval=1)
            for depth in depths}
        for architecture in group:
            total_area = sum(architecture.cone_counts[depth]
                             * area_by_depth[depth] for depth in depths)
            point = DesignPoint(
                architecture=architecture,
                area_luts=total_area,
                area_estimated=estimated,
                performance=throughput_model.evaluate(
                    architecture, cone_performance, frame_width,
                    frame_height),
                fits_device=total_area <= usable_luts,
                cone_area_by_depth=dict(area_by_depth),
            )
            if not area_only.admits(point):
                area_pruned += 1
            elif constraints.admits(point):
                points.append(point)
                rows.append(row)
            row += 1
    return ScalarExploration(points, np.asarray(rows, dtype=np.int64),
                             area_pruned)


def explore_scalar(explorer, total_iterations, frame_width, frame_height,
                   constraints=None, onchip_port_elements_per_cycle=None):
    """``explorer.explore`` with its design points and Pareto set replaced
    by the scalar loop's (the other fields do not depend on the
    evaluator)."""
    characterizations, _ = explorer.characterize_cones(total_iterations)
    oracle = scalar_exploration(
        explorer._space(total_iterations), characterizations,
        explorer._throughput_model_for(onchip_port_elements_per_cycle),
        frame_width, frame_height, constraints,
        explorer.device.usable_capacity.luts)
    result = explorer.explore(total_iterations, frame_width, frame_height,
                              constraints, onchip_port_elements_per_cycle,
                              stream=False)
    return dataclasses.replace(result, design_points=oracle.design_points,
                               pareto=oracle.pareto)
