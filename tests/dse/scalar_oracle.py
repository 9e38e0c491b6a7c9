"""The per-point scalar exploration: the differential oracle of the
exploration.

Enumerates the candidate space itself, one Python object at a time: build
each :class:`ConeArchitecture` through its validating constructor, sum its
cone areas, cost it with a one-count ``estimate_batch`` call at its own
primary instance count, wrap a :class:`DesignPoint`, test the constraints.
Every exploration in production runs the one pass of
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

from repro.architecture.template import ConeArchitecture
from repro.dse.constraints import DseConstraints
from repro.dse.design_point import DesignPoint
from repro.dse.pareto import pareto_front
from repro.estimation.throughput_model import (ArchitecturePerformance,
                                               ConePerformance,
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


def enumerate_groups(space):
    """Yield ``(window, split, architectures)`` per (window, level split)
    of ``space``, in enumeration order: the group's candidates, one per
    primary (deepest) cone instance count ``1..max_cones_per_depth``, every
    other depth with one instance."""
    for window in space.window_sides:
        for split in space.level_splits():
            depths = sorted(set(split))
            yield window, split, [
                ConeArchitecture(
                    kernel_name=space.kernel_name, window_side=window,
                    level_depths=list(split),
                    cone_counts={**dict.fromkeys(depths, 1),
                                 depths[-1]: count},
                    radius=space.radius, components=space.components)
                for count in range(1, space.max_cones_per_depth + 1)]


def enumerate_architectures(space):
    """Every candidate of ``space``, in enumeration order."""
    for _window, _split, group in enumerate_groups(space):
        yield from group


def evaluate(throughput_model, architecture, cone_performance, frame_width,
             frame_height) -> ArchitecturePerformance:
    """One architecture's performance: a one-count ``estimate_batch`` call
    at its own primary instance count."""
    count = architecture.cone_counts[max(architecture.level_depths)]
    columns = throughput_model.estimate_batch(
        architecture, cone_performance, frame_width, frame_height,
        np.asarray([count], dtype=np.int64))
    return ArchitecturePerformance(
        architecture_label=columns["architecture_label"],
        clock_hz=columns["clock_hz"],
        tiles_per_frame=columns["tiles_per_frame"],
        compute_cycles_per_tile=float(columns["compute_cycles_per_tile"][0]),
        transfer_cycles_per_tile=columns["transfer_cycles_per_tile"],
        cycles_per_tile=float(columns["cycles_per_tile"][0]),
        seconds_per_frame=float(columns["seconds_per_frame"][0]),
        frames_per_second=float(columns["frames_per_second"][0]),
        offchip_bytes_per_frame=columns["offchip_bytes_per_frame"],
        compute_bound=bool(columns["compute_bound"][0]))


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
    for window, split, group in enumerate_groups(space):
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
                performance=evaluate(throughput_model, architecture,
                                     cone_performance, frame_width,
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
