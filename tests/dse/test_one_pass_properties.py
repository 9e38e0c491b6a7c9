"""Property suite for the one pass that answers every exploration.

The contract under test: on any count axis (shorter than the cost table,
as long, or running past it), with any primary cone areas (negative, zero
or positive, so duplicate (area, frame time) pairs are common), under no
constraint, within the device or above a min-fps floor, at any chunk size
and under the stock, slowed and negative-interval throughput models,
``explore_stream`` admits exactly the rows the per-point scalar oracle
admits and keeps its Pareto frontier (same global rows, byte-identical
serialized points, first-seen tie-break included), in both materialize
modes, from a cost table no wider than the largest saturation count.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalar_oracle import NegativeInterval, SlowPorts, scalar_exploration

import repro.dse.stream as stream_module
from repro.algorithms import get_algorithm
from repro.dse.constraints import DseConstraints
from repro.dse.explorer import DesignSpaceExplorer
from repro.dse.stream import clear_stream_caches, explore_stream
from repro.estimation.throughput_model import ThroughputModel
from repro.ir.operators import DataFormat

#: The most executions a level of this space runs per tile (window 3,
#: depth 1): the cost table is never wider.
LARGEST_SATURATION = 25

SHAPES = [(window, depth) for window in (3, 4) for depth in (1, 2, 3)]


@pytest.fixture(scope="module")
def inputs():
    explorer = DesignSpaceExplorer(
        get_algorithm("blur").kernel(), data_format=DataFormat.FIXED16,
        window_sides=(3, 4), max_depth=3, max_cones_per_depth=6,
        synthesize_all=True)
    characterizations, _ = explorer.characterize_cones(6)
    return (explorer, explorer._space(6), characterizations,
            explorer.device.usable_capacity.luts)


def serialized_points(points):
    return json.dumps([p.to_dict() for p in points], sort_keys=True)


@pytest.mark.parametrize("materialize", ["admitted", "frontier"])
@given(n_counts=st.integers(min_value=1, max_value=2 * LARGEST_SATURATION
                            + 10),
       areas=st.dictionaries(st.sampled_from(SHAPES),
                             st.sampled_from([-300.0, -1.0, 0.0, 1.0,
                                              300.0]),
                             max_size=2),
       constraint=st.sampled_from(["none", "device", "floor"]),
       floor_percentile=st.integers(min_value=0, max_value=100),
       model_class=st.sampled_from([ThroughputModel, SlowPorts,
                                    NegativeInterval]),
       chunk_rows=st.sampled_from([1, 2, 7, 4096]))
@settings(max_examples=100, deadline=None)
def test_the_pass_answers_like_the_scalar_oracle_on_any_count_axis(
        inputs, materialize, n_counts, areas, constraint, floor_percentile,
        model_class, chunk_rows):
    explorer, space, characterizations, usable = inputs
    space = dataclasses.replace(space, max_cones_per_depth=n_counts)
    characterizations = dict(characterizations)
    for shape, area in areas.items():
        characterizations[shape] = dataclasses.replace(
            characterizations[shape], estimated_area_luts=area,
            actual_area_luts=area)
    model = model_class(device=explorer.device,
                        data_format=explorer.data_format)
    constraints = None
    if constraint == "device":
        constraints = DseConstraints(device_only=True)
    elif constraint == "floor":
        everything = scalar_exploration(space, characterizations, model, 128,
                                        96)
        constraints = DseConstraints(min_frames_per_second=float(
            np.percentile([point.frames_per_second
                           for point in everything.design_points],
                          floor_percentile)))
    clear_stream_caches()
    oracle = scalar_exploration(space, characterizations, model, 128, 96,
                                constraints, usable)
    result = explore_stream(space, characterizations, model, 128, 96,
                            constraints, usable, chunk_rows=chunk_rows,
                            materialize=materialize)
    assert result.admitted_rows == oracle.admitted_rows
    assert (result.pruned_rows - result.throughput_pruned_rows
            == oracle.area_pruned_rows)
    assert np.array_equal(result.pareto_row_index, oracle.pareto_row_index)
    assert (serialized_points(result.pareto)
            == serialized_points(oracle.pareto))
    assert serialized_points(result.design_points) == serialized_points(
        oracle.design_points if materialize == "admitted" else oracle.pareto)
    splits = tuple(tuple(split) for split in space.level_splits())
    table = stream_module._cached_costs(
        space, splits, characterizations,
        stream_module._characterization_key(characterizations), model)
    assert table.area.shape == (len(space.window_sides) * len(splits),
                                min(n_counts, LARGEST_SATURATION))
