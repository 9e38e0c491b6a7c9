"""Tests for the exploration evaluator against the per-point scalar oracle.

The headline property: whichever design points an exploration keeps (every
admitted row in memory, the frontier when streamed), its serialized
``ExplorationResult`` is *byte-identical* to the one the scalar loop
(``scalar_oracle.explore_scalar``) produces — vectorization is a
performance concern, never a semantics concern.
"""

import gc
import json
import math
import random
import tracemalloc

import numpy as np
import pytest

from scalar_oracle import (NegativeInterval, SlowPorts, explore_scalar,
                           scalar_exploration)

from repro.algorithms import get_algorithm
from repro.dse.constraints import DseConstraints
from repro.dse.design_point import DesignPoint
from repro.dse.engine import (_chunk_grid, build_points, cost_counts,
                              group_area, group_context)
from repro.dse.explorer import DesignSpaceExplorer
from repro.dse.stream import explore_stream
from repro.estimation.throughput_model import (ArchitecturePerformance,
                                               ThroughputModel)
from repro.ir.operators import DataFormat


def small_explorer(kernel, **overrides):
    keywords = dict(data_format=DataFormat.FIXED16,
                    window_sides=(1, 2, 3, 4), max_depth=3,
                    max_cones_per_depth=4, synthesize_all=True)
    keywords.update(overrides)
    return DesignSpaceExplorer(kernel, **keywords)


def serialized(result):
    return json.dumps(result.to_dict(), sort_keys=True)


def serialized_points(points):
    return json.dumps([point.to_dict() for point in points], sort_keys=True)


class TestEngineEquivalence:
    """An exploration's output must be byte-identical to the scalar
    loop's."""

    def test_unconstrained_exploration_is_byte_identical(self, igf_kernel):
        explorer = small_explorer(igf_kernel)
        engine = explorer.explore(6, 128, 96)
        scalar = explore_scalar(explorer, 6, 128, 96)
        assert engine.design_points  # non-trivial space
        assert serialized(engine) == serialized(scalar)

    def test_constrained_exploration_is_byte_identical(self, igf_kernel):
        explorer = small_explorer(igf_kernel)
        baseline = explorer.explore(6, 128, 96)
        areas = sorted(p.area_luts for p in baseline.design_points)
        rates = sorted(p.frames_per_second for p in baseline.design_points)
        # prune roughly half the space on each objective
        constraints = DseConstraints(
            max_area_luts=areas[len(areas) // 2],
            min_frames_per_second=rates[len(rates) // 2],
            device_only=True)
        engine = explorer.explore(6, 128, 96, constraints=constraints)
        scalar = explore_scalar(explorer, 6, 128, 96, constraints=constraints)
        assert 0 < len(engine.design_points) < len(baseline.design_points)
        assert serialized(engine) == serialized(scalar)

    def test_multi_field_kernel_is_byte_identical(self, chambolle_kernel):
        explorer = small_explorer(chambolle_kernel, window_sides=(1, 2, 3),
                                  max_depth=2, synthesize_all=False)
        engine = explorer.explore(4, 64, 64)
        scalar = explore_scalar(explorer, 4, 64, 64)
        assert serialized(engine) == serialized(scalar)

    def test_port_override_is_byte_identical(self, igf_kernel):
        explorer = small_explorer(igf_kernel)
        engine = explorer.explore(6, 128, 96, onchip_port_elements_per_cycle=4)
        scalar = explore_scalar(explorer, 6, 128, 96,
                                onchip_port_elements_per_cycle=4)
        assert serialized(engine) == serialized(scalar)
        assert serialized(engine) != serialized(explorer.explore(6, 128, 96))

    def test_pareto_entries_are_indices_into_design_points(self, igf_kernel):
        """The pass hands the *same objects* to the Pareto list, so the
        serialized Pareto set stays index-encoded (not parallel copies)."""
        result = small_explorer(igf_kernel).explore(6, 128, 96)
        payload = result.to_dict()
        assert payload["pareto"]
        assert all(isinstance(entry, int) for entry in payload["pareto"])


class TestConstraintPushdown:
    def test_area_infeasible_rows_are_never_costed(self, igf_kernel):
        explorer = small_explorer(igf_kernel)
        characterizations, _ = explorer.characterize_cones(6)
        space = explorer._space(6)
        baseline = explore_stream(
            space, characterizations, explorer.throughput_model, 128, 96,
            materialize="admitted")
        assert baseline.pruned_rows == 0
        cutoff = float(np.median([p.area_luts
                                  for p in baseline.design_points]))
        constrained = explore_stream(
            space, characterizations, explorer.throughput_model, 128, 96,
            constraints=DseConstraints(max_area_luts=cutoff),
            materialize="admitted")
        assert constrained.pruned_rows > 0
        assert (constrained.admitted_rows + constrained.pruned_rows
                == baseline.admitted_rows)
        assert all(p.area_luts <= cutoff for p in constrained.design_points)

    def test_frontier_only_materialization(self, igf_kernel):
        explorer = small_explorer(igf_kernel)
        characterizations, _ = explorer.characterize_cones(6)
        space = explorer._space(6)
        full = explore_stream(
            space, characterizations, explorer.throughput_model, 128, 96,
            materialize="admitted")
        frontier = explore_stream(
            space, characterizations, explorer.throughput_model, 128, 96)
        assert len(full.design_points) == full.admitted_rows > len(full.pareto)
        assert frontier.design_points == frontier.pareto
        assert ([p.to_dict() for p in frontier.pareto]
                == [p.to_dict() for p in full.pareto])

    def test_unknown_materialize_mode_rejected(self, igf_kernel):
        explorer = small_explorer(igf_kernel)
        characterizations, _ = explorer.characterize_cones(6)
        with pytest.raises(ValueError, match="materialize"):
            explore_stream(explorer._space(6), characterizations,
                           explorer.throughput_model, 128, 96,
                           materialize="everything")


@pytest.fixture
def inputs(igf_kernel):
    explorer = small_explorer(igf_kernel)
    characterizations, _ = explorer.characterize_cones(6)
    return (explorer, explorer._space(6), characterizations,
            explorer.device.usable_capacity.luts)


def group_rows(model, context, counts, frame_width, frame_height):
    """The builder's arguments for ``counts`` of one group: its area and
    batch columns at the frame size, as plain lists and scalars."""
    columns = cost_counts(model, context, frame_width, frame_height, counts)
    return dict(
        {name: value.tolist() if isinstance(value, np.ndarray) else value
         for name, value in columns.items()},
        counts=counts.tolist(),
        areas=group_area(counts, context.depths, context.primary,
                         context.area_by_depth).tolist())


class TestRowOrder:
    def test_rows_follow_the_scalar_enumeration(self, inputs):
        """Global row ``r`` of an exploration is the ``r``-th architecture
        of the scalar enumeration, whatever the chunk size."""
        explorer, space, characterizations, usable = inputs
        expected = [architecture.to_dict()
                    for architecture in space.architectures()]
        assert space.size() == len(expected)
        for chunk_rows in (1, 3, 4, 100):
            result = explore_stream(space, characterizations,
                                    explorer.throughput_model, 128, 96,
                                    usable_luts=usable,
                                    chunk_rows=chunk_rows,
                                    materialize="admitted")
            assert [point.architecture.to_dict()
                    for point in result.design_points] == expected
            assert [point.architecture.to_dict()
                    for point in result.pareto] == [
                expected[row] for row in result.pareto_row_index.tolist()]


class TestPassKernel:
    """The pass's kernel functions, checked one at a time against the
    per-point oracle."""

    def test_group_area_reproduces_the_per_point_sum_on_any_slice(
            self, inputs):
        _, space, characterizations, _ = inputs
        for window, split, group in space.architecture_groups():
            context = group_context(space, characterizations, window,
                                    tuple(split))
            expected = [sum(architecture.cone_counts[depth]
                            * context.area_by_depth[depth]
                            for depth in context.depths)
                        for architecture in group]
            counts = np.arange(1, len(group) + 1, dtype=np.int32)
            for start in range(len(group)):
                area = group_area(counts[start:], context.depths,
                                  context.primary, context.area_by_depth)
                assert area.tolist() == expected[start:]

    def test_batch_costing_builds_the_per_point_evaluations(self, inputs):
        """One group's batch columns, handed to the builder as plain lists,
        build the enumeration's architectures with ``evaluate``'s
        performance, the per-point area sum and the device check."""
        explorer, space, characterizations, usable = inputs
        model = explorer.throughput_model
        for window, split, group in space.architecture_groups():
            context = group_context(space, characterizations, window,
                                    tuple(split))
            counts = np.arange(1, len(group) + 1, dtype=np.int32)
            points = build_points(space, context, usable,
                                  **group_rows(model, context, counts, 128,
                                               96))
            assert [point.architecture for point in points] == group
            assert [point.performance for point in points] == [
                model.evaluate(architecture, context.cone_performance,
                               128, 96)
                for architecture in group]
            sums = [sum(architecture.cone_counts[depth]
                        * context.area_by_depth[depth]
                        for depth in context.depths)
                    for architecture in group]
            assert [point.area_luts for point in points] == sums
            assert [point.fits_device for point in points] == [
                total <= usable for total in sums]
            assert all(point.area_estimated == context.area_estimated
                       and point.cone_area_by_depth
                       == dict(context.area_by_depth) for point in points)

    def test_chunk_grid_counts_the_chunks_of_the_intervals(self):
        """The pass works out the chunk accounting from the intervals: the
        same count and largest chunk as cutting them at multiples of
        ``chunk_rows``."""
        rng = random.Random(30)
        for _ in range(2000):
            chunk_rows = rng.randint(1, 9)
            intervals = []
            for _ in range(rng.randint(0, 5)):
                prefix = rng.randint(0, 30)
                intervals.append((rng.randint(0, prefix), prefix))
            sizes = [min(low + chunk_rows, prefix) - max(low, start)
                     for start, prefix in intervals if start < prefix
                     for low in range(start - start % chunk_rows, prefix,
                                      chunk_rows)]
            starts = np.asarray([start for start, _ in intervals],
                                dtype=np.int64)
            prefixes = np.asarray([prefix for _, prefix in intervals],
                                  dtype=np.int64)
            assert _chunk_grid(starts, prefixes, chunk_rows) == (
                len(sizes), max(sizes, default=0))

class TestModelHooks:
    def test_interval_hook_override_keeps_batch_costing_consistent(
            self, igf_kernel):
        """The per-tile hooks are invoked on the instance by the batch
        formula and by ``evaluate``, so overriding one composes with batch
        costing."""
        explorer = small_explorer(igf_kernel)
        stock_model = explorer.throughput_model
        explorer.throughput_model = SlowPorts(
            device=stock_model.device, data_format=stock_model.data_format,
            readonly_components=stock_model.readonly_components,
            onchip_port_elements_per_cycle=(
                stock_model.onchip_port_elements_per_cycle))
        auto = explorer.explore(6, 128, 96)
        assert serialized(auto) == serialized(explore_scalar(explorer, 6, 128,
                                                             96))
        stock = small_explorer(igf_kernel).explore(6, 128, 96)
        assert (auto.design_points[0].seconds_per_frame
                > stock.design_points[0].seconds_per_frame)

    def test_saturation_count_is_where_the_columns_stop_changing(self):
        """On every group of the blur and chamb paper spaces, the batch
        columns at counts ``S`` to ``S + 20`` equal the column at the
        saturation count ``S`` bit for bit, and below ``S`` the compute
        cycles still change."""
        models = [model_class(data_format=DataFormat.FIXED16)
                  for model_class in (ThroughputModel, SlowPorts,
                                      NegativeInterval)]
        for kernel, iterations in (("blur", 10), ("chamb", 11)):
            explorer = DesignSpaceExplorer(
                get_algorithm(kernel).kernel(),
                data_format=DataFormat.FIXED16,
                window_sides=tuple(range(1, 10)), max_depth=5,
                max_cones_per_depth=16)
            characterizations, _ = explorer.characterize_cones(iterations)
            space = explorer._space(iterations)
            for window, split, _group in space.architecture_groups():
                context = group_context(space, characterizations, window,
                                        tuple(split))
                for model in models:
                    saturation = model.saturation_count(
                        context.representative)
                    low = max(saturation - 1, 1)
                    columns = cost_counts(
                        model, context, 1024, 768,
                        np.arange(low, saturation + 21, dtype=np.int64))
                    at = saturation - low  # the position of count S
                    for name, column in columns.items():
                        if not isinstance(column, np.ndarray):
                            continue
                        assert all(value.tobytes() == column[at].tobytes()
                                   for value in column[at:]), name
                    if saturation > 1:
                        compute = columns["compute_cycles_per_tile"]
                        assert compute[0] != compute[1]

    def test_tile_count_hook_override_holds_in_both_modes(self, inputs):
        """A model whose tile count, like the stock one, reads only the
        window side answers like the scalar oracle in both materialize
        modes; the pass asks it once per distinct window side."""
        explorer, space, characterizations, usable = inputs
        sides = []

        class HaloTiles(ThroughputModel):
            """Tiles one extra ring of windows around the frame."""

            def tiles_per_frame(self, architecture, frame_width,
                                frame_height):
                side = architecture.window_side
                sides.append(side)
                return ((math.ceil(frame_width / side) + 2)
                        * (math.ceil(frame_height / side) + 2))

        model = HaloTiles(device=explorer.device,
                          data_format=explorer.data_format)
        oracle = scalar_exploration(space, characterizations, model, 128, 96,
                                    usable_luts=usable)
        stock = scalar_exploration(space, characterizations,
                                   explorer.throughput_model, 128, 96,
                                   usable_luts=usable)
        assert (serialized_points(oracle.design_points)
                != serialized_points(stock.design_points))
        for materialize, expected in (("admitted", oracle.design_points),
                                      ("frontier", oracle.pareto)):
            sides.clear()
            result = explore_stream(space, characterizations, model, 128,
                                    96, usable_luts=usable,
                                    materialize=materialize)
            assert (serialized_points(result.design_points)
                    == serialized_points(expected))
            assert (serialized_points(result.pareto)
                    == serialized_points(oracle.pareto))
            if materialize == "admitted":
                assert sorted(sides) == sorted(space.window_sides)


class TestPointBuilder:
    def test_built_points_take_no_more_memory_than_public_ones(
            self, igf_kernel):
        """From the same rows, the 720 points of an unconstrained
        paper-space request take at most 2% more traced bytes from the
        builder than from ``materialize_row_parts`` and the public keyword
        constructors (a frozen instance filled through its ``__dict__``
        takes about twice the bytes)."""
        explorer = DesignSpaceExplorer(
            igf_kernel, data_format=DataFormat.FIXED16,
            window_sides=tuple(range(1, 10)), max_depth=5,
            max_cones_per_depth=16)
        characterizations, _ = explorer.characterize_cones(10)
        space = explorer._space(10)
        model = explorer.throughput_model
        usable = explorer.device.usable_capacity.luts
        counts = np.arange(1, space.max_cones_per_depth + 1, dtype=np.int64)
        groups = []
        for window, split, _group in space.architecture_groups():
            context = group_context(space, characterizations, window,
                                    tuple(split))
            groups.append((context, group_rows(model, context, counts, 1024,
                                               768)))

        def built():
            return [point for context, rows in groups
                    for point in build_points(space, context, usable,
                                              **rows)]

        def public():
            return [
                DesignPoint(
                    architecture=space.materialize_row_parts(
                        context.window, context.split, count),
                    area_luts=area,
                    area_estimated=context.area_estimated,
                    performance=ArchitecturePerformance(
                        architecture_label=rows["architecture_label"],
                        clock_hz=rows["clock_hz"],
                        tiles_per_frame=rows["tiles_per_frame"],
                        compute_cycles_per_tile=compute,
                        transfer_cycles_per_tile=rows[
                            "transfer_cycles_per_tile"],
                        cycles_per_tile=cycles,
                        seconds_per_frame=seconds,
                        frames_per_second=rate,
                        offchip_bytes_per_frame=rows[
                            "offchip_bytes_per_frame"],
                        compute_bound=bound),
                    fits_device=area <= usable,
                    cone_area_by_depth=dict(context.area_by_depth))
                for context, rows in groups
                for count, area, compute, cycles, seconds, rate, bound in zip(
                    rows["counts"], rows["areas"],
                    rows["compute_cycles_per_tile"], rows["cycles_per_tile"],
                    rows["seconds_per_frame"], rows["frames_per_second"],
                    rows["compute_bound"])]

        def traced_bytes(build):
            gc.collect()
            tracemalloc.start()
            try:
                points = build()
                size, _peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return points, size

        points, builder_bytes = traced_bytes(built)
        twins, public_bytes = traced_bytes(public)
        assert len(points) == space.size() == 720
        assert points == twins
        assert builder_bytes <= 1.02 * public_bytes
