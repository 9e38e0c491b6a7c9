"""Tests for the exploration evaluator against the per-point scalar oracle.

The headline property: every exploration runs the chunked fold, and its
serialized ``ExplorationResult`` is *byte-identical* to the one the scalar
loop (``scalar_oracle.explore_scalar``) produces — vectorization is a
performance concern, never a semantics concern.
"""

import dataclasses
import json
import random
from types import SimpleNamespace

import numpy as np
import pytest

from scalar_oracle import explore_scalar, scalar_exploration

from repro.architecture.enumeration import ArchitectureSpace
from repro.dse.constraints import DseConstraints
from repro.dse.engine import (build_points, cost_counts, fold_shard,
                              group_area, group_context, supports_batch)
from repro.dse.explorer import DesignSpaceExplorer
from repro.dse.pareto import pareto_indices
from repro.dse.stream import explore_stream, plan_chunks
from repro.estimation.throughput_model import ThroughputModel
from repro.ir.operators import DataFormat


def small_explorer(kernel, **overrides):
    keywords = dict(data_format=DataFormat.FIXED16,
                    window_sides=(1, 2, 3, 4), max_depth=3,
                    max_cones_per_depth=4, synthesize_all=True)
    keywords.update(overrides)
    return DesignSpaceExplorer(kernel, **keywords)


def serialized(result):
    return json.dumps(result.to_dict(), sort_keys=True)


class TestEngineEquivalence:
    """The fold's output must be byte-identical to the scalar loop's."""

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
        """The fold hands the *same objects* to the Pareto list, so the
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


class TestRowOrder:
    def test_chunk_rows_follow_the_scalar_enumeration(self):
        """Global row ``r`` of the fold is the ``r``-th architecture of the
        scalar enumeration, whatever the chunk size."""
        space = ArchitectureSpace(kernel_name="blur", total_iterations=6,
                                  radius=1, window_sides=(1, 2, 3),
                                  max_depth=3, max_cones_per_depth=4)
        expected = [architecture.to_dict()
                    for architecture in space.architectures()]
        assert space.size() == len(expected)
        for chunk_rows in (1, 3, 4, 100):
            for chunk in plan_chunks(space, chunk_rows):
                for offset, count in enumerate(chunk.counts().tolist()):
                    row = chunk.base_row + chunk.count_start + offset
                    assert (space.materialize_row_parts(
                        chunk.window, chunk.split, count).to_dict()
                        == expected[row])


class TestFoldKernel:
    """The per-chunk kernel functions, checked one at a time against the
    per-point oracle."""

    @pytest.fixture
    def inputs(self, igf_kernel):
        explorer = small_explorer(igf_kernel)
        characterizations, _ = explorer.characterize_cones(6)
        return (explorer, explorer._space(6), characterizations,
                explorer.device.usable_capacity.luts)

    @staticmethod
    def whole_axis_plans(space, chunks):
        return {(chunk.window_index, chunk.split_index): SimpleNamespace(
                    evaluable=True, start=0, stop=space.max_cones_per_depth)
                for chunk in chunks}

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

    def test_batch_and_pointwise_costing_build_identical_points(
            self, inputs):
        explorer, space, characterizations, usable = inputs
        model = explorer.throughput_model
        for window, split, group in space.architecture_groups():
            context = group_context(space, characterizations, window,
                                    tuple(split))
            counts = np.arange(1, len(group) + 1, dtype=np.int32)
            areas = group_area(counts, context.depths, context.primary,
                               context.area_by_depth)
            index = np.arange(counts.size)
            built = []
            for batch in (True, False):
                columns = cost_counts(model, batch, space, context, 128, 96,
                                      counts)
                built.append([point.to_dict() for point in build_points(
                    space, context, counts, areas, columns, index, usable)])
            assert built[0] == built[1]
            assert [point["architecture"] for point in built[0]] == [
                architecture.to_dict() for architecture in group]

    def test_fold_shard_costs_only_the_planned_interval(self, inputs):
        explorer, space, characterizations, usable = inputs
        chunks = plan_chunks(space, 2)
        groups = sorted({(chunk.window_index, chunk.split_index)
                         for chunk in chunks})
        # every third group is unevaluable; the others admit counts 2..3
        plans = {key: SimpleNamespace(evaluable=position % 3 != 0,
                                      start=1, stop=3)
                 for position, key in enumerate(groups)}
        report = fold_shard(space, characterizations,
                            explorer.throughput_model, 128, 96,
                            list(enumerate(chunks)), plans, None, usable,
                            True)

        def costed(chunk):
            plan = plans[(chunk.window_index, chunk.split_index)]
            return plan.evaluable and (min(chunk.count_stop, plan.stop)
                                       > max(chunk.count_start, plan.start))

        assert report["materialized"] == [
            index for index, chunk in enumerate(chunks) if costed(chunk)]
        assert report["chunks_skipped"] == sum(
            not costed(chunk) for chunk in chunks)
        bases = {chunk.base_row for chunk in chunks
                 if plans[(chunk.window_index, chunk.split_index)].evaluable}
        kept = sorted(report["points"], key=lambda pair: pair[0])
        rows = np.asarray([row for row, _ in kept], dtype=np.int64)
        assert rows.tolist() == sorted(base + offset for base in bases
                                       for offset in (1, 2))
        assert report["admitted_rows"] == rows.size
        oracle = scalar_exploration(space, characterizations,
                                    explorer.throughput_model, 128, 96,
                                    usable_luts=usable)
        by_row = dict(zip(oracle.row_index.tolist(), oracle.design_points))
        assert ([point.to_dict() for _, point in kept]
                == [by_row[row].to_dict() for row in rows.tolist()])
        keep = pareto_indices(
            np.asarray([point.area_luts for _, point in kept]),
            np.asarray([point.seconds_per_frame for _, point in kept]))
        assert np.array_equal(report["frontier"].result()[2], rows[keep])

    def test_fold_shard_filters_costed_rows_by_the_fps_floor(self, inputs):
        explorer, space, characterizations, usable = inputs
        model = explorer.throughput_model
        baseline = scalar_exploration(space, characterizations, model,
                                      128, 96, usable_luts=usable)
        floor = float(np.median(1.0 / baseline.seconds_per_frame))
        oracle = scalar_exploration(
            space, characterizations, model, 128, 96,
            DseConstraints(min_frames_per_second=floor), usable)
        chunks = plan_chunks(space, 3)
        report = fold_shard(space, characterizations, model, 128, 96,
                            list(enumerate(chunks)),
                            self.whole_axis_plans(space, chunks), floor,
                            usable, False)
        assert 0 < oracle.admitted_rows < space.size()
        assert report["admitted_rows"] == oracle.admitted_rows
        assert report["fps_rejected"] == space.size() - oracle.admitted_rows
        assert report["points"] == []
        assert np.array_equal(report["frontier"].result()[2],
                              oracle.pareto_row_index)

    def test_keeping_points_leaves_the_frontier_unchanged(self, inputs):
        explorer, space, characterizations, usable = inputs
        chunks = plan_chunks(space, 1)
        shard = list(enumerate(chunks))
        random.Random(5).shuffle(shard)
        plans = self.whole_axis_plans(space, chunks)
        lean, full = (fold_shard(space, characterizations,
                                 explorer.throughput_model, 128, 96, shard,
                                 plans, None, usable, keep_points)
                      for keep_points in (False, True))
        for lean_column, full_column in zip(lean["frontier"].result(),
                                            full["frontier"].result()):
            assert np.array_equal(lean_column, full_column)
        assert lean["admitted_rows"] == full["admitted_rows"] == space.size()
        assert len(full["points"]) == space.size()
        assert sorted(lean["materialized"]) == list(range(len(chunks)))


class TestBackendCompatibility:
    def test_builtin_model_is_batch_capable(self):
        assert supports_batch(ThroughputModel())

    def test_override_of_evaluate_is_honored_pointwise(self, igf_kernel):
        """A backend that overrides ``evaluate`` must be honored point-wise
        instead of silently evaluating the stock batch formula."""

        class Halved(ThroughputModel):
            def evaluate(self, architecture, cone_performance,
                         frame_width, frame_height):
                performance = super().evaluate(
                    architecture, cone_performance, frame_width, frame_height)
                return dataclasses.replace(
                    performance,
                    seconds_per_frame=performance.seconds_per_frame * 2.0,
                    frames_per_second=performance.frames_per_second / 2.0)

        assert not supports_batch(Halved())
        explorer = small_explorer(igf_kernel,
                                  throughput_model_factory=Halved)
        auto = explorer.explore(6, 128, 96)
        scalar = explore_scalar(explorer, 6, 128, 96)
        assert serialized(auto) == serialized(scalar)
        stock = small_explorer(igf_kernel).explore(6, 128, 96)
        assert (auto.design_points[0].seconds_per_frame
                == 2.0 * stock.design_points[0].seconds_per_frame)
        # a floor on the halved rates admits what the scalar loop admits
        floor = DseConstraints(min_frames_per_second=float(np.median(
            [p.frames_per_second for p in auto.design_points])))
        assert serialized(explorer.explore(6, 128, 96, floor)) == serialized(
            explore_scalar(explorer, 6, 128, 96, floor))

    def test_override_of_compute_cycles_hook_is_honored_pointwise(
            self, igf_kernel):
        """``compute_cycles_per_tile`` is a public hook ``evaluate`` calls;
        a subclass override must be honored, never silently replaced by the
        stock batch accumulation."""

        class Congested(ThroughputModel):
            def compute_cycles_per_tile(self, architecture,
                                        cone_performance):
                return 1.5 * super().compute_cycles_per_tile(
                    architecture, cone_performance)

        assert not supports_batch(Congested())
        explorer = small_explorer(igf_kernel,
                                  throughput_model_factory=Congested)
        auto = explorer.explore(6, 128, 96)
        assert serialized(auto) == serialized(explore_scalar(explorer, 6, 128,
                                                             96))
        stock = small_explorer(igf_kernel).explore(6, 128, 96)
        assert (auto.design_points[0].performance.compute_cycles_per_tile
                == 1.5 * stock.design_points[0].performance
                .compute_cycles_per_tile)

    def test_override_of_estimate_batch_alone_is_never_consulted(
            self, igf_kernel):
        """A lone ``estimate_batch`` override cannot be proven consistent
        with per-point evaluation, so the fold costs point-wise (where the
        override is simply never consulted)."""

        class Padded(ThroughputModel):
            def estimate_batch(self, architecture, cone_performance,
                               frame_width, frame_height, primary_counts):
                columns = dict(super().estimate_batch(
                    architecture, cone_performance, frame_width,
                    frame_height, primary_counts))
                columns["seconds_per_frame"] = (
                    columns["seconds_per_frame"] * 1.25)
                return columns

        assert not supports_batch(Padded())
        explorer = small_explorer(igf_kernel,
                                  throughput_model_factory=Padded)
        auto = explorer.explore(6, 128, 96)
        assert serialized(auto) == serialized(explore_scalar(explorer, 6, 128,
                                                             96))
        assert serialized(auto) == serialized(
            small_explorer(igf_kernel).explore(6, 128, 96))

    def test_interval_hook_override_keeps_batch_costing_consistent(
            self, igf_kernel):
        """The fine-grained hooks are invoked on the instance by both
        paths, so overriding them composes with batch costing."""

        class SlowPorts(ThroughputModel):
            def execution_interval_cycles(self, architecture, depth,
                                          performance):
                return 2.0 * super().execution_interval_cycles(
                    architecture, depth, performance)

        assert supports_batch(SlowPorts())
        explorer = small_explorer(igf_kernel,
                                  throughput_model_factory=SlowPorts)
        auto = explorer.explore(6, 128, 96)
        assert serialized(auto) == serialized(explore_scalar(explorer, 6, 128,
                                                             96))
        stock = small_explorer(igf_kernel).explore(6, 128, 96)
        assert (auto.design_points[0].seconds_per_frame
                > stock.design_points[0].seconds_per_frame)
