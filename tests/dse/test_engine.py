"""Tests for the exploration evaluator against the per-point scalar oracle.

The headline property: every exploration runs the chunked fold, and its
serialized ``ExplorationResult`` is *byte-identical* to the one the scalar
loop (``scalar_oracle.explore_scalar``) produces — vectorization is a
performance concern, never a semantics concern.
"""

import json
import random
from types import SimpleNamespace

import numpy as np
import pytest

from scalar_oracle import explore_scalar, scalar_exploration

from repro.architecture.enumeration import ArchitectureSpace
from repro.dse.constraints import DseConstraints
from repro.dse.engine import (build_points, cost_counts, fold_chunks,
                              group_area, group_context)
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

    def test_batch_costing_builds_the_per_point_evaluations(self, inputs):
        explorer, space, characterizations, usable = inputs
        model = explorer.throughput_model
        for window, split, group in space.architecture_groups():
            context = group_context(space, characterizations, window,
                                    tuple(split))
            counts = np.arange(1, len(group) + 1, dtype=np.int32)
            areas = group_area(counts, context.depths, context.primary,
                               context.area_by_depth)
            columns = cost_counts(model, context, 128, 96, counts)
            points = build_points(space, context, counts, areas, columns,
                                  np.arange(counts.size), usable)
            assert [point.architecture.to_dict() for point in points] == [
                architecture.to_dict() for architecture in group]
            assert [point.performance.to_dict() for point in points] == [
                model.evaluate(architecture, context.cone_performance,
                               128, 96).to_dict()
                for architecture in group]

    def test_fold_chunks_costs_only_the_planned_interval(self, inputs):
        explorer, space, characterizations, usable = inputs
        chunks = plan_chunks(space, 2)
        groups = sorted({(chunk.window_index, chunk.split_index)
                         for chunk in chunks})
        # every third group is unevaluable; the others admit counts 2..3
        plans = {key: SimpleNamespace(evaluable=position % 3 != 0,
                                      start=1, stop=3)
                 for position, key in enumerate(groups)}
        report = fold_chunks(space, characterizations,
                             explorer.throughput_model, 128, 96,
                             chunks, plans, None, usable, True)

        def costed(chunk):
            plan = plans[(chunk.window_index, chunk.split_index)]
            return plan.evaluable and (min(chunk.count_stop, plan.stop)
                                       > max(chunk.count_start, plan.start))

        assert report["chunks_materialized"] == sum(
            costed(chunk) for chunk in chunks)
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

    def test_fold_chunks_filters_costed_rows_by_the_fps_floor(self, inputs):
        explorer, space, characterizations, usable = inputs
        model = explorer.throughput_model
        baseline = scalar_exploration(space, characterizations, model,
                                      128, 96, usable_luts=usable)
        floor = float(np.median(1.0 / baseline.seconds_per_frame))
        oracle = scalar_exploration(
            space, characterizations, model, 128, 96,
            DseConstraints(min_frames_per_second=floor), usable)
        chunks = plan_chunks(space, 3)
        report = fold_chunks(space, characterizations, model, 128, 96,
                             chunks, self.whole_axis_plans(space, chunks),
                             floor, usable, False)
        assert 0 < oracle.admitted_rows < space.size()
        assert report["admitted_rows"] == oracle.admitted_rows
        assert report["fps_rejected"] == space.size() - oracle.admitted_rows
        assert report["points"] == []
        assert np.array_equal(report["frontier"].result()[2],
                              oracle.pareto_row_index)

    def test_keeping_points_leaves_the_frontier_unchanged(self, inputs):
        explorer, space, characterizations, usable = inputs
        chunks = plan_chunks(space, 1)
        shuffled = list(chunks)
        random.Random(5).shuffle(shuffled)
        plans = self.whole_axis_plans(space, chunks)
        lean, full = (fold_chunks(space, characterizations,
                                  explorer.throughput_model, 128, 96,
                                  shuffled, plans, None, usable, keep_points)
                      for keep_points in (False, True))
        for lean_column, full_column in zip(lean["frontier"].result(),
                                            full["frontier"].result()):
            assert np.array_equal(lean_column, full_column)
        assert lean["admitted_rows"] == full["admitted_rows"] == space.size()
        assert len(full["points"]) == space.size()
        assert lean["chunks_materialized"] == len(chunks)


class TestModelHooks:
    def test_interval_hook_override_keeps_batch_costing_consistent(
            self, igf_kernel):
        """The per-tile hooks are invoked on the instance by the batch
        formula and by ``evaluate``, so overriding one composes with batch
        costing."""

        class SlowPorts(ThroughputModel):
            def execution_interval_cycles(self, architecture, depth,
                                          performance):
                return 2.0 * super().execution_interval_cycles(
                    architecture, depth, performance)

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
