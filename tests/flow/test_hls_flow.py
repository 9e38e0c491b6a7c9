"""Tests for the end-to-end flow result (through ``Session``) and the
reporting helpers."""

import pytest

from repro.api import Session, Workload
from repro.dse.constraints import DseConstraints
from repro.flow.report import (
    area_validation_table,
    flow_summary,
    pareto_table,
    throughput_table,
)
from repro.ir.operators import DataFormat


SMALL = dict(
    data_format=DataFormat.FIXED16,
    frame_width=128,
    frame_height=96,
    iterations=4,
    window_sides=(1, 2, 3),
    max_depth=2,
    max_cones_per_depth=3,
)


def small_workload(kernel, **overrides):
    return Workload.from_kernel(kernel, **dict(SMALL, **overrides))


@pytest.fixture(scope="module")
def igf_flow_result(igf_kernel):
    return Session().run(small_workload(igf_kernel, synthesize_all=True))


class TestFlowResult:
    def test_result_structure(self, igf_flow_result):
        result = igf_flow_result
        assert result.kernel.name == "blur"
        assert result.properties.radius == 1
        assert result.design_points and result.pareto
        assert result.exploration.total_iterations == 4

    def test_best_and_extreme_points(self, igf_flow_result):
        best = igf_flow_result.best_fitting_point()
        fastest = igf_flow_result.fastest_point()
        smallest = igf_flow_result.smallest_point()
        assert best is not None
        assert fastest.seconds_per_frame <= best.seconds_per_frame
        assert smallest.area_luts <= best.area_luts

    def test_constraints_are_honoured(self, igf_kernel):
        result = Session().run(small_workload(
            igf_kernel, constraints=DseConstraints(device_only=True)))
        assert all(p.fits_device for p in result.design_points)

    def test_repeated_runs_return_fresh_results(self, igf_kernel):
        """Mutating a returned result must not leak into a later run()."""
        session = Session()
        workload = small_workload(igf_kernel, synthesize_all=True)
        first = session.run(workload)
        point_count = len(first.design_points)
        first.design_points.clear()
        second = session.run(workload)
        assert second is not first
        assert len(second.design_points) == point_count

    def test_extreme_points_are_none_when_constraints_exclude_everything(
            self, igf_kernel):
        """Regression: fastest/smallest_point used to crash with a bare
        ValueError from min() on an empty design-point list."""
        result = Session().run(small_workload(
            igf_kernel, constraints=DseConstraints(max_area_luts=1.0)))
        assert result.design_points == []
        assert result.fastest_point() is None
        assert result.smallest_point() is None
        assert result.best_fitting_point() is None


class TestVhdlGeneration:
    def test_generate_vhdl_for_a_design_point(self, igf_kernel, igf_flow_result):
        point = igf_flow_result.pareto[-1]
        files = Session().generate_vhdl(
            small_workload(igf_kernel, synthesize_all=True), point=point)
        assert "isl_fixed_pkg.vhd" in files
        entity_files = [name for name in files if name.endswith(".vhd")
                        and "pkg" not in name and "top" not in name]
        assert len(entity_files) == len(point.architecture.distinct_depths)
        top_files = [name for name in files if name.endswith("_top.vhd")]
        assert len(top_files) == 1
        assert "entity" in files[top_files[0]]


class TestReports:
    def test_pareto_table(self, igf_flow_result):
        table = pareto_table(igf_flow_result.pareto)
        text = table.render()
        assert "kLUTs" in text and "fps" in text
        assert len(table.rows) == len(igf_flow_result.pareto)

    def test_area_validation_table(self, igf_flow_result):
        text = area_validation_table(
            igf_flow_result.exploration.area_validations).render()
        assert "max error %" in text

    def test_throughput_table(self, igf_flow_result):
        table = throughput_table(igf_flow_result.exploration)
        assert len(table.rows) == 3  # one row per window side
        assert "depth 1 (fps)" in table.columns[1]

    def test_flow_summary_mentions_key_quantities(self, igf_flow_result):
        text = flow_summary(igf_flow_result.exploration)
        assert "design points" in text
        assert "Pareto" in text
        assert "blur" in text
