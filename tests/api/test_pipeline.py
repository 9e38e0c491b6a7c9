"""Unit tests for the staged pipeline."""

import pytest

from repro.api import Pipeline, PipelineError, STAGE_NAMES, Workload
from repro.api.results import FlowResult
from repro.dse.explorer import ExplorationResult
from repro.frontend.dsl import stencil_kernel


SMALL = dict(iterations=4, window_sides=(1, 2, 3), max_depth=2,
             max_cones_per_depth=3, frame_width=128, frame_height=96)


@pytest.fixture()
def small_pipeline():
    return Pipeline(Workload.from_algorithm("blur", **SMALL))


class TestStages:
    def test_stage_order_and_artifacts(self, small_pipeline):
        assert STAGE_NAMES == ("frontend", "analyze", "characterize",
                               "explore", "pareto", "codegen")
        kernel = small_pipeline.run_stage("frontend")
        assert kernel.name == "blur"
        analysis = small_pipeline.run_stage("analyze")
        assert analysis["invariance"].is_isl
        characterization = small_pipeline.run_stage("characterize")
        assert characterization["characterizations"]
        exploration = small_pipeline.run_stage("explore")
        assert isinstance(exploration, ExplorationResult)
        result = small_pipeline.run_stage("pareto")
        assert isinstance(result, FlowResult)
        assert result.pareto

    def test_running_a_late_stage_runs_prerequisites(self, small_pipeline):
        result = small_pipeline.run_stage("pareto")
        assert isinstance(result, FlowResult)
        for stage in ("frontend", "analyze", "characterize", "explore"):
            assert small_pipeline.has_run(stage)

    def test_unknown_stage_rejected(self, small_pipeline):
        with pytest.raises(PipelineError, match="unknown stage"):
            small_pipeline.run_stage("synthesize")

    def test_codegen_stage_produces_vhdl(self, small_pipeline):
        files = small_pipeline.run_stage("codegen")
        assert "isl_fixed_pkg.vhd" in files
        assert any(name.endswith("_top.vhd") for name in files)

    def test_non_isl_kernel_fails_in_analyze(self):
        def define(k):
            f = k.field("f")
            k.update(f, f(10, 0) + f(-10, 0))

        pipeline = Pipeline(Workload.from_kernel(
            stencil_kernel("wide", define), **SMALL))
        pipeline.run_stage("frontend")
        with pytest.raises(PipelineError, match="narrow|outside the ISL class"):
            pipeline.run_stage("analyze")

    def test_a_parameter_that_zeroes_a_divisor_fails_in_analyze(self):
        pipeline = Pipeline(Workload.from_algorithm(
            "chamb", params={"lambda": 0.0}, **SMALL))
        with pytest.raises(PipelineError,
                           match="divides by lambda, which folds to the "
                                 "constant zero"):
            pipeline.run_stage("analyze")
        assert not pipeline.has_run("characterize")

    def test_observer_sees_every_stage(self):
        events = []
        pipeline = Pipeline(
            Workload.from_algorithm("blur", **SMALL),
            observer=lambda stage, status, elapsed: events.append(
                (stage, status)))
        pipeline.result()
        started = [stage for stage, status in events if status == "started"]
        finished = [stage for stage, status in events if status == "finished"]
        assert started == list(STAGE_NAMES[:5])
        assert finished == list(STAGE_NAMES[:5])

    def test_result_runs_pipeline_once(self, small_pipeline):
        first = small_pipeline.result()
        second = small_pipeline.result()
        assert first is second

    def test_an_early_stage_skips_characterization(self, small_pipeline):
        analysis = small_pipeline.run_stage("analyze")
        assert analysis["invariance"].is_isl
        assert not small_pipeline.has_run("characterize")
        assert small_pipeline.explorer.synthesizer.runs == 0

    def test_analysis_facts_are_the_explorers(self, small_pipeline):
        """The analyze stage reads the explorer's once-per-kernel facts."""
        analysis = small_pipeline.run_stage("analyze")
        explorer = small_pipeline.explorer
        assert analysis["properties"] is explorer.properties
        assert analysis["invariance"] is explorer.invariance
        assert small_pipeline.result().properties is explorer.properties

    def test_codegen_over_a_given_result_runs_only_codegen(self):
        workload = Workload.from_algorithm("blur", **SMALL)
        result = Pipeline(workload).result()
        events = []
        pipeline = Pipeline(workload, observer=lambda stage, status, _:
                            events.append((stage, status)))
        files = pipeline.codegen(result)
        assert files == Pipeline(workload).run_stage("codegen")
        assert events == [("codegen", "started"), ("codegen", "finished")]
        assert pipeline.artifacts == {}
