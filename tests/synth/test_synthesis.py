"""Unit tests for technology mapping, logic reuse and the synthesis simulator.

``TechnologyMapper`` is the oracle's mapper (``dfg_synthesis_oracle``): the
synthesizer maps the cone DAG itself, and the oracle tests hold it to that
mapper report for report.
"""

import pytest

from dfg_synthesis_oracle import TechnologyMapper

from repro.ir.dfg import build_dfg_from_cone
from repro.ir.operators import DataFormat, default_library
from repro.ir.scheduling import pipeline_schedule
from repro.symbolic.cone_expression import ConeExpressionBuilder
from repro.synth.fpga_device import VIRTEX6_XC6VLX760, VIRTEX2P_XC2VP30
from repro.synth.logic_reuse import LogicReuseModel, _deterministic_ripple
from repro.synth.synthesizer import Synthesizer
from repro.synth.timing import TimingModel

SHAPES = [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2)]


@pytest.fixture(scope="module")
def igf_cones(igf_kernel):
    builder = ConeExpressionBuilder(igf_kernel)
    return {shape: builder.build(*shape) for shape in SHAPES}


@pytest.fixture(scope="module")
def igf_cone_graphs(igf_cones):
    return {shape: build_dfg_from_cone(cone)
            for shape, cone in igf_cones.items()}


class TestTechnologyMapper:
    def test_mapping_accounts_every_operation(self, igf_cone_graphs):
        mapper = TechnologyMapper(default_library(DataFormat.FIXED16))
        graph = igf_cone_graphs[(2, 2)]
        mapped = mapper.map(graph)
        assert mapped.operation_count == graph.operation_count()
        assert mapped.register_count == graph.register_count
        assert mapped.operation_resources.luts > 0
        assert mapped.total.luts > mapped.operation_resources.luts

    def test_pipeline_registers_add_area(self, igf_cone_graphs):
        mapper = TechnologyMapper(default_library(DataFormat.FIXED16))
        graph = igf_cone_graphs[(2, 2)]
        without = mapper.map(graph, pipeline_register_count=0)
        with_regs = mapper.map(graph, pipeline_register_count=100)
        assert with_regs.total.luts > without.total.luts
        assert with_regs.register_count == without.register_count + 100

    def test_bigger_cone_maps_to_more_area(self, igf_cone_graphs):
        mapper = TechnologyMapper(default_library(DataFormat.FIXED16))
        small = mapper.map(igf_cone_graphs[(1, 1)])
        large = mapper.map(igf_cone_graphs[(3, 2)])
        assert large.total.luts > 10 * small.total.luts


class TestLogicReuse:
    def test_ripple_is_deterministic_and_bounded(self):
        a = _deterministic_ripple("design_a", 0.03)
        assert a == _deterministic_ripple("design_a", 0.03)
        assert 0.97 <= a <= 1.03
        assert _deterministic_ripple("design_b", 0.03) != a

    def test_sharing_factor_saturates(self):
        model = LogicReuseModel()
        assert model.sharing_factor(0) == 0.0
        small = model.sharing_factor(5_000)
        large = model.sharing_factor(500_000)
        assert 0 < small < large <= model.max_logic_sharing

    def test_optimize_reduces_area(self, igf_cone_graphs):
        mapper = TechnologyMapper(default_library(DataFormat.FIXED16))
        mapped = mapper.map(igf_cone_graphs[(3, 2)])
        optimized = LogicReuseModel().optimize(mapped)
        assert optimized.luts < mapped.total.luts
        assert optimized.dsps == mapped.total.dsps


class TestSynthesizer:
    def test_report_fields(self, igf_cones):
        synthesizer = Synthesizer(VIRTEX6_XC6VLX760,
                                  default_library(DataFormat.FIXED16))
        report = synthesizer.synthesize(igf_cones[(2, 2)])
        assert report.area.luts > 0
        assert report.area.luts < report.raw_area.luts
        assert report.register_count > 0
        assert report.timing.latency_cycles >= 1
        assert report.timing.achieved_frequency_hz <= VIRTEX6_XC6VLX760.typical_clock_hz
        assert report.estimated_tool_runtime_s > 0
        assert report.fits

    def test_synthesis_is_deterministic(self, igf_cones):
        synthesizer = Synthesizer(VIRTEX6_XC6VLX760,
                                  default_library(DataFormat.FIXED16))
        first = synthesizer.synthesize(igf_cones[(3, 2)])
        second = synthesizer.synthesize(igf_cones[(3, 2)])
        assert first.area.luts == second.area.luts

    def test_run_counter_and_runtime_accumulate(self, igf_cones):
        synthesizer = Synthesizer(VIRTEX6_XC6VLX760,
                                  default_library(DataFormat.FIXED16))
        synthesizer.synthesize(igf_cones[(1, 1)])
        synthesizer.synthesize(igf_cones[(2, 1)])
        assert synthesizer.runs == 2
        assert synthesizer.total_tool_runtime_s > 0

    def test_area_grows_with_register_count(self, igf_cones):
        synthesizer = Synthesizer(VIRTEX6_XC6VLX760,
                                  default_library(DataFormat.FIXED16))
        reports = [synthesizer.synthesize(igf_cones[key])
                   for key in [(1, 1), (2, 1), (3, 1)]]
        areas = [r.area.luts for r in reports]
        registers = [r.register_count for r in reports]
        assert areas == sorted(areas)
        assert registers == sorted(registers)

    def test_max_parallel_instances(self, igf_cones):
        synthesizer = Synthesizer(VIRTEX6_XC6VLX760,
                                  default_library(DataFormat.FIXED16))
        small = synthesizer.synthesize(igf_cones[(1, 1)])
        large = synthesizer.synthesize(igf_cones[(3, 2)])
        assert synthesizer.max_parallel_instances(small) > \
            synthesizer.max_parallel_instances(large)

    def test_small_device_fits_fewer_cones(self, igf_cones):
        big_dev = Synthesizer(VIRTEX6_XC6VLX760, default_library(DataFormat.FIXED16))
        small_dev = Synthesizer(VIRTEX2P_XC2VP30, default_library(DataFormat.FIXED16))
        cone = igf_cones[(3, 2)]
        assert (small_dev.max_parallel_instances(small_dev.synthesize(cone))
                < big_dev.max_parallel_instances(big_dev.synthesize(cone)))


class TestTimingModel:
    def test_latency_seconds_consistent(self, igf_cone_graphs):
        model = TimingModel(VIRTEX6_XC6VLX760)
        report = model.analyze(pipeline_schedule(
            igf_cone_graphs[(2, 2)], model.target_period_ns,
            default_library(DataFormat.FIXED16)))
        assert report.latency_seconds == pytest.approx(
            report.latency_cycles / report.achieved_frequency_hz)
        assert report.critical_path_ns > 0
        assert report.initiation_interval == 1

    def test_target_period_matches_device_clock(self):
        model = TimingModel(VIRTEX6_XC6VLX760)
        assert model.target_period_ns == pytest.approx(
            1e9 / VIRTEX6_XC6VLX760.typical_clock_hz)

