"""Integration tests: the full pipeline from C source to VHDL and simulation."""

import os
import sys

import numpy as np
import pytest

# the cycle-level oracle lives beside the simulation tests
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "simulation"))
from cycle_oracle import TileCascadeCycleSimulator  # noqa: E402

from repro.algorithms import get_algorithm
from repro.api import Session, Workload
from repro.codegen.vhdl_writer import VhdlWriter
from repro.dse.explorer import DesignSpaceExplorer
from repro.estimation.throughput_model import ConePerformance, ThroughputModel
from repro.frontend.extractor import extract_kernel_from_c
from repro.ir.dfg import build_dfg_from_cone
from repro.ir.operators import DataFormat
from repro.simulation.cone_simulator import FunctionalConeSimulator
from repro.simulation.frame import FrameSet
from repro.simulation.golden import GoldenExecutor
from repro.symbolic.cone_expression import ConeExpressionBuilder
from repro.synth.fpga_device import VIRTEX6_XC6VLX760
from repro.synth.synthesizer import Synthesizer


class TestCSourceToVhdl:
    """C in, synthesizable VHDL out — the paper's end-to-end promise."""

    def test_igf_c_to_vhdl(self):
        spec = get_algorithm("blur")
        kernel = extract_kernel_from_c(spec.c_source)
        cone = ConeExpressionBuilder(kernel).build(2, 2)
        graph = build_dfg_from_cone(cone)
        module = VhdlWriter(DataFormat.FIXED16).generate(graph)
        assert "entity" in module.code
        report = Synthesizer(VIRTEX6_XC6VLX760).synthesize(cone)
        assert report.area.luts > 0

    def test_flow_from_c_source_produces_pareto_set(self):
        spec = get_algorithm("blur")
        workload = Workload.from_c(spec.c_source,
                                   data_format=DataFormat.FIXED16,
                                   frame_width=256, frame_height=192,
                                   iterations=4, window_sides=(2, 3, 4),
                                   max_depth=2, max_cones_per_depth=4)
        result = Session().run(workload)
        assert len(result.pareto) >= 3
        areas = [p.area_luts for p in result.pareto]
        times = [p.seconds_per_frame for p in result.pareto]
        assert areas == sorted(areas)
        assert times == sorted(times, reverse=True)


class TestArchitectureCorrectness:
    """The architecture chosen by the DSE computes the same frames as software."""

    def test_selected_architecture_matches_golden(self, igf_kernel):
        explorer = DesignSpaceExplorer(igf_kernel, data_format=DataFormat.FIXED16,
                                       window_sides=(3, 4), max_depth=3,
                                       max_cones_per_depth=2)
        exploration = explorer.explore(3, 32, 24)
        point = exploration.best_fitting_point()
        window = point.architecture.window_side
        iterations = point.architecture.total_iterations

        frames = FrameSet.for_kernel(igf_kernel, 24, 32, seed=31)
        golden = GoldenExecutor(igf_kernel).run(frames, iterations)
        simulated = FunctionalConeSimulator(igf_kernel).run(
            frames, iterations, window, mode="expression")
        margin = iterations + 1
        np.testing.assert_allclose(
            simulated["f"].data[:, margin:-margin, margin:-margin],
            golden["f"].data[:, margin:-margin, margin:-margin],
            rtol=1e-9)

    def test_cycle_simulator_validates_dse_estimates(self, igf_kernel):
        """The analytic fps used by the DSE agrees with the cycle simulator."""
        explorer = DesignSpaceExplorer(igf_kernel, data_format=DataFormat.FIXED16,
                                       window_sides=(4,), max_depth=2,
                                       max_cones_per_depth=4,
                                       synthesize_all=True)
        exploration = explorer.explore(4, 256, 192)
        point = exploration.best_fitting_point()
        performance = {
            depth: ConePerformance(
                depth, point.architecture.window_side,
                exploration.characterization(point.architecture.window_side,
                                             depth).latency_cycles)
            for depth in point.architecture.distinct_depths}
        simulator = TileCascadeCycleSimulator(
            VIRTEX6_XC6VLX760, bytes_per_element=DataFormat.FIXED16.bytes)
        simulated = simulator.simulate_frame(point.architecture, performance, 256, 192)
        assert simulated.frames_per_second == pytest.approx(
            point.frames_per_second, rel=0.05)


@pytest.mark.slow
class TestPaperHeadlineClaims:
    """Coarse end-to-end checks of the Section 4 claims (shape, not digits)."""

    def test_igf_reaches_real_time_on_virtex6(self, igf_kernel):
        explorer = DesignSpaceExplorer(igf_kernel, data_format=DataFormat.FIXED16,
                                       window_sides=(7, 8, 9), max_depth=2,
                                       max_cones_per_depth=10)
        exploration = explorer.explore(10, 1024, 768)
        best = exploration.best_fitting_point()
        assert best.frames_per_second > 30.0

    def test_chambolle_is_slower_than_igf_but_usable(self, chambolle_kernel):
        explorer = DesignSpaceExplorer(chambolle_kernel,
                                       data_format=DataFormat.FIXED16,
                                       window_sides=(7, 8), max_depth=1,
                                       max_cones_per_depth=6)
        exploration = explorer.explore(11, 1024, 768)
        best = exploration.best_fitting_point()
        assert 5.0 < best.frames_per_second < 60.0
