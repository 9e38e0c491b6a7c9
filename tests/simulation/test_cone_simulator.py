"""Unit tests for the functional cone simulator, and the throughput model
against the cycle-level oracle (``cycle_oracle``)."""

import numpy as np
import pytest

from cycle_oracle import TileCascadeCycleSimulator

from repro.architecture.template import ConeArchitecture
from repro.estimation.throughput_model import ConePerformance, ThroughputModel
from repro.ir.operators import DataFormat
from repro.simulation.cone_simulator import FunctionalConeSimulator
from repro.simulation.frame import FrameSet
from repro.simulation.golden import GoldenExecutor
from repro.synth.fpga_device import VIRTEX6_XC6VLX760


def interior(array, margin):
    return array[..., margin:-margin, margin:-margin]


class TestFunctionalSimulator:
    @pytest.mark.parametrize("window,iterations", [(2, 1), (3, 2), (4, 3)])
    def test_expression_mode_matches_golden_interior(self, igf_kernel, window, iterations):
        frames = FrameSet.for_kernel(igf_kernel, 18, 18, seed=11)
        golden = GoldenExecutor(igf_kernel).run(frames, iterations)
        simulated = FunctionalConeSimulator(igf_kernel).run(
            frames, iterations, window, mode="expression")
        margin = iterations + 1
        np.testing.assert_allclose(
            interior(simulated["f"].data, margin),
            interior(golden["f"].data, margin), rtol=1e-9, atol=1e-12)

    def test_region_mode_matches_golden_interior(self, igf_kernel):
        frames = FrameSet.for_kernel(igf_kernel, 24, 20, seed=12)
        golden = GoldenExecutor(igf_kernel).run(frames, 4)
        simulated = FunctionalConeSimulator(igf_kernel).run(
            frames, 4, window_side=5, mode="region")
        margin = 5
        np.testing.assert_allclose(
            interior(simulated["f"].data, margin),
            interior(golden["f"].data, margin), rtol=1e-9, atol=1e-12)

    def test_chambolle_expression_mode_matches_golden(self, chambolle_kernel):
        frames = FrameSet.for_kernel(chambolle_kernel, 14, 14, seed=13)
        golden = GoldenExecutor(chambolle_kernel).run(frames, 2)
        simulated = FunctionalConeSimulator(chambolle_kernel).run(
            frames, 2, window_side=2, mode="expression")
        margin = 3
        np.testing.assert_allclose(
            interior(simulated["p"].data, margin),
            interior(golden["p"].data, margin), rtol=1e-9, atol=1e-12)

    def test_non_divisible_frame_sizes_are_handled(self, igf_kernel):
        frames = FrameSet.for_kernel(igf_kernel, 13, 11, seed=14)
        simulated = FunctionalConeSimulator(igf_kernel).run(
            frames, 2, window_side=4, mode="region")
        assert simulated["f"].data.shape == frames["f"].data.shape

    def test_invalid_mode_rejected(self, igf_kernel):
        frames = FrameSet.for_kernel(igf_kernel, 8, 8)
        with pytest.raises(ValueError):
            FunctionalConeSimulator(igf_kernel).run(frames, 1, 2, mode="magic")

    def test_cone_cache_reused(self, igf_kernel):
        simulator = FunctionalConeSimulator(igf_kernel)
        frames = FrameSet.for_kernel(igf_kernel, 8, 8)
        simulator.run(frames, 2, 2, mode="expression")
        first = dict(simulator._cone_cache)
        simulator.run(frames, 2, 2, mode="expression")
        assert simulator._cone_cache[(2, 2)] is first[(2, 2)]


class TestCycleSimulator:
    def make_architecture(self, window=4, depths=(2, 2), counts=None):
        counts = counts or {2: 2}
        return ConeArchitecture(kernel_name="blur", window_side=window,
                                level_depths=list(depths), cone_counts=counts,
                                radius=1)

    def cone_performance(self, architecture, latency=4):
        return {d: ConePerformance(d, architecture.window_side, latency)
                for d in architecture.distinct_depths}

    def test_cycle_simulation_matches_analytic_model(self):
        """The transaction-level simulator and the throughput model must agree."""
        architecture = self.make_architecture()
        performance = self.cone_performance(architecture)
        model = ThroughputModel(VIRTEX6_XC6VLX760, DataFormat.FIXED32)
        simulator = TileCascadeCycleSimulator(VIRTEX6_XC6VLX760, bytes_per_element=4)
        # one count: the architecture's own two primary instances
        analytic = model.estimate_batch(architecture, performance, 256, 192,
                                        np.asarray([2], dtype=np.int64))
        simulated = simulator.simulate_frame(architecture, performance, 256, 192)
        assert simulated.tiles == analytic["tiles_per_frame"]
        assert simulated.seconds_per_frame == pytest.approx(
            float(analytic["seconds_per_frame"][0]), rel=0.02)

    def test_offchip_traffic_matches_tile_geometry(self):
        architecture = self.make_architecture()
        simulator = TileCascadeCycleSimulator(VIRTEX6_XC6VLX760, bytes_per_element=4)
        result = simulator.simulate_frame(
            architecture, self.cone_performance(architecture), 64, 64)
        read, written = architecture.offchip_elements_per_tile()
        assert result.offchip_bytes == result.tiles * (read + written) * 4

    def test_onchip_footprint_fits_device(self):
        architecture = self.make_architecture(window=8)
        simulator = TileCascadeCycleSimulator(VIRTEX6_XC6VLX760)
        result = simulator.simulate_frame(
            architecture, self.cone_performance(architecture), 128, 128)
        assert result.onchip_peak_bytes < VIRTEX6_XC6VLX760.onchip_memory_bytes

    def test_more_instances_run_faster(self):
        single = self.make_architecture(counts={2: 1})
        quad = self.make_architecture(counts={2: 4})
        simulator = TileCascadeCycleSimulator(VIRTEX6_XC6VLX760)
        slow = simulator.simulate_frame(single, self.cone_performance(single), 128, 128)
        fast = simulator.simulate_frame(quad, self.cone_performance(quad), 128, 128)
        assert fast.frames_per_second > slow.frames_per_second
