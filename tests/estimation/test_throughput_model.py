"""Unit tests for the architecture throughput model."""

import numpy as np
import pytest

from repro.architecture.template import ConeArchitecture
from repro.estimation.throughput_model import ConePerformance, ThroughputModel
from repro.ir.operators import DataFormat
from repro.synth.fpga_device import VIRTEX2P_XC2VP30, VIRTEX6_XC6VLX760


def make_architecture(window=4, depths=(2, 2), counts=None, radius=1, components=1):
    counts = counts or {d: 1 for d in set(depths)}
    return ConeArchitecture(
        kernel_name="blur", window_side=window, level_depths=list(depths),
        cone_counts=counts, radius=radius, components=components)


def perf_for(architecture, latency=4):
    return {depth: ConePerformance(depth, architecture.window_side, latency)
            for depth in architecture.distinct_depths}


def own_count(architecture):
    """The architecture's primary (deepest) instance count, as a count
    axis of one."""
    return np.asarray([architecture.cone_counts[max(
        architecture.level_depths)]], dtype=np.int64)


def compute_cycles(model, architecture, performance):
    return float(model.tile_columns(architecture, performance,
                                    own_count(architecture))[
                                        "compute_cycles_per_tile"][0])


def estimate(model, architecture, performance, frame_width, frame_height):
    """The architecture's figures: a one-count ``estimate_batch`` call, its
    per-count arrays read at their one element."""
    columns = model.estimate_batch(architecture, performance, frame_width,
                                   frame_height, own_count(architecture))
    return {name: value[0] if isinstance(value, np.ndarray) else value
            for name, value in columns.items()}


@pytest.fixture()
def model():
    return ThroughputModel(VIRTEX6_XC6VLX760, DataFormat.FIXED16)


class TestPerTileAccounting:
    def test_compute_cycles_positive_and_monotone_in_depth_levels(self, model):
        shallow = make_architecture(depths=(2,))
        deep = make_architecture(depths=(2, 2, 2))
        assert compute_cycles(model, deep, perf_for(deep)) > \
            compute_cycles(model, shallow, perf_for(shallow))

    def test_more_instances_reduce_compute_time(self, model):
        single = make_architecture(depths=(2, 2), counts={2: 1})
        quad = make_architecture(depths=(2, 2), counts={2: 4})
        assert compute_cycles(model, quad, perf_for(quad)) < \
            compute_cycles(model, single, perf_for(single))

    def test_missing_cone_performance_raises(self, model):
        architecture = make_architecture()
        with pytest.raises(KeyError):
            model.tile_columns(architecture, {}, own_count(architecture))
        with pytest.raises(KeyError):
            model.estimate_batch(architecture, {}, 1024, 768,
                                 own_count(architecture))

    def test_transfer_accounts_halo_and_components(self, model):
        scalar = make_architecture(components=1)
        vector = make_architecture(components=2)
        cycles_scalar, bytes_scalar = model.transfer_cycles_per_tile(scalar)
        cycles_vector, bytes_vector = model.transfer_cycles_per_tile(vector)
        assert bytes_vector > 1.9 * bytes_scalar
        assert cycles_vector > cycles_scalar

    def test_readonly_components_add_traffic(self):
        with_readonly = ThroughputModel(VIRTEX6_XC6VLX760, DataFormat.FIXED16,
                                        readonly_components=1)
        without = ThroughputModel(VIRTEX6_XC6VLX760, DataFormat.FIXED16)
        architecture = make_architecture()
        assert with_readonly.transfer_cycles_per_tile(architecture)[1] > \
            without.transfer_cycles_per_tile(architecture)[1]

    def test_tiles_per_frame_rounds_up(self, model):
        architecture = make_architecture(window=5)
        assert model.tiles_per_frame(architecture, 1024, 768) == 205 * 154


class TestFrameLevel:
    def test_estimate_consistency(self, model):
        architecture = make_architecture()
        result = estimate(model, architecture, perf_for(architecture), 1024,
                          768)
        assert result["seconds_per_frame"] > 0
        assert result["frames_per_second"] == pytest.approx(
            1.0 / result["seconds_per_frame"])
        assert result["cycles_per_tile"] >= max(
            result["compute_cycles_per_tile"],
            result["transfer_cycles_per_tile"])
        assert result["tiles_per_frame"] == model.tiles_per_frame(
            architecture, 1024, 768)

    def test_larger_frames_take_longer(self, model):
        architecture = make_architecture()
        performance = perf_for(architecture)
        small = estimate(model, architecture, performance, 512, 512)
        large = estimate(model, architecture, performance, 1920, 1080)
        assert large["seconds_per_frame"] > 3 * small["seconds_per_frame"]

    def test_execution_interval_bounded_by_feed(self, model):
        architecture = make_architecture(window=8, depths=(5,))
        perf = ConePerformance(5, 8, latency_cycles=4, initiation_interval=1)
        interval = model.execution_interval_cycles(architecture, 5, perf)
        geometry = architecture.geometry(5)
        assert interval >= geometry.input_elements / model.onchip_port_elements_per_cycle

    def test_weaker_device_is_slower(self):
        fast = ThroughputModel(VIRTEX6_XC6VLX760, DataFormat.FIXED16)
        slow = ThroughputModel(VIRTEX2P_XC2VP30, DataFormat.FIXED16)
        architecture = make_architecture()
        performance = perf_for(architecture)
        assert estimate(slow, architecture, performance, 1024, 768)[
            "frames_per_second"] < estimate(
                fast, architecture, performance, 1024, 768)[
                    "frames_per_second"]

    def test_wider_data_format_increases_traffic(self):
        narrow = ThroughputModel(VIRTEX6_XC6VLX760, DataFormat.FIXED16)
        wide = ThroughputModel(VIRTEX6_XC6VLX760, DataFormat.FIXED32)
        architecture = make_architecture()
        assert wide.transfer_cycles_per_tile(architecture)[1] == \
            2 * narrow.transfer_cycles_per_tile(architecture)[1]


@pytest.mark.parametrize("port", [0, -4, float("nan")])
def test_a_nonpositive_port_width_is_rejected(port):
    with pytest.raises(ValueError, match="onchip_port_elements_per_cycle"):
        ThroughputModel(VIRTEX6_XC6VLX760, DataFormat.FIXED16,
                        onchip_port_elements_per_cycle=port)
