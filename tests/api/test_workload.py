"""Unit tests for the declarative Workload spec."""

import pytest

from repro.api import Workload
from repro.dse.constraints import DseConstraints
from repro.ir.operators import DataFormat
from repro.synth.fpga_device import VIRTEX2P_XC2VP30


class TestConstruction:
    def test_from_algorithm_resolves_kernel_and_iterations(self):
        workload = Workload.from_algorithm("blur")
        assert workload.name == "blur"
        assert workload.iterations == 10  # the registry default
        assert workload.resolve_kernel().name == "blur"

    def test_from_c_source(self):
        from repro.algorithms.gaussian import IGF_C_SOURCE
        workload = Workload.from_c(IGF_C_SOURCE)
        assert workload.name == "blur"
        assert workload.iterations == 10  # generic default

    def test_from_kernel(self, igf_kernel):
        workload = Workload.from_kernel(igf_kernel, iterations=4)
        assert workload.iterations == 4
        assert workload.resolve_kernel() is igf_kernel

    def test_needs_exactly_one_source(self, igf_kernel):
        with pytest.raises(ValueError, match="exactly one"):
            Workload(algorithm="blur", kernel=igf_kernel)
        with pytest.raises(ValueError, match="exactly one"):
            Workload()

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(KeyError):
            Workload.from_algorithm("definitely-not-registered")

    def test_window_sides_normalized(self):
        workload = Workload.from_algorithm("blur", window_sides=[3, 1, 3, 2])
        assert workload.window_sides == (1, 2, 3)

    @pytest.mark.parametrize("knob", ["chunk_rows"])
    @pytest.mark.parametrize("bad", [True, 2.5, "2", 0, -1])
    def test_bad_stream_knobs_rejected_at_construction(self, knob, bad):
        with pytest.raises(ValueError, match=knob):
            Workload.from_algorithm("blur", **{knob: bad})

    @pytest.mark.parametrize("build, named", [
        (lambda: Workload.from_algorithm(
            "blur", onchip_port_elements_per_cycle=0),
         "onchip_port_elements_per_cycle"),
        (lambda: Workload.from_algorithm(
            "blur", onchip_port_elements_per_cycle=-4),
         "onchip_port_elements_per_cycle"),
        (lambda: Workload.from_algorithm("blur", window_sides="abc"),
         "window side"),
        (lambda: Workload.from_algorithm("blur", window_sides=()),
         "window_sides"),
        (lambda: Workload.from_algorithm("blur", max_depth=0), "max_depth"),
        (lambda: Workload.from_algorithm("blur", max_depth=True),
         "max_depth"),
        (lambda: Workload.from_algorithm("blur", max_cones_per_depth=0),
         "max_cones_per_depth"),
        (lambda: Workload.from_algorithm("blur", max_cones_per_depth=-2),
         "max_cones_per_depth"),
        (lambda: Workload.from_algorithm("blur", iterations=0),
         "iterations"),
        (lambda: Workload.from_algorithm("blur", iterations=-3),
         "iterations"),
        (lambda: DseConstraints(min_frames_per_second="x"),
         "min_frames_per_second"),
        (lambda: DseConstraints(min_frames_per_second=float("nan")),
         "min_frames_per_second"),
        (lambda: DseConstraints(max_area_luts=True), "max_area_luts"),
        (lambda: DseConstraints(device_only="yes"), "device_only"),
        (lambda: Workload.from_algorithm("blur", frame_width=100.5),
         "frame_width"),
        (lambda: Workload.from_algorithm("blur", frame_width=True),
         "frame_width"),
        (lambda: Workload.from_algorithm("blur", frame_height=64.5),
         "frame_height"),
        (lambda: Workload.from_algorithm(
            "blur", calibration_windows_per_depth=1),
         "calibration_windows_per_depth"),
        (lambda: Workload.from_algorithm(
            "blur", calibration_windows_per_depth=0),
         "calibration_windows_per_depth"),
        (lambda: Workload.from_algorithm(
            "blur", calibration_windows_per_depth=2.5),
         "calibration_windows_per_depth"),
        (lambda: Workload.from_algorithm(
            "blur", calibration_windows_per_depth="2"),
         "calibration_windows_per_depth"),
        (lambda: Workload.from_algorithm("blur", synthesize_all="yes"),
         "synthesize_all"),
        (lambda: Workload.from_algorithm("blur", synthesize_all=1),
         "synthesize_all"),
        (lambda: Workload.from_algorithm("blur", stream="yes"), "stream"),
        (lambda: Workload.from_algorithm("blur", stream=1), "stream"),
    ], ids=["port-zero", "port-negative", "window-sides-string",
            "window-sides-empty", "max-depth-zero", "max-depth-bool",
            "cones-zero", "cones-negative", "iterations-zero",
            "iterations-negative", "min-fps-string", "min-fps-nan",
            "max-area-bool", "device-only-string", "frame-width-float",
            "frame-width-bool", "frame-height-float", "calibration-one",
            "calibration-zero", "calibration-float", "calibration-string",
            "synthesize-all-string", "synthesize-all-int", "stream-string",
            "stream-int"])
    def test_bad_knobs_rejected_at_construction(self, build, named):
        # each one used to fail mid-run, or to return an empty or
        # meaningless front without an error
        with pytest.raises(ValueError, match=named):
            build()

    @pytest.mark.parametrize("knob", ["chunk_rows"])
    def test_stream_knobs_accept_none_and_positive_ints(self, knob):
        assert getattr(Workload.from_algorithm("blur", **{knob: 3}),
                       knob) == 3
        assert getattr(Workload.from_algorithm("blur", **{knob: None}),
                       knob) is None


class TestHashingAndEquality:
    def test_hashable_and_equal_across_instances(self):
        a = Workload.from_algorithm("blur", frame_width=640, frame_height=480)
        b = Workload.from_algorithm("blur", frame_width=640, frame_height=480)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_structurally_identical_kernels_share_fingerprint(self, igf_kernel):
        from_registry = Workload.from_algorithm("blur")
        from_object = Workload.from_kernel(igf_kernel)
        assert (from_registry.kernel_fingerprint
                == from_object.kernel_fingerprint)

    def test_params_normalized_regardless_of_input_shape(self, igf_kernel):
        """An unsorted/int-valued params tuple must match the dict form."""
        as_tuple = Workload.from_kernel(igf_kernel,
                                        params=(("b", 2), ("a", 1)))
        as_dict = Workload.from_kernel(igf_kernel,
                                       params={"a": 1.0, "b": 2.0})
        assert as_tuple == as_dict
        assert as_tuple.kernel_fingerprint == as_dict.kernel_fingerprint
        assert (as_tuple.characterization_key()
                == as_dict.characterization_key())

    def test_different_kernels_differ(self):
        blur = Workload.from_algorithm("blur")
        jacobi = Workload.from_algorithm("jacobi")
        assert blur != jacobi
        assert blur.kernel_fingerprint != jacobi.kernel_fingerprint

    def test_replace_recomputes_fingerprint(self):
        blur = Workload.from_algorithm("blur")
        other = blur.replace(algorithm="jacobi")
        assert other.name == "jacobi"
        assert other.kernel_fingerprint != blur.kernel_fingerprint

    def test_replace_can_switch_kernel_source(self, igf_kernel):
        from repro.algorithms.jacobi import JACOBI_C_SOURCE
        from_registry = Workload.from_algorithm("blur")
        from_c = from_registry.replace(c_source=JACOBI_C_SOURCE)
        assert from_c.algorithm is None and from_c.name == "jacobi"
        from_obj = from_c.replace(kernel=igf_kernel)
        assert from_obj.c_source is None and from_obj.name == "blur"

    def test_replace_algorithm_resets_iterations_to_new_default(self):
        blur = Workload.from_algorithm("blur")          # resolves to 10
        jacobi = blur.replace(algorithm="jacobi")
        assert jacobi.iterations == 16                  # jacobi's default
        pinned = blur.replace(algorithm="jacobi", iterations=7)
        assert pinned.iterations == 7


class TestCharacterizationKey:
    def test_frame_and_constraints_do_not_change_the_key(self):
        a = Workload.from_algorithm("blur", frame_width=640, frame_height=480)
        b = Workload.from_algorithm(
            "blur", frame_width=1024, frame_height=768,
            constraints=DseConstraints(device_only=True))
        assert a.characterization_key() == b.characterization_key()

    def test_same_named_device_variants_do_not_alias(self):
        """A what-if variant of a device (same part name, different clock)
        must get its own characterization-cache entry."""
        import dataclasses
        from repro.synth.fpga_device import VIRTEX6_XC6VLX760
        faster = dataclasses.replace(
            VIRTEX6_XC6VLX760,
            typical_clock_hz=2 * VIRTEX6_XC6VLX760.typical_clock_hz)
        stock = Workload.from_algorithm("blur")
        what_if = stock.replace(device=faster)
        assert stock.characterization_key() != what_if.characterization_key()

    def test_device_and_format_change_the_key(self):
        base = Workload.from_algorithm("blur")
        other_device = Workload.from_algorithm("blur",
                                               device=VIRTEX2P_XC2VP30)
        other_format = Workload.from_algorithm(
            "blur", data_format=DataFormat.FIXED32)
        assert base.characterization_key() != other_device.characterization_key()
        assert base.characterization_key() != other_format.characterization_key()


class TestOptionsBridge:
    def test_workload_serialization_round_trip(self, igf_kernel):
        workload = Workload.from_kernel(
            igf_kernel, iterations=4, window_sides=(1, 2),
            constraints=DseConstraints(max_area_luts=1e5))
        restored = Workload.from_dict(workload.to_dict())
        assert restored == workload
        assert restored.characterization_key() == workload.characterization_key()
