"""Unit tests for the declarative Workload spec."""

import pytest

from repro.algorithms import get_algorithm, list_algorithms
from repro.api import FlowOptions, Workload
from repro.dse.constraints import DseConstraints
from repro.ir.operators import DataFormat
from repro.synth.fpga_device import VIRTEX2P_XC2VP30

#: The two constructors that check the flow's knobs: a workload reaches
#: the checks through one FlowOptions construction.
BUILDERS = (lambda **knobs: Workload.from_algorithm("blur", **knobs),
            FlowOptions)


def assert_both_reject(error, named, attempt):
    """``attempt(build)`` raises the same ``error``, matching ``named``,
    with a Workload and with FlowOptions as ``build``."""
    messages = set()
    for build in BUILDERS:
        with pytest.raises(error, match=named) as caught:
            attempt(build)
        messages.add(str(caught.value))
    assert len(messages) == 1


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

    def test_workloads_of_one_algorithm_share_one_kernel(self):
        first = Workload.from_algorithm("chamb")
        kernel = first.resolve_kernel()
        assert first.replace(frame_width=640).resolve_kernel() is kernel
        assert Workload.from_algorithm("chamb", max_depth=2).resolve_kernel() \
            is kernel
        assert Workload.from_algorithm("blur").resolve_kernel() is not kernel

    @pytest.mark.parametrize("name", list_algorithms())
    def test_a_memoized_registry_kernel_keys_like_a_fresh_build(self, name):
        memoized = Workload.from_algorithm(name)
        fresh = Workload.from_kernel(get_algorithm(name).build_kernel(),
                                     iterations=memoized.iterations)
        assert memoized.kernel_fingerprint == fresh.kernel_fingerprint
        assert memoized.characterization_key() == fresh.characterization_key()
        assert (memoized.resolve_kernel().to_dict()
                == fresh.resolve_kernel().to_dict())
        expected = fresh.to_dict()
        expected.update(algorithm=name, kernel=None)
        assert memoized.to_dict() == expected

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

    @pytest.mark.parametrize("knobs, named", [
        (lambda build: build(onchip_port_elements_per_cycle=0),
         "onchip_port_elements_per_cycle"),
        (lambda build: build(onchip_port_elements_per_cycle=-4),
         "onchip_port_elements_per_cycle"),
        (lambda build: build(window_sides="abc"), "window side"),
        (lambda build: build(window_sides=()), "window_sides"),
        (lambda build: build(max_depth=0), "max_depth"),
        (lambda build: build(max_depth=True), "max_depth"),
        (lambda build: build(max_cones_per_depth=0), "max_cones_per_depth"),
        (lambda build: build(max_cones_per_depth=-2), "max_cones_per_depth"),
        (lambda build: build(iterations=0), "iterations"),
        (lambda build: build(iterations=-3), "iterations"),
        (lambda build: DseConstraints(min_frames_per_second="x"),
         "min_frames_per_second"),
        (lambda build: DseConstraints(min_frames_per_second=float("nan")),
         "min_frames_per_second"),
        (lambda build: DseConstraints(max_area_luts=True), "max_area_luts"),
        (lambda build: DseConstraints(device_only="yes"), "device_only"),
        (lambda build: build(frame_width=100.5), "frame_width"),
        (lambda build: build(frame_width=True), "frame_width"),
        (lambda build: build(frame_height=64.5), "frame_height"),
        (lambda build: build(calibration_windows_per_depth=1),
         "calibration_windows_per_depth"),
        (lambda build: build(calibration_windows_per_depth=0),
         "calibration_windows_per_depth"),
        (lambda build: build(calibration_windows_per_depth=2.5),
         "calibration_windows_per_depth"),
        (lambda build: build(calibration_windows_per_depth="2"),
         "calibration_windows_per_depth"),
        (lambda build: build(synthesize_all="yes"), "synthesize_all"),
        (lambda build: build(synthesize_all=1), "synthesize_all"),
        (lambda build: build(stream="yes"), "stream"),
        (lambda build: build(stream=1), "stream"),
    ], ids=["port-zero", "port-negative", "window-sides-string",
            "window-sides-empty", "max-depth-zero", "max-depth-bool",
            "cones-zero", "cones-negative", "iterations-zero",
            "iterations-negative", "min-fps-string", "min-fps-nan",
            "max-area-bool", "device-only-string", "frame-width-float",
            "frame-width-bool", "frame-height-float", "calibration-one",
            "calibration-zero", "calibration-float", "calibration-string",
            "synthesize-all-string", "synthesize-all-int", "stream-string",
            "stream-int"])
    def test_bad_knobs_rejected_at_construction(self, knobs, named):
        # each one used to fail mid-run, or to return an empty or
        # meaningless front without an error
        assert_both_reject(ValueError, named, knobs)

    @pytest.mark.parametrize("value, member", [
        ("fixed16", DataFormat.FIXED16),
        ("fixed32", DataFormat.FIXED32),
        ("float32", DataFormat.FLOAT32),
        (DataFormat.FIXED32, DataFormat.FIXED32),
    ], ids=["fixed16", "fixed32", "float32", "member"])
    def test_data_format_values_resolve_to_the_member(self, value, member):
        workload = Workload.from_algorithm("blur", data_format=value)
        assert workload.data_format is member
        as_member = Workload.from_algorithm("blur", data_format=member)
        assert workload == as_member and hash(workload) == hash(as_member)
        assert workload.to_dict()["data_format"] == member.value

    @pytest.mark.parametrize("bad", ["bogus", "FIXED16", 16, None, 1.5,
                                     ["fixed16"]],
                             ids=["bogus", "upper-case", "int", "none",
                                  "float", "list"])
    def test_unknown_data_format_rejected_at_construction(self, bad):
        # each one used to build, then fail in to_dict(), run or validate
        assert_both_reject(ValueError, "data_format",
                           lambda build: build(data_format=bad))

    @pytest.mark.parametrize("bad", [{"min_frames_per_second": 30.0}, 5,
                                     "device_only", (30.0, None, False)],
                             ids=["dict", "int", "string", "tuple"])
    def test_constraints_of_another_type_rejected_at_construction(self, bad):
        # a dict used to build an unhashable workload (TypeError in
        # Session.run), anything else an AttributeError mid-run
        assert_both_reject(TypeError, "constraints",
                           lambda build: build(constraints=bad))

    @pytest.mark.parametrize("bad, error", [
        ("no-such-part", KeyError), (760, TypeError), (None, TypeError),
    ], ids=["unknown-part", "int", "none"])
    def test_unknown_device_rejected_at_construction(self, bad, error):
        assert_both_reject(error, "device",
                           lambda build: build(device=bad))

    def test_flow_options_resolve_their_knobs(self):
        options = FlowOptions(device="xc2vp30", data_format="fixed32",
                              window_sides=[3, 1, 3])
        assert options.device is VIRTEX2P_XC2VP30
        assert options.data_format is DataFormat.FIXED32
        assert options.window_sides == (1, 3)
        assert options.to_dict()["data_format"] == "fixed32"
        assert FlowOptions.from_dict(options.to_dict()) == options


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

    def test_a_payload_with_a_null_iteration_count_is_refused(self):
        payload = Workload.from_algorithm("blur").to_dict()
        payload["iterations"] = None
        with pytest.raises(ValueError,
                           match=r"iterations must be a positive integer "
                                 r"\(got None\)"):
            Workload.from_dict(payload)


class TestOneKnobCheck:
    @pytest.fixture()
    def checks(self, monkeypatch):
        """Counts every FlowOptions knob check."""
        calls = []
        original = FlowOptions.__post_init__

        def counting(options):
            calls.append(options)
            original(options)

        monkeypatch.setattr(FlowOptions, "__post_init__", counting)
        return calls

    def test_each_surface_checks_the_knobs_at_most_once(self, checks):
        workload = Workload.from_algorithm("blur", frame_width=320)
        assert len(checks) == 1
        workload.options()
        payload = workload.to_dict()
        assert len(checks) == 1
        restored = Workload.from_dict(payload)
        assert len(checks) == 2
        assert restored == workload
        assert restored.to_dict() == payload

    def test_options_is_the_instance_checked_at_construction(self):
        workload = Workload.from_algorithm("blur")
        assert workload.options() is workload.options()

    @pytest.mark.parametrize("name", list_algorithms())
    def test_options_carry_the_resolved_iteration_count(self, name):
        workload = Workload.from_algorithm(name)
        assert workload.iterations == get_algorithm(name).default_iterations
        assert workload.options().iterations == workload.iterations
