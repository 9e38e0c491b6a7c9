"""JSON round-tripping of every result artifact (ISSUE 1 satellite).

Each test serializes with ``json.dumps`` (not just ``to_dict``) so tuple/int
key coercions that only bite after a real JSON pass are covered.
"""

import json

import pytest

from repro.api import FlowOptions, FlowResult, Session, Workload
from repro.dse.constraints import DseConstraints
from repro.dse.design_point import DesignPoint
from repro.dse.explorer import ConeCharacterization, ExplorationResult
from repro.estimation.throughput_model import ArchitecturePerformance
from repro.frontend.kernel_ir import StencilKernel
from repro.synth.fpga_device import VIRTEX6_XC6VLX760


SMALL = dict(iterations=4, window_sides=(1, 2, 3), max_depth=2,
             max_cones_per_depth=3, frame_width=128, frame_height=96)


@pytest.fixture(scope="module")
def small_result():
    return Session().run(Workload.from_algorithm("blur", **SMALL))


def through_json(payload):
    return json.loads(json.dumps(payload))


class TestDesignPointRoundTrip:
    def test_design_point(self, small_result):
        for point in small_result.pareto:
            restored = DesignPoint.from_dict(through_json(point.to_dict()))
            assert restored == point
            assert restored.label == point.label
            assert restored.seconds_per_frame == point.seconds_per_frame

    def test_performance(self, small_result):
        performance = small_result.pareto[0].performance
        restored = ArchitecturePerformance.from_dict(
            through_json(performance.to_dict()))
        assert restored == performance


class TestExplorationRoundTrip:
    def test_exploration_result(self, small_result):
        exploration = small_result.exploration
        restored = ExplorationResult.from_dict(
            through_json(exploration.to_dict()))
        assert restored == exploration

    def test_pareto_set_identical_and_shared_with_design_points(
            self, small_result):
        restored = ExplorationResult.from_dict(
            through_json(small_result.exploration.to_dict()))
        assert restored.pareto == small_result.exploration.pareto
        # Pareto entries are the same objects as their design_points entries,
        # exactly as in a freshly explored result.
        for point in restored.pareto:
            assert any(point is candidate
                       for candidate in restored.design_points)

    def test_characterizations_keyed_by_shape(self, small_result):
        restored = ExplorationResult.from_dict(
            through_json(small_result.exploration.to_dict()))
        assert set(restored.characterizations) == set(
            small_result.exploration.characterizations)
        for key, characterization in restored.characterizations.items():
            assert isinstance(characterization, ConeCharacterization)
            assert characterization == \
                small_result.exploration.characterizations[key]


class TestFlowResultRoundTrip:
    def test_flow_result_full_round_trip(self, small_result):
        restored = FlowResult.from_dict(through_json(small_result.to_dict()))
        assert restored == small_result
        assert restored.pareto == small_result.pareto

    def test_kernel_survives(self, small_result):
        restored = FlowResult.from_dict(through_json(small_result.to_dict()))
        assert restored.kernel == small_result.kernel
        assert (restored.kernel.fingerprint()
                == small_result.kernel.fingerprint())

    def test_options_survive(self, small_result):
        restored = FlowOptions.from_dict(
            through_json(small_result.options.to_dict()))
        assert restored == small_result.options
        assert restored.device == VIRTEX6_XC6VLX760


class TestRetiredStreamJobsKey:
    """The chunk fan-out knob is gone; its wire key stays, always null,
    because the benchmark pins request pools and digests over this codec."""

    def test_options_write_a_null_stream_jobs_key(self, small_result):
        payload = small_result.options.to_dict()
        assert "stream_jobs" in payload
        assert payload["stream_jobs"] is None

    @pytest.mark.parametrize("value", [2, 0, True, "x"])
    def test_options_refuse_a_non_null_stream_jobs(self, small_result,
                                                   value):
        payload = dict(small_result.options.to_dict(), stream_jobs=value)
        with pytest.raises(ValueError, match="stream_jobs"):
            FlowOptions.from_dict(through_json(payload))


class TestRetiredBackendKeys:
    """The backend-name knobs and the chunk size are gone; like
    ``stream_jobs``, their wire keys stay with the one value each is pinned
    to, and a missing key reads as that value."""

    PINNED = {"synthesizer": "analytic", "area_estimator": "register-model",
              "throughput_estimator": "analytic", "stream_jobs": None,
              "chunk_rows": None}

    def test_every_retired_key_is_written_with_its_pinned_value(
            self, small_result):
        payload = small_result.options.to_dict()
        assert {key: payload[key] for key in self.PINNED} == self.PINNED

    @pytest.mark.parametrize("key", sorted(PINNED))
    def test_a_missing_retired_key_is_accepted(self, small_result, key):
        payload = small_result.options.to_dict()
        del payload[key]
        assert (FlowOptions.from_dict(through_json(payload))
                == small_result.options)

    @pytest.mark.parametrize("value", ["vivado", 7, None])
    @pytest.mark.parametrize("key", ["synthesizer", "area_estimator",
                                     "throughput_estimator"])
    def test_another_backend_name_is_a_value_error_naming_the_key(
            self, small_result, key, value):
        payload = dict(small_result.options.to_dict(), **{key: value})
        with pytest.raises(ValueError, match=key):
            FlowOptions.from_dict(through_json(payload))


class TestSupportingTypes:
    def test_kernel_round_trip_all_algorithms(self):
        from repro.algorithms import ALGORITHMS
        for spec in ALGORITHMS.values():
            kernel = spec.kernel()
            restored = StencilKernel.from_dict(through_json(kernel.to_dict()))
            assert restored == kernel
            assert restored.fingerprint() == kernel.fingerprint()

    def test_fingerprint_stable_for_int_valued_kernels(self):
        """A kernel built with int params/literals must fingerprint the same
        after a JSON round-trip (from_dict coerces numbers to float)."""
        from repro.frontend.kernel_ir import (
            BinaryOp, BinOpKind, FieldDecl, FieldRead, FieldUpdate, Literal,
            ParamRef,
        )
        from repro.utils.geometry import Offset

        kernel = StencilKernel(
            name="intish",
            fields=[FieldDecl("f")],
            updates=[FieldUpdate("f", 0, BinaryOp(
                BinOpKind.MUL, ParamRef("a"),
                BinaryOp(BinOpKind.ADD, Literal(4),
                         FieldRead("f", Offset(0, 0)))))],
            params={"a": 1},
        )
        restored = StencilKernel.from_dict(through_json(kernel.to_dict()))
        assert restored == kernel
        assert restored.fingerprint() == kernel.fingerprint()

    def test_constraints_round_trip(self):
        constraints = DseConstraints(min_frames_per_second=30.0,
                                     max_area_luts=5e5, device_only=True)
        assert DseConstraints.from_dict(
            through_json(constraints.to_dict())) == constraints

    def test_constrained_result_round_trips(self):
        workload = Workload.from_algorithm(
            "blur", constraints=DseConstraints(device_only=True), **SMALL)
        result = Session().run(workload)
        restored = FlowResult.from_dict(through_json(result.to_dict()))
        assert restored == result
        assert restored.options.constraints == workload.constraints
