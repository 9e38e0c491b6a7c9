"""Unit tests for the design-space explorer (using a reduced IGF space)."""

import pytest

from repro.dse.constraints import DseConstraints
from repro.dse.explorer import DesignSpaceExplorer
from repro.dse.pareto import is_dominated
from repro.ir.operators import DataFormat


class TestCharacterization:
    def test_characterizations_cover_the_space(self, small_igf_exploration):
        result = small_igf_exploration
        windows = {w for w, _ in result.characterizations}
        depths = {d for _, d in result.characterizations}
        assert windows == {1, 2, 3, 4}
        assert depths == {1, 2, 3}

    def test_register_counts_increase_with_window(self, small_igf_exploration):
        result = small_igf_exploration
        for depth in (1, 2, 3):
            registers = [result.characterization(w, depth).register_count
                         for w in (1, 2, 3, 4)]
            assert registers == sorted(registers)
            assert registers[0] < registers[-1]

    def test_every_cone_is_synthesized_when_requested(self, small_igf_exploration):
        assert all(c.synthesized
                   for c in small_igf_exploration.characterizations.values())

    def test_area_validation_in_single_digit_percent(self, small_igf_exploration):
        for validation in small_igf_exploration.area_validations.values():
            assert validation.max_error_percent < 10.0


class TestExploration:
    def test_design_points_and_pareto_nonempty(self, small_igf_exploration):
        result = small_igf_exploration
        assert len(result.design_points) > 20
        assert 0 < len(result.pareto) <= len(result.design_points)

    def test_pareto_points_are_mutually_non_dominated(self, small_igf_exploration):
        front = small_igf_exploration.pareto
        for a in front:
            assert not any(is_dominated(a, b) for b in front if b is not a)

    def test_total_area_is_sum_of_cone_areas(self, small_igf_exploration):
        result = small_igf_exploration
        for point in result.design_points[:50]:
            expected = sum(
                point.architecture.cone_counts[d] * point.cone_area_by_depth[d]
                for d in point.architecture.distinct_depths)
            assert point.area_luts == pytest.approx(expected)

    def test_iteration_count_respected(self, small_igf_exploration):
        assert all(p.architecture.total_iterations == 6
                   for p in small_igf_exploration.design_points)

    def test_best_fitting_point_fits(self, small_igf_exploration):
        best = small_igf_exploration.best_fitting_point()
        assert best is not None and best.fits_device


class TestEstimationOnlyMode:
    def test_calibration_only_uses_few_syntheses(self, igf_kernel):
        explorer = DesignSpaceExplorer(
            igf_kernel, data_format=DataFormat.FIXED16,
            window_sides=(1, 2, 3, 4), max_depth=2, max_cones_per_depth=2,
            synthesize_all=False)
        result = explorer.explore(total_iterations=4, frame_width=64, frame_height=64)
        # two calibration syntheses per depth family
        assert result.synthesis_runs == 4
        assert result.synthesis_runs_avoided == 4
        assert result.tool_runtime_avoided_s > 0
        estimated = [c for c in result.characterizations.values() if not c.synthesized]
        assert estimated and all(c.estimated_area_luts > 0 for c in estimated)

    def test_too_few_calibration_windows_rejected(self, igf_kernel):
        """The explorer must refuse (not silently raise) a calibration
        budget Equation 1 cannot anchor."""
        for bad in (0, 1, -3):
            with pytest.raises(ValueError,
                               match="calibration_windows_per_depth"):
                DesignSpaceExplorer(igf_kernel,
                                    calibration_windows_per_depth=bad)

    def test_calibration_windows_setting_is_not_mutated(self, igf_kernel):
        explorer = DesignSpaceExplorer(igf_kernel,
                                       calibration_windows_per_depth=3)
        assert explorer.calibration_windows_per_depth == 3

    def test_constraints_filter_points(self, igf_kernel):
        explorer = DesignSpaceExplorer(
            igf_kernel, data_format=DataFormat.FIXED16,
            window_sides=(2, 3), max_depth=2, max_cones_per_depth=2)
        unconstrained = explorer.explore(4, 128, 96)
        explorer2 = DesignSpaceExplorer(
            igf_kernel, data_format=DataFormat.FIXED16,
            window_sides=(2, 3), max_depth=2, max_cones_per_depth=2)
        constrained = explorer2.explore(
            4, 128, 96, constraints=DseConstraints(min_frames_per_second=1.0))
        assert len(constrained.design_points) <= len(unconstrained.design_points)
        assert all(p.frames_per_second >= 1.0 for p in constrained.design_points)


def tiny_explorer(kernel, **overrides):
    keywords = dict(data_format=DataFormat.FIXED16, window_sides=(1, 2),
                    max_depth=2, max_cones_per_depth=3)
    keywords.update(overrides)
    return DesignSpaceExplorer(kernel, **keywords)


class TestBadKnobs:
    """A knob that leaves nothing to explore, or nothing to divide by, is a
    ``ValueError`` naming it, never a crash or an empty or negative
    answer."""

    @pytest.mark.parametrize("knob,bad", [
        ("onchip_port_elements_per_cycle", 0),
        ("onchip_port_elements_per_cycle", -4),
        ("max_cones_per_depth", 0),
        ("max_cones_per_depth", -1),
        ("max_depth", 0),
        ("max_depth", -2),
        ("window_sides", ()),
        ("window_sides", (0, 2)),
    ])
    def test_the_explorer_rejects_a_bad_knob(self, igf_kernel, knob, bad):
        name = "window side" if knob == "window_sides" else knob
        with pytest.raises(ValueError, match=name):
            tiny_explorer(igf_kernel, **{knob: bad})

    @pytest.mark.parametrize("port", [0, -4])
    def test_an_exploration_rejects_a_bad_port_width(self, igf_kernel, port):
        explorer = tiny_explorer(igf_kernel)
        with pytest.raises(ValueError,
                           match="onchip_port_elements_per_cycle"):
            explorer.explore(4, 64, 48, onchip_port_elements_per_cycle=port)

    @pytest.mark.parametrize("width,height", [(0, 96), (-128, 96), (128, 0),
                                              (128, -96)])
    @pytest.mark.parametrize("stream", [False, True])
    def test_an_exploration_rejects_a_bad_frame_size(self, igf_kernel, width,
                                                     height, stream):
        explorer = tiny_explorer(igf_kernel)
        with pytest.raises(ValueError, match="frame_(width|height)"):
            explorer.explore(4, width, height, stream=stream)

    def test_an_unlimited_depth_is_still_accepted(self, igf_kernel):
        result = tiny_explorer(igf_kernel, max_depth=None).explore(4, 64, 48)
        assert result.pareto
