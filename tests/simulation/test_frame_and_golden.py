"""Unit tests for frames and the golden whole-frame executor (held to the
per-pixel ``golden_oracle`` on degenerate frames)."""

import numpy as np
import pytest

from golden_oracle import run_scalar

from repro.simulation.frame import Frame, FrameSet, make_test_frame
from repro.simulation.golden import GoldenExecutor


class TestFrame:
    def test_2d_data_promoted_to_single_component(self):
        frame = Frame("f", np.zeros((4, 5)))
        assert frame.shape == (1, 4, 5)
        assert frame.components == 1
        assert frame.height == 4 and frame.width == 5

    def test_invalid_rank_rejected(self):
        with pytest.raises(ValueError):
            Frame("f", np.zeros((2, 3, 4, 5)))

    def test_clamped_read(self):
        data = np.arange(12, dtype=float).reshape(3, 4)
        frame = Frame("f", data)
        assert frame.clamped_read(0, -5, -5) == data[0, 0]
        assert frame.clamped_read(0, 10, 10) == data[2, 3]
        assert frame.clamped_read(0, 1, 2) == data[1, 2]

    def test_padded_replicates_edges(self):
        frame = Frame("f", np.array([[1.0, 2.0], [3.0, 4.0]]))
        padded = frame.padded(1)
        assert padded.shape == (1, 4, 4)
        assert padded[0, 0, 0] == 1.0
        assert padded[0, 3, 3] == 4.0

    def test_copy_is_independent(self):
        frame = Frame("f", np.zeros((2, 2)))
        clone = frame.copy()
        clone.data[0, 0, 0] = 5.0
        assert frame.data[0, 0, 0] == 0.0

    # ------------------------------------------------------------------ #
    # edge-semantics regression: clamped_read and padded() must expose the
    # same boundary contract at EVERY radius, including radius >= the frame
    # dimensions (deep stencils over tiny frames) — the per-pixel oracle
    # paths read via clamped_read while the vectorized paths read padded
    # views, so any divergence here would silently break bit-identity.

    @pytest.mark.parametrize("height,width", [(1, 1), (1, 4), (3, 1), (2, 2)])
    @pytest.mark.parametrize("radius", [1, 2, 3, 5])
    def test_padded_agrees_with_clamped_read_everywhere(self, height, width,
                                                        radius):
        rng = np.random.default_rng(height * 10 + width)
        frame = Frame("f", rng.random((height, width)))
        padded = frame.padded(radius)
        assert padded.shape == (1, height + 2 * radius, width + 2 * radius)
        for y in range(-radius, height + radius):
            for x in range(-radius, width + radius):
                assert padded[0, radius + y, radius + x] \
                    == frame.clamped_read(0, y, x), (height, width, radius,
                                                     y, x)

    def test_clamp_at_border_on_1x1_frame(self):
        frame = Frame("f", np.array([[7.5]]))
        for y in (-9, 0, 9):
            for x in (-9, 0, 9):
                assert frame.clamped_read(0, y, x) == 7.5
        padded = frame.padded(4)
        assert np.all(padded == 7.5)

    def test_padded_radius_exceeding_dimensions_replicates_edge(self):
        frame = Frame("f", np.array([[1.0, 2.0, 3.0]]))  # 1x3 frame
        padded = frame.padded(5)  # radius > height AND > width
        assert padded.shape == (1, 11, 13)
        # the whole left pad band is the leftmost column, clamped
        assert np.all(padded[0, :, :6] == 1.0)
        assert np.all(padded[0, :, 7:] == 3.0)
        assert np.all(padded[0, :, 6] == 2.0)


class TestFrameSet:
    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            FrameSet([Frame("a", np.zeros((2, 2))), Frame("b", np.zeros((3, 3)))])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            FrameSet([Frame("a", np.zeros((2, 2))), Frame("a", np.zeros((2, 2)))])

    def test_for_kernel_builds_all_fields(self, chambolle_kernel):
        frames = FrameSet.for_kernel(chambolle_kernel, 8, 10, seed=1)
        assert set(frames.names()) == {"p", "g"}
        assert frames["p"].components == 2
        assert frames["g"].components == 1
        assert frames.height == 8 and frames.width == 10

    def test_for_kernel_accepts_initial_data(self, igf_kernel):
        initial = np.ones((4, 4))
        frames = FrameSet.for_kernel(igf_kernel, 4, 4, initial={"f": initial})
        assert np.allclose(frames["f"].data, 1.0)

    def test_for_kernel_rejects_wrong_component_count(self, chambolle_kernel):
        with pytest.raises(ValueError):
            FrameSet.for_kernel(chambolle_kernel, 4, 4, initial={"p": np.ones((4, 4))})

    def test_replace_checks_shape(self, igf_kernel):
        frames = FrameSet.for_kernel(igf_kernel, 4, 4)
        with pytest.raises(ValueError):
            frames.replace("f", np.zeros((1, 5, 5)))

    def test_make_test_frame_is_deterministic(self):
        a = make_test_frame(8, 8, rng=np.random.default_rng(7))
        b = make_test_frame(8, 8, rng=np.random.default_rng(7))
        assert np.array_equal(a, b)


class TestGoldenExecutor:
    def test_uniform_frame_is_blur_fixed_point(self, igf_kernel):
        """A constant frame is a fixed point of the (normalised) Gaussian blur."""
        frames = FrameSet.for_kernel(igf_kernel, 6, 6,
                                     initial={"f": np.full((6, 6), 3.0)})
        result = GoldenExecutor(igf_kernel).run(frames, 5)
        assert np.allclose(result["f"].data, 3.0)

    def test_blur_matches_manual_convolution_in_interior(self, igf_kernel):
        rng = np.random.default_rng(0)
        data = rng.random((7, 7))
        frames = FrameSet.for_kernel(igf_kernel, 7, 7, initial={"f": data})
        result = GoldenExecutor(igf_kernel).step(frames)["f"].data[0]
        kernel = np.array([[0.0625, 0.125, 0.0625],
                           [0.125, 0.25, 0.125],
                           [0.0625, 0.125, 0.0625]])
        y, x = 3, 3
        expected = float((data[y - 1:y + 2, x - 1:x + 2] * kernel).sum())
        assert result[y, x] == pytest.approx(expected)

    def test_zero_iterations_is_identity(self, igf_kernel):
        frames = FrameSet.for_kernel(igf_kernel, 5, 5, seed=2)
        result = GoldenExecutor(igf_kernel).run(frames, 0)
        assert np.array_equal(result["f"].data, frames["f"].data)

    def test_negative_iterations_rejected(self, igf_kernel):
        frames = FrameSet.for_kernel(igf_kernel, 5, 5)
        with pytest.raises(ValueError):
            GoldenExecutor(igf_kernel).run(frames, -1)

    def test_blur_smooths_variance(self, igf_kernel):
        frames = FrameSet.for_kernel(igf_kernel, 32, 32, seed=5)
        result = GoldenExecutor(igf_kernel).run(frames, 8)
        assert result["f"].data.var() < frames["f"].data.var()

    def test_readonly_field_is_untouched(self, chambolle_kernel):
        frames = FrameSet.for_kernel(chambolle_kernel, 10, 10, seed=3)
        original_g = frames["g"].data.copy()
        result = GoldenExecutor(chambolle_kernel).run(frames, 4)
        assert np.array_equal(result["g"].data, original_g)
        assert not np.array_equal(result["p"].data, frames["p"].data)

    def test_chambolle_dual_variable_stays_bounded(self, chambolle_kernel):
        """Chambolle's projection keeps the dual field bounded (soft check)."""
        frames = FrameSet.for_kernel(chambolle_kernel, 16, 16, seed=4)
        result = GoldenExecutor(chambolle_kernel).run(frames, 20)
        assert np.all(np.abs(result["p"].data) < 50.0)

    def test_parameter_override_changes_result(self, chambolle_kernel):
        frames = FrameSet.for_kernel(chambolle_kernel, 8, 8, seed=6)
        default = GoldenExecutor(chambolle_kernel).step(frames)
        slower = GoldenExecutor(chambolle_kernel, params={"tau": 0.05}).step(frames)
        assert not np.allclose(default["p"].data, slower["p"].data)

    def test_heat_equation_conserves_and_decays(self, heat_kernel):
        frames = FrameSet.for_kernel(heat_kernel, 16, 16, seed=8)
        result = GoldenExecutor(heat_kernel).run(frames, 10)
        assert result["t"].data.max() <= frames["t"].data.max() + 1e-9
        assert result["t"].data.min() >= frames["t"].data.min() - 1e-9

    def test_erosion_never_increases_values(self, erosion_kernel):
        frames = FrameSet.for_kernel(erosion_kernel, 12, 12, seed=9)
        result = GoldenExecutor(erosion_kernel).run(frames, 3)
        assert np.all(result["f"].data <= frames["f"].data + 1e-12)

    # ------------------------------------------------------------------ #
    # degenerate-shape regression: frames no larger than the stencil radius
    # exercise the clamp-everywhere corner of the boundary contract, where
    # the vectorized padded-view path and the scalar clamped_read path must
    # still agree bit-for-bit.

    @pytest.mark.parametrize("height,width", [(1, 1), (1, 5), (4, 1)])
    def test_vectorized_matches_scalar_on_degenerate_frames(self, igf_kernel,
                                                            height, width):
        frames = FrameSet.for_kernel(igf_kernel, height, width, seed=11)
        executor = GoldenExecutor(igf_kernel)
        fast = executor.run(frames, 3)
        slow = run_scalar(executor, frames, 3)
        assert np.array_equal(fast["f"].data, slow["f"].data)

    def test_multi_field_vectorized_matches_scalar_on_1x1(self,
                                                          chambolle_kernel):
        frames = FrameSet.for_kernel(chambolle_kernel, 1, 1, seed=12)
        executor = GoldenExecutor(chambolle_kernel)
        fast = executor.run(frames, 4)
        slow = run_scalar(executor, frames, 4)
        for name in frames.names():
            assert np.array_equal(fast[name].data, slow[name].data), name

    def test_blur_on_1x1_frame_is_identity(self, igf_kernel):
        """All nine taps clamp to the single pixel; a normalised blur of a
        single pixel must therefore return that pixel's own value."""
        frames = FrameSet.for_kernel(igf_kernel, 1, 1,
                                     initial={"f": np.array([[2.5]])})
        result = GoldenExecutor(igf_kernel).run(frames, 3)
        assert result["f"].data[0, 0, 0] == pytest.approx(2.5)
