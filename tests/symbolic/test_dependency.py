"""Unit tests for dependency footprints and cone-domain geometry."""

import pytest

from repro.symbolic.dependency import (
    ConeDomain,
    analyze_footprint,
    cone_element_count,
    cone_input_count,
    cone_input_window,
)
from repro.utils.geometry import Offset, Window


def test_igf_footprint(igf_kernel):
    footprint = analyze_footprint(igf_kernel)
    assert footprint.size == 9
    assert footprint.radius == 1
    assert footprint.bounding.area == 9
    assert Offset(0, 0) in footprint.offsets


def test_chambolle_footprint_separates_readonly(chambolle_kernel):
    footprint = analyze_footprint(chambolle_kernel)
    assert footprint.radius == 1
    assert "p" in footprint.per_field_offsets
    assert "g" in footprint.readonly_offsets
    assert "g" not in footprint.per_field_offsets


def test_cone_input_window_inflation():
    window = Window.square(4)
    inflated = cone_input_window(window, radius=1, depth=3)
    assert inflated.width == 4 + 2 * 3
    with pytest.raises(ValueError):
        cone_input_window(window, radius=1, depth=0)


@pytest.mark.parametrize("side,radius,depth,expected", [
    (1, 1, 1, 1),          # single element, one level
    (1, 1, 2, 1 + 9),      # figure 1 of the paper: cone of depth 2
    (4, 1, 1, 16),
    (2, 1, 2, 4 + 16),
    (3, 2, 2, 9 + 49),
])
def test_cone_element_count(side, radius, depth, expected):
    assert cone_element_count(side, radius, depth) == expected


def test_cone_element_count_scales_with_components():
    assert cone_element_count(3, 1, 2, components=2) == 2 * cone_element_count(3, 1, 2)


def test_cone_input_count():
    assert cone_input_count(1, 1, 2) == 25
    assert cone_input_count(4, 1, 2, components=2) == 2 * 64


class TestConeDomain:
    def test_figure1_cone(self):
        """The cone of Figure 1: depth 2, window of 4 elements (2x2)."""
        domain = ConeDomain(Window.square(2), depth=2, radius=1, components=1)
        assert domain.window_side == 2
        assert domain.output_elements == 4
        assert domain.input_window.width == 6
        assert domain.input_elements == 36
        assert domain.computed_elements == 4 + 16

    def test_recompute_overhead_decreases_with_window(self):
        small = ConeDomain(Window.square(1), depth=3, radius=1, components=1)
        large = ConeDomain(Window.square(9), depth=3, radius=1, components=1)
        assert small.recompute_overhead() > large.recompute_overhead()
        # with an infinite window the overhead tends to the depth
        assert large.recompute_overhead() > 3.0

    def test_non_square_window_rejected(self):
        domain = ConeDomain(Window(0, 0, 3, 2), depth=1, radius=1, components=1)
        with pytest.raises(ValueError):
            _ = domain.window_side
