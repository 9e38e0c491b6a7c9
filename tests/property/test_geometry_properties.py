"""Property-based tests for geometry and cone-domain arithmetic."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.architecture.cone import ConeShape
from repro.symbolic.dependency import cone_element_count, cone_input_count
from repro.utils.geometry import Offset, Window, bounding_window

offsets = st.builds(Offset,
                    st.integers(min_value=-50, max_value=50),
                    st.integers(min_value=-50, max_value=50))
sides = st.integers(min_value=1, max_value=12)
radii = st.integers(min_value=0, max_value=4)
depths = st.integers(min_value=1, max_value=6)


@given(offsets, offsets)
def test_offset_addition_is_commutative_and_invertible(a, b):
    assert a + b == b + a
    assert (a + b) - b == a
    assert a + (-a) == Offset(0, 0)


@given(offsets)
def test_chebyshev_never_exceeds_manhattan(offset):
    assert offset.chebyshev() <= offset.manhattan() <= 2 * offset.chebyshev()


@given(sides, st.integers(min_value=0, max_value=5))
def test_inflate_area_formula(side, radius):
    window = Window.square(side)
    inflated = window.inflate(radius)
    assert inflated.area == (side + 2 * radius) ** 2
    assert inflated.x0 <= window.x0 and inflated.y0 <= window.y0
    assert inflated.x1 >= window.x1 and inflated.y1 >= window.y1


@given(st.lists(offsets, min_size=1, max_size=20))
def test_bounding_window_contains_every_offset(points):
    box = bounding_window(points)
    assert all(box.contains(p) for p in points)


@given(sides, radii, depths)
def test_cone_counts_are_consistent(side, radius, depth):
    computed = cone_element_count(side, radius, depth)
    inputs = cone_input_count(side, radius, depth)
    outputs = side * side
    # the cone computes at least its outputs and at most depth * input size
    assert computed >= outputs
    assert computed <= depth * inputs
    # the input window is the largest window of the cone
    assert inputs >= outputs


@given(sides, radii, depths, st.integers(min_value=1, max_value=3))
def test_components_scale_linearly(side, radius, depth, components):
    assert cone_element_count(side, radius, depth, components) == \
        components * cone_element_count(side, radius, depth)


@given(sides, depths)
def test_cone_shape_geometry_with_zero_radius_has_no_halo(side, depth):
    geometry = ConeShape(side, depth).geometry(radius=0)
    assert geometry.input_side == side
    assert geometry.recompute_overhead == depth
