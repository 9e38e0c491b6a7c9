"""Unit tests for geometry primitives."""

import pytest

from repro.utils.geometry import Offset, Window, bounding_window


class TestOffset:
    def test_addition_and_subtraction(self):
        a = Offset(2, -3)
        b = Offset(-1, 5)
        assert a + b == Offset(1, 2)
        assert a - b == Offset(3, -8)

    def test_negation(self):
        assert -Offset(2, -3) == Offset(-2, 3)

    def test_norms(self):
        o = Offset(-3, 4)
        assert o.manhattan() == 7
        assert o.chebyshev() == 4

    def test_origin_and_tuple(self):
        assert Offset.origin() == Offset(0, 0)
        assert Offset(1, 2).as_tuple() == (1, 2)

    def test_offsets_are_hashable_and_ordered(self):
        offsets = {Offset(0, 0), Offset(0, 0), Offset(1, 0)}
        assert len(offsets) == 2
        assert sorted([Offset(1, 0), Offset(0, 0)])[0] == Offset(0, 0)


class TestWindow:
    def test_basic_dimensions(self):
        w = Window(0, 0, 3, 2)
        assert w.width == 4
        assert w.height == 3
        assert w.area == 12
        assert not w.is_square()

    def test_square_constructor(self):
        w = Window.square(3)
        assert (w.width, w.height) == (3, 3)
        assert w.is_square()
        assert w.area == 9

    def test_square_with_origin(self):
        w = Window.square(2, Offset(5, 7))
        assert (w.x0, w.y0, w.x1, w.y1) == (5, 7, 6, 8)

    def test_degenerate_window_rejected(self):
        with pytest.raises(ValueError):
            Window(3, 0, 1, 0)

    def test_square_side_must_be_positive(self):
        with pytest.raises(ValueError):
            Window.square(0)

    def test_inflate_grows_symmetrically(self):
        w = Window.square(3).inflate(2)
        assert (w.x0, w.y0, w.x1, w.y1) == (-2, -2, 4, 4)
        assert w.area == 49

    def test_inflate_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            Window.square(3).inflate(-1)

    def test_containment(self):
        w = Window.square(3)
        assert w.contains(Offset(2, 2))
        assert not w.contains(Offset(3, 0))

    def test_intersection(self):
        a = Window(0, 0, 4, 4)
        b = Window(3, 3, 6, 6)
        c = Window(5, 5, 7, 7)
        assert a.intersects(b)
        assert not a.intersects(c)

    def test_elements_iteration_row_major(self):
        elements = list(Window(0, 0, 1, 1).elements())
        assert elements == [Offset(0, 0), Offset(1, 0), Offset(0, 1), Offset(1, 1)]
        assert len(list(Window.square(4).elements())) == 16


class TestBounding:
    def test_bounding_window(self):
        w = bounding_window([Offset(0, 0), Offset(-1, 2), Offset(3, -2)])
        assert (w.x0, w.y0, w.x1, w.y1) == (-1, -2, 3, 2)

    def test_bounding_empty_raises(self):
        with pytest.raises(ValueError):
            bounding_window([])
