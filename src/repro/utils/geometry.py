"""Geometry primitives used across the flow.

The whole stencil machinery reasons about *relative offsets* (the displacement
between the element being produced and the elements it reads) and about
*windows* (axis-aligned rectangles of elements, used both for the cone output
tile and for the halo regions that grow level by level inside a cone).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Tuple


@dataclass(frozen=True, order=True)
class Offset:
    """A relative 2D displacement ``(dx, dy)`` measured in grid elements.

    ``dx`` moves along the row (column index), ``dy`` along the column
    (row index).  Offsets are immutable and hashable so they can be used as
    dictionary keys in dependency footprints and symbol tables.
    """

    dx: int
    dy: int

    def __add__(self, other: "Offset") -> "Offset":
        return Offset(self.dx + other.dx, self.dy + other.dy)

    def __sub__(self, other: "Offset") -> "Offset":
        return Offset(self.dx - other.dx, self.dy - other.dy)

    def __neg__(self) -> "Offset":
        return Offset(-self.dx, -self.dy)

    def manhattan(self) -> int:
        """Return the L1 norm of the offset."""
        return abs(self.dx) + abs(self.dy)

    def chebyshev(self) -> int:
        """Return the L-infinity norm (stencil *radius* contribution)."""
        return max(abs(self.dx), abs(self.dy))

    def as_tuple(self) -> Tuple[int, int]:
        return (self.dx, self.dy)

    def to_list(self) -> list:
        """JSON-ready representation ``[dx, dy]``."""
        return [self.dx, self.dy]

    @staticmethod
    def from_list(data: "Iterable[int]") -> "Offset":
        dx, dy = data
        return Offset(int(dx), int(dy))

    @staticmethod
    def origin() -> "Offset":
        return Offset(0, 0)


@dataclass(frozen=True)
class Window:
    """An axis-aligned, inclusive rectangle of grid elements.

    ``x0 <= x <= x1`` and ``y0 <= y <= y1``.  A window is the unit the cone
    architecture reasons about: the output tile of a cone is a window, and the
    set of elements a cone must read from the previous level is the output
    window *inflated* by the stencil radius times the cone depth.
    """

    x0: int
    y0: int
    x1: int
    y1: int

    def __post_init__(self) -> None:
        if self.x1 < self.x0 or self.y1 < self.y0:
            raise ValueError(
                f"degenerate window: ({self.x0},{self.y0})..({self.x1},{self.y1})"
            )

    @property
    def width(self) -> int:
        return self.x1 - self.x0 + 1

    @property
    def height(self) -> int:
        return self.y1 - self.y0 + 1

    @property
    def area(self) -> int:
        """Number of elements covered by the window."""
        return self.width * self.height

    def is_square(self) -> bool:
        return self.width == self.height

    def inflate(self, radius: int) -> "Window":
        """Return the window grown by ``radius`` elements on every side.

        This models one application of a stencil of Chebyshev radius
        ``radius``: to produce this window at iteration ``i+1`` one needs the
        inflated window at iteration ``i``.
        """
        if radius < 0:
            raise ValueError("radius must be non-negative")
        return Window(self.x0 - radius, self.y0 - radius,
                      self.x1 + radius, self.y1 + radius)

    def contains(self, offset: Offset) -> bool:
        return self.x0 <= offset.dx <= self.x1 and self.y0 <= offset.dy <= self.y1

    def intersects(self, other: "Window") -> bool:
        return not (other.x0 > self.x1 or other.x1 < self.x0
                    or other.y0 > self.y1 or other.y1 < self.y0)

    def elements(self) -> Iterator[Offset]:
        """Iterate over every element of the window in row-major order."""
        for y in range(self.y0, self.y1 + 1):
            for x in range(self.x0, self.x1 + 1):
                yield Offset(x, y)

    def to_list(self) -> list:
        """JSON-ready representation ``[x0, y0, x1, y1]``."""
        return [self.x0, self.y0, self.x1, self.y1]

    @staticmethod
    def from_list(data: Iterable[int]) -> "Window":
        x0, y0, x1, y1 = data
        return Window(int(x0), int(y0), int(x1), int(y1))

    @staticmethod
    def square(side: int, origin: Offset = Offset(0, 0)) -> "Window":
        """Build a ``side x side`` window whose lower corner is ``origin``."""
        if side <= 0:
            raise ValueError("side must be positive")
        return Window(origin.dx, origin.dy,
                      origin.dx + side - 1, origin.dy + side - 1)


def bounding_window(offsets: Iterable[Offset]) -> Window:
    """Return the smallest window containing every offset in ``offsets``."""
    items = list(offsets)
    if not items:
        raise ValueError("cannot bound an empty set of offsets")
    xs = [o.dx for o in items]
    ys = [o.dy for o in items]
    return Window(min(xs), min(ys), max(xs), max(ys))
