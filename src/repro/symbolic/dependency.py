"""Dependency footprint analysis and cone-domain geometry.

These are the quantities Section 3.1 of the paper reasons about: starting
from a cone output *window* at iteration ``i+m`` and propagating the stencil
footprint back ``m`` levels gives the *domain* of the cone — the set of
iteration-``i`` elements it must read — and the number of intermediate
elements it computes on the way, which drives both the register count and the
area of the generated hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.utils.geometry import Offset, Window, bounding_window
from repro.utils.validation import check_positive
from repro.frontend.kernel_ir import StencilKernel


@dataclass(frozen=True)
class DependencyFootprint:
    """The single-iteration dependency scheme of a kernel."""

    kernel_name: str
    offsets: Tuple[Offset, ...]
    radius: int
    per_field_offsets: Dict[str, Tuple[Offset, ...]]
    readonly_offsets: Dict[str, Tuple[Offset, ...]]

    @property
    def size(self) -> int:
        """Number of distinct state-field elements read per output element."""
        return len(self.offsets)

    @property
    def bounding(self) -> Window:
        return bounding_window(self.offsets)


def analyze_footprint(kernel: StencilKernel) -> DependencyFootprint:
    """Compute the dependency footprint of a kernel."""
    state_fields = set(kernel.state_field_names)
    per_field: Dict[str, set] = {}
    readonly: Dict[str, set] = {}
    for update in kernel.updates:
        for read in update.expr.reads():
            bucket = per_field if read.field_name in state_fields else readonly
            bucket.setdefault(read.field_name, set()).add(read.offset)
    all_offsets = set()
    for offsets in per_field.values():
        all_offsets.update(offsets)
    radius = max((o.chebyshev() for o in all_offsets), default=0)
    return DependencyFootprint(
        kernel_name=kernel.name,
        offsets=tuple(sorted(all_offsets, key=lambda o: (o.dy, o.dx))),
        radius=radius,
        per_field_offsets={k: tuple(sorted(v, key=lambda o: (o.dy, o.dx)))
                           for k, v in per_field.items()},
        readonly_offsets={k: tuple(sorted(v, key=lambda o: (o.dy, o.dx)))
                          for k, v in readonly.items()},
    )


def cone_input_window(output_window: Window, radius: int, depth: int) -> Window:
    """The iteration-``i`` window a cone of ``depth`` levels must read.

    Every level grows the window by the stencil radius on each side.
    """
    check_positive("depth", depth)
    return output_window.inflate(radius * depth)


def cone_element_count(window_side: int, radius: int, depth: int,
                       components: int = 1) -> int:
    """Number of elements a cone computes across all its levels (1..depth).

    This is the quantity that drives register usage: with full data reuse each
    computed element occupies one register holding its value while the next
    level consumes it.
    """
    check_positive("window_side", window_side)
    check_positive("depth", depth)
    total = 0
    for level in range(1, depth + 1):
        side = window_side + 2 * radius * (depth - level)
        total += side * side
    return total * components


def cone_input_count(window_side: int, radius: int, depth: int,
                     components: int = 1) -> int:
    """Number of iteration-``i`` elements a cone reads (its level-0 window)."""
    side = window_side + 2 * radius * depth
    return side * side * components


@dataclass(frozen=True)
class ConeDomain:
    """Full geometric characterisation of a cone."""

    output_window: Window
    depth: int
    radius: int
    components: int

    @property
    def window_side(self) -> int:
        if not self.output_window.is_square():
            raise ValueError("cone domains are defined for square windows")
        return self.output_window.width

    @property
    def input_window(self) -> Window:
        return cone_input_window(self.output_window, self.radius, self.depth)

    @property
    def output_elements(self) -> int:
        return self.output_window.area * self.components

    @property
    def input_elements(self) -> int:
        return self.input_window.area * self.components

    @property
    def computed_elements(self) -> int:
        return cone_element_count(self.window_side, self.radius, self.depth,
                                  self.components)

    def recompute_overhead(self) -> float:
        """Ratio of computed elements to output elements.

        A value of 1.0 means no halo recomputation; larger windows amortise
        the halo and drive this ratio towards ``depth`` (one element computed
        per level per output element).
        """
        return self.computed_elements / self.output_elements
