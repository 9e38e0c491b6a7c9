"""The cone-based architectural template and its feasibility rules.

An instance of the template (Figure 3 of the paper) is characterised by:

1. the output window size of its cones,
2. the number of levels the computation is split into — equivalently, the
   depth of the cone used at each level (depths sum to the total iteration
   count of the algorithm), and
3. how many physical instances of each required cone depth are deployed.

Feasibility only requires at least one instance of each required depth: a
level needing several cone executions can reuse the same physical cone
sequentially (the paper's example implements cones A-D with one instance of
A executed four times).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.utils.validation import check_positive
from repro.architecture.cone import ConeGeometry, ConeShape


class FeasibilityError(ValueError):
    """Raised when an architecture instance violates the template rules."""


@dataclass(frozen=True)
class LevelSpec:
    """One level of the template: a group of iterations computed by one cone depth."""

    index: int
    depth: int

    def __post_init__(self) -> None:
        check_positive("depth", self.depth)


@dataclass
class ConeArchitecture:
    """A fully specified instance of the architectural template.

    Attributes
    ----------
    kernel_name:
        Kernel the architecture implements.
    window_side:
        Output window side shared by every cone of the architecture.
    level_depths:
        Depth of the cone used at each level, from the level closest to the
        input frame to the level producing the final output.  Their sum is
        the total number of iterations performed.
    cone_counts:
        Physical instances deployed per distinct cone depth.  Every depth in
        ``level_depths`` must appear with count >= 1.
    radius, components:
        Stencil radius and number of state components of the kernel, needed
        to derive the geometry of each cone.
    """

    kernel_name: str
    window_side: int
    level_depths: List[int]
    cone_counts: Dict[int, int]
    radius: int
    components: int = 1

    def __post_init__(self) -> None:
        check_positive("window_side", self.window_side)
        if not self.level_depths:
            raise FeasibilityError("an architecture needs at least one level")
        for depth in self.level_depths:
            check_positive("level depth", depth)
        self.validate()

    @classmethod
    def from_trusted_parts(cls, kernel_name: str, window_side: int,
                           level_depths: List[int],
                           cone_counts: Dict[int, int],
                           radius: int, components: int) -> "ConeArchitecture":
        """Materialize an architecture the enumerator already proved valid.

        Fast path for the exploration fold, which materializes architectures
        only for rows that survive constraint masks: the enumeration
        guarantees positive windows/depths and one instance per required
        depth, so re-running ``__post_init__`` validation per row would only
        burn the time the vectorized evaluation just saved.  The containers
        are adopted, not copied — callers must hand over fresh ones.
        """
        self = object.__new__(cls)
        self.kernel_name = kernel_name
        self.window_side = window_side
        self.level_depths = level_depths
        self.cone_counts = cone_counts
        self.radius = radius
        self.components = components
        return self

    # ------------------------------------------------------------------ #
    # structure

    @property
    def total_iterations(self) -> int:
        return sum(self.level_depths)

    @property
    def levels(self) -> List[LevelSpec]:
        return [LevelSpec(i, d) for i, d in enumerate(self.level_depths)]

    @property
    def distinct_depths(self) -> List[int]:
        return sorted(set(self.level_depths))

    @property
    def total_cone_instances(self) -> int:
        return sum(self.cone_counts.get(d, 0) for d in self.distinct_depths)

    def shapes(self) -> List[ConeShape]:
        """The distinct cone modules that must exist in hardware."""
        return [ConeShape(self.window_side, depth) for depth in self.distinct_depths]

    def geometry(self, depth: int) -> ConeGeometry:
        return ConeShape(self.window_side, depth).geometry(self.radius, self.components)

    def validate(self) -> None:
        """Check the feasibility rule: one instance of each required depth."""
        for depth in self.distinct_depths:
            if self.cone_counts.get(depth, 0) < 1:
                raise FeasibilityError(
                    f"architecture uses cones of depth {depth} but deploys "
                    f"{self.cone_counts.get(depth, 0)} instances of them"
                )

    # ------------------------------------------------------------------ #
    # per-tile workload (the cascade of Figure 3)

    def region_side_after_level(self, level_index: int) -> int:
        """Side of the region a level must produce for one final output tile.

        The last level produces exactly the output window; every earlier level
        must additionally cover the halo consumed by the levels after it.
        """
        if not (0 <= level_index < len(self.level_depths)):
            raise IndexError(f"level index {level_index} out of range")
        remaining = sum(self.level_depths[level_index + 1:])
        return self.window_side + 2 * self.radius * remaining

    def input_region_side(self) -> int:
        """Side of the iteration-0 region read from off-chip memory per tile."""
        return self.window_side + 2 * self.radius * self.total_iterations

    def executions_per_level(self) -> List[int]:
        """Cone executions each level performs per output tile."""
        executions = []
        for index, _depth in enumerate(self.level_depths):
            side = self.region_side_after_level(index)
            executions.append(math.ceil(side / self.window_side) ** 2)
        return executions

    # ------------------------------------------------------------------ #
    # memory traffic per tile (elements, not bytes)

    def offchip_elements_per_tile(self, readonly_components: int = 0) -> Tuple[int, int]:
        """(elements read, elements written) from/to off-chip memory per tile.

        The cone cascade keeps every intermediate level on chip; off-chip
        traffic is the iteration-0 input region (state components plus any
        read-only input fields, both needed over the full halo) and the final
        output window.
        """
        input_side = self.input_region_side()
        read = input_side * input_side * (self.components + readonly_components)
        written = self.window_side * self.window_side * self.components
        return read, written

    def onchip_elements(self) -> int:
        """Maximum number of elements alive on chip while processing a tile.

        Bounded by the largest inter-level buffer: the input region of the
        first level plus the output region it produces.
        """
        best = 0
        for index in range(len(self.level_depths)):
            produced_side = self.region_side_after_level(index)
            consumed_side = produced_side + 2 * self.radius * self.level_depths[index]
            total = (produced_side ** 2 + consumed_side ** 2) * self.components
            best = max(best, total)
        return best

    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation (depth keys become strings)."""
        return {
            "kernel_name": self.kernel_name,
            "window_side": self.window_side,
            "level_depths": list(self.level_depths),
            "cone_counts": {str(d): c for d, c in self.cone_counts.items()},
            "radius": self.radius,
            "components": self.components,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ConeArchitecture":
        return cls(
            kernel_name=data["kernel_name"],
            window_side=data["window_side"],
            level_depths=list(data["level_depths"]),
            cone_counts={int(d): c for d, c in data["cone_counts"].items()},
            radius=data["radius"],
            components=data.get("components", 1),
        )

    def label(self) -> str:
        """Identifier in the style of the paper's tables (e.g. ``blur_16_d5x2``)."""
        depth_part = "x".join(str(d) for d in self.level_depths)
        return (f"{self.kernel_name}_{self.window_side * self.window_side}"
                f"_d{depth_part}")

    def describe(self) -> str:
        counts = ", ".join(f"{self.cone_counts[d]}x depth-{d}"
                           for d in self.distinct_depths)
        return (f"{self.label()}: window {self.window_side}x{self.window_side}, "
                f"levels {self.level_depths} ({self.total_iterations} iterations), "
                f"cones [{counts}]")
