"""Cone-based architecture template (Section 3.1 of the paper).

An architecture instance is fully characterised by the output window size of
its cones, the way the total iteration count is split into levels of given
depths, and how many physical cone instances of each depth are deployed on
the device.
"""

from repro.architecture.cone import ConeShape, ConeGeometry
from repro.architecture.template import (
    LevelSpec,
    ConeArchitecture,
    FeasibilityError,
)
from repro.architecture.enumeration import (
    single_depth_split,
    ArchitectureSpace,
)

__all__ = [
    "ConeShape",
    "ConeGeometry",
    "LevelSpec",
    "ConeArchitecture",
    "FeasibilityError",
    "single_depth_split",
    "ArchitectureSpace",
]
