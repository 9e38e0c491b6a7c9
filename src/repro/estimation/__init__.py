"""Performance and area estimation (Section 3.3 of the paper).

The area model implements Equation 1: the area of a cone architecture is
predicted incrementally from the register counts that are already known once
the VHDL is generated, with the α correction factor calibrated from as few as
two reference syntheses.  The throughput model sums operator delays within a
cone, counts how many cones run in parallel, and accounts for the off-chip
traffic of the tile cascade.
"""

from repro.estimation.area_model import (
    CalibrationPoint,
    RegisterAreaModel,
    AreaEstimate,
    AreaModelValidation,
    validate_against_synthesis,
)
from repro.estimation.throughput_model import (
    ConePerformance,
    ArchitecturePerformance,
    ThroughputModel,
)

__all__ = [
    "CalibrationPoint",
    "RegisterAreaModel",
    "AreaEstimate",
    "AreaModelValidation",
    "validate_against_synthesis",
    "ConePerformance",
    "ArchitecturePerformance",
    "ThroughputModel",
]
