"""Simulation substrate: frames, memories, golden model, cone simulators.

The paper evaluates real hardware; this reproduction replaces the board with
(1) a functional simulator that executes the generated cone architecture tile
by tile on synthetic frames and checks it against a software golden model,
and (2) a transaction-level cycle simulator that counts compute and memory
cycles of the tile cascade and cross-checks the analytic throughput model.

Every simulator runs vectorized by default (whole-frame array passes,
batched multi-frame runs, array-reduced cycle aggregation) with its original
scalar walk preserved as a ``*_scalar`` differential oracle — the property
suite pins the two paths bit-identical.
:func:`~repro.simulation.validation.validate_workload` packages
simulated-vs-golden evidence as a :class:`ValidationResult` for the
``validate`` service job class.
"""

from repro.simulation.frame import Frame, FrameSet, make_test_frame
from repro.simulation.golden import GoldenExecutor
from repro.simulation.memory import OffChipMemoryModel, OnChipBufferModel, TransferRecord
from repro.simulation.cone_simulator import (
    FunctionalConeSimulator,
    TileCascadeCycleSimulator,
    CycleSimulationResult,
)
from repro.simulation.framebuffer_baseline import (
    FrameBufferArchitecture,
    FrameBufferPerformance,
)
from repro.simulation.validation import ValidationResult, validate_workload

__all__ = [
    "Frame",
    "FrameSet",
    "make_test_frame",
    "GoldenExecutor",
    "OffChipMemoryModel",
    "OnChipBufferModel",
    "TransferRecord",
    "FunctionalConeSimulator",
    "TileCascadeCycleSimulator",
    "CycleSimulationResult",
    "FrameBufferArchitecture",
    "FrameBufferPerformance",
    "ValidationResult",
    "validate_workload",
]
