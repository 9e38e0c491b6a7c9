"""Simulation substrate: frames, golden model, functional cone simulator.

The paper evaluates real hardware; this reproduction replaces the board with
a functional simulator that executes the generated cone architecture tile
by tile on synthetic frames and checks it against a software golden model.
:func:`~repro.simulation.validation.validate_workload` packages the
simulated-vs-golden evidence as a :class:`ValidationResult` for the
``validate`` service job class, together with the frame-buffer baseline's
cycle counts for the same scenario.

The simulator runs vectorized (one array pass over every tile) and
``validate`` checks it bit for bit against its tile-by-tile walk,
:meth:`FunctionalConeSimulator.run_scalar`, on a crop of every frame.  The
other differential oracles live in the tests: the per-pixel golden walk
(``tests/simulation/golden_oracle.py``) and the transaction-level cycle
simulator with its memory models, which cross-checks the analytic
throughput model (``tests/simulation/cycle_oracle.py``).
"""

from repro.simulation.frame import Frame, FrameSet, make_test_frame
from repro.simulation.golden import GoldenExecutor
from repro.simulation.cone_simulator import FunctionalConeSimulator
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
    "FunctionalConeSimulator",
    "FrameBufferArchitecture",
    "FrameBufferPerformance",
    "ValidationResult",
    "validate_workload",
]
