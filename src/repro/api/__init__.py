"""The composable public API of the flow.

Three concepts:

* :class:`Workload` — a declarative, hashable description of one flow
  invocation (kernel or C source + device + data format + frame geometry +
  iterations + constraints);
* :class:`Pipeline` — the staged flow (``frontend`` → ``analyze`` →
  ``characterize`` → ``explore`` → ``pareto`` → ``codegen``) over one
  workload, each stage independently runnable and producing a serializable
  artifact;
* :class:`Session` — cached, batched execution: workloads sharing a
  characterization key reuse cone characterizations and calibrations instead
  of re-running the synthesizer, and :meth:`Session.run_many` runs a batch
  in input order on the calling thread, re-raising the earliest failure
  after the whole batch ran.

:mod:`repro.api.store` makes the flow persistent: a disk-backed,
content-addressed :class:`ArtifactStore` (``Session(store=...)``) persists
cone characterizations, calibration points, and flow results across
processes.

Quick start::

    from repro.api import Session, Workload

    session = Session()
    result = session.run(Workload.from_algorithm("blur"))
    for point in result.pareto:
        print(point.summary())
"""

from repro.api.results import FlowOptions, FlowResult, ValidationResult
from repro.api.store import (
    ArtifactStore,
    CharacterizationStoreAdapter,
    default_store_path,
)
from repro.api.workload import Workload
from repro.api.pipeline import (
    Pipeline,
    PipelineError,
    STAGE_NAMES,
    build_explorer,
    generate_vhdl_files,
)
from repro.api.session import (
    Session,
    SessionEvent,
    SessionStats,
    default_session,
)

__all__ = [
    "FlowOptions",
    "FlowResult",
    "ValidationResult",
    "Workload",
    "Pipeline",
    "PipelineError",
    "STAGE_NAMES",
    "build_explorer",
    "generate_vhdl_files",
    "Session",
    "SessionEvent",
    "SessionStats",
    "default_session",
    # persistent store
    "ArtifactStore",
    "CharacterizationStoreAdapter",
    "default_store_path",
]
