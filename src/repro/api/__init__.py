"""The composable public API of the flow.

Two concepts:

* :class:`Workload` — a declarative, hashable description of one flow
  invocation (kernel or C source + device + data format + frame geometry +
  iterations + constraints);
* :class:`Session` — the one way to run a workload: it runs the flow's
  stages (``frontend`` → ``analyze`` → ``characterize`` → ``explore`` →
  ``pareto``, :data:`STAGE_NAMES`) in :meth:`Session.run` and ``codegen``
  in :meth:`Session.generate_vhdl`.  Workloads sharing a characterization
  key reuse the kernel analysis, cone characterizations and calibrations
  instead of re-running the synthesizer, a bounded result layer keeps the
  most recent flow results, and :meth:`Session.run_many` runs a batch in
  input order on the calling thread, re-raising the earliest failure after
  the whole batch ran.  :meth:`Session.explorer_for` hands out the
  explorer behind the stages, with the kernel analysis facts.

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
    PipelineError,
    STAGE_NAMES,
    build_explorer,
    generate_vhdl_files,
)
from repro.api.session import (
    Session,
    SessionEvent,
    SessionStats,
)

__all__ = [
    "FlowOptions",
    "FlowResult",
    "ValidationResult",
    "Workload",
    "PipelineError",
    "STAGE_NAMES",
    "build_explorer",
    "generate_vhdl_files",
    "Session",
    "SessionEvent",
    "SessionStats",
    # persistent store
    "ArtifactStore",
    "CharacterizationStoreAdapter",
    "default_store_path",
]
