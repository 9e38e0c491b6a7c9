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

Two supporting subsystems make the flow extensible and persistent:

* :mod:`repro.api.registry` — protocol-based extension points
  (:class:`SynthesizerBackend`, :class:`AreaEstimator`,
  :class:`ThroughputEstimator`, :class:`DeviceProvider`) behind a named
  registry (:func:`register_backend` / :func:`get_backend`), with plugin
  discovery via the ``REPRO_BACKENDS`` environment variable;
* :mod:`repro.api.store` — a disk-backed, content-addressed
  :class:`ArtifactStore` (``Session(store=...)``) that persists cone
  characterizations, calibration points, and flow results across processes.

Quick start::

    from repro.api import Session, Workload

    session = Session()
    result = session.run(Workload.from_algorithm("blur"))
    for point in result.pareto:
        print(point.summary())
"""

from repro.api.registry import (
    AreaEstimator,
    BackendError,
    CatalogDeviceProvider,
    DeviceProvider,
    SynthesizerBackend,
    ThroughputEstimator,
    backend_signature,
    create_backend,
    discover_backends,
    get_backend,
    list_backends,
    list_devices,
    register_backend,
    register_device,
    resolve_device,
    unregister_backend,
)
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
    # registry (extension points)
    "SynthesizerBackend",
    "AreaEstimator",
    "ThroughputEstimator",
    "DeviceProvider",
    "CatalogDeviceProvider",
    "BackendError",
    "register_backend",
    "unregister_backend",
    "get_backend",
    "create_backend",
    "backend_signature",
    "list_backends",
    "register_device",
    "resolve_device",
    "list_devices",
    "discover_backends",
    # persistent store
    "ArtifactStore",
    "CharacterizationStoreAdapter",
    "default_store_path",
]
