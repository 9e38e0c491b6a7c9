"""repro — reproduction of the DAC 2013 cone-based HLS flow for iterative
stencil loops (ISLs) on FPGAs (Nacci, Rana, Bruschi, Sciuto, Beretta, Atienza).

The package implements the full flow of the paper:

* a C-subset / Python-DSL frontend producing a stencil kernel IR
  (:mod:`repro.frontend`);
* dependency analysis through symbolic execution with register reuse
  (:mod:`repro.symbolic`);
* a dataflow IR, VHDL generation, and a deterministic FPGA synthesis
  simulator standing in for the vendor tools (:mod:`repro.ir`,
  :mod:`repro.codegen`, :mod:`repro.synth`);
* the Equation-1 area model, the throughput model, and the design-space
  exploration with Pareto extraction (:mod:`repro.estimation`,
  :mod:`repro.dse`);
* the cone-architecture template (:mod:`repro.architecture`), the
  functional simulator with its golden model and the frame-buffer baseline
  (:mod:`repro.simulation`), the commercial-HLS and literature baselines
  (:mod:`repro.baselines`), and the case-study algorithms
  (:mod:`repro.algorithms`).

The user-facing surface is the composable API of :mod:`repro.api`: declare a
:class:`Workload`, run it in a :class:`Session` (which runs the flow's stages
and caches cone characterizations across workloads), and every result
round-trips through JSON.  A workload names its device by catalog part name
(:func:`resolve_device`) or passes an :class:`FpgaDevice` for a custom board,
and ``Session(store=...)`` persists characterizations and results across
processes through :mod:`repro.api.store`.

Quick start::

    from repro import FlowResult, Session, Workload

    session = Session()
    result = session.run(Workload.from_algorithm("blur"))
    for point in result.pareto:
        print(point.summary())

Batches share the expensive characterization/calibration work::

    results = session.run_many([
        Workload.from_algorithm("blur"),
        Workload.from_algorithm("blur", frame_width=640, frame_height=480),
        Workload.from_algorithm("jacobi"),
    ])
    print(session.stats.synthesis_runs)   # one run per unique cone shape

Everything serializes::

    import json
    payload = json.dumps(result.to_dict())
    restored = FlowResult.from_dict(json.loads(payload))

The same flow is scriptable from the shell: ``python -m repro list``,
``python -m repro explore blur --json``, ``python -m repro codegen blur
--out vhdl/``, ``python -m repro sweep --algorithms blur,jacobi
--frames 640x480,1024x768``.
"""

from repro.frontend import (
    StencilKernel,
    stencil_kernel,
    KernelBuilder,
    parse_c_source,
    extract_kernel_from_c,
    validate_kernel,
)
from repro.symbolic import ConeExpressionBuilder
from repro.architecture import ConeShape, ConeArchitecture
from repro.synth import (
    FpgaDevice,
    Synthesizer,
    VIRTEX6_XC6VLX760,
    VIRTEX2P_XC2VP30,
    resolve_device,
)
from repro.estimation import RegisterAreaModel, ThroughputModel
from repro.dse import DesignSpaceExplorer, DesignPoint, pareto_front, DseConstraints
from repro.simulation import (
    Frame,
    FrameSet,
    GoldenExecutor,
    FunctionalConeSimulator,
    FrameBufferArchitecture,
)
from repro.baselines import CommercialHlsTool, HlsConfiguration, literature_design
from repro.algorithms import ALGORITHMS, get_algorithm, list_algorithms
from repro.api import (
    ArtifactStore,
    FlowOptions,
    FlowResult,
    PipelineError,
    Session,
    SessionEvent,
    SessionStats,
    Workload,
    default_store_path,
)

__version__ = "1.2.0"

__all__ = [
    "StencilKernel",
    "stencil_kernel",
    "KernelBuilder",
    "parse_c_source",
    "extract_kernel_from_c",
    "validate_kernel",
    "ConeExpressionBuilder",
    "ConeShape",
    "ConeArchitecture",
    "FpgaDevice",
    "Synthesizer",
    "VIRTEX6_XC6VLX760",
    "VIRTEX2P_XC2VP30",
    "resolve_device",
    "RegisterAreaModel",
    "ThroughputModel",
    "DesignSpaceExplorer",
    "DesignPoint",
    "pareto_front",
    "DseConstraints",
    "Frame",
    "FrameSet",
    "GoldenExecutor",
    "FunctionalConeSimulator",
    "FrameBufferArchitecture",
    "CommercialHlsTool",
    "HlsConfiguration",
    "literature_design",
    "ALGORITHMS",
    "get_algorithm",
    "list_algorithms",
    "Workload",
    "PipelineError",
    "Session",
    "SessionEvent",
    "SessionStats",
    "FlowOptions",
    "FlowResult",
    "ArtifactStore",
    "default_store_path",
    "__version__",
]
