"""The staged compilation pipeline.

The paper's flow (Figure 2) is a cascade of stages; :class:`Pipeline` exposes
them as named, independently runnable steps over one :class:`Workload`:

``frontend``
    Resolve the workload to a kernel IR (registry lookup, C parsing, or an
    inline kernel).
``analyze``
    Semantic analysis plus symbolic ISL verification (domain narrowness,
    translation invariance), and a check that no divisor folds to the
    constant zero; the explorer computes each fact once per kernel and
    params.
``characterize``
    Cone characterization and Equation-1 area-model calibration — the
    expensive, cacheable step (the only one that runs the synthesizer).
``explore``
    Area/throughput estimation of every architecture in the space.
``pareto``
    Pareto extraction and assembly of the final :class:`FlowResult`.
``codegen``
    VHDL generation for a selected design point.

A pipeline is one computation: each stage stores its artifact under its name
in :attr:`Pipeline.artifacts` for the later stages of the same pipeline, and
running a stage runs any missing prerequisite stages first.  It caches
nothing across workloads; a :class:`~repro.api.session.Session` keeps the
results and shares the explorers.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.api.results import FlowResult
from repro.api.workload import Workload
from repro.codegen.vhdl_toplevel import generate_architecture_toplevel
from repro.codegen.vhdl_writer import FIXED_POINT_PACKAGE, VhdlWriter
from repro.dse.design_point import DesignPoint
from repro.dse.explorer import DesignSpaceExplorer
from repro.frontend.kernel_ir import KernelValidationError, StencilKernel
from repro.ir.dfg import build_dfg_from_cone
from repro.ir.operators import DataFormat
from repro.obs import trace as obs_trace
from repro.symbolic.cone_expression import ConeExpressionBuilder

#: Stage names in execution order.
STAGE_NAMES: Tuple[str, ...] = ("frontend", "analyze", "characterize",
                                "explore", "pareto", "codegen")

#: Observer signature: ``(stage_name, status, elapsed_seconds)`` where status
#: is ``"started"`` or ``"finished"`` (elapsed is ``None`` on start).
StageObserver = Callable[[str, str, Optional[float]], None]


class PipelineError(RuntimeError):
    """Raised when a stage cannot run (bad workload, non-ISL kernel, ...)."""


class Pipeline:
    """Runs the staged flow for one workload, one stage at a time."""

    def __init__(self, workload: Workload,
                 explorer: Optional[DesignSpaceExplorer] = None,
                 observer: Optional[StageObserver] = None) -> None:
        self.workload = workload
        self.artifacts: Dict[str, Any] = {}
        self._explorer = explorer
        self._observer = observer

    # ------------------------------------------------------------------ #
    # stage access

    @property
    def explorer(self) -> DesignSpaceExplorer:
        """The (possibly session-shared) explorer behind the analyze,
        characterize and explore stages."""
        if self._explorer is None:
            try:
                self._explorer = build_explorer(self.workload)
            except KernelValidationError as error:
                raise PipelineError(str(error)) from error
        return self._explorer

    def has_run(self, stage: str) -> bool:
        return stage in self.artifacts

    def run_stage(self, stage: str, **stage_args: Any) -> Any:
        """Run one named stage (and any missing prerequisites); return its
        artifact.

        A stage that already ran returns its artifact without re-executing,
        except ``codegen``, which always executes (its output depends on
        the selected design point and is never kept).
        """
        if stage not in STAGE_NAMES:
            raise PipelineError(
                f"unknown stage {stage!r}; stages are {', '.join(STAGE_NAMES)}")
        if stage_args and stage != "codegen":
            raise TypeError(f"stage {stage!r} takes no arguments (got "
                            f"{', '.join(stage_args)})")
        for prerequisite in STAGE_NAMES[:STAGE_NAMES.index(stage)]:
            if not self.has_run(prerequisite):
                self._execute(prerequisite)
        if stage == "codegen":
            return self.codegen(self.artifacts["pareto"], **stage_args)
        if not self.has_run(stage):
            self._execute(stage)
        return self.artifacts[stage]

    def result(self) -> FlowResult:
        """The assembled flow result (runs through ``pareto`` if needed)."""
        return self.run_stage("pareto")

    def codegen(self, result: FlowResult,
                point: Optional[DesignPoint] = None,
                fractional_bits: int = 12) -> Dict[str, str]:
        """Run the codegen stage over ``result``, this workload's flow
        result, and return the VHDL files.

        ``point`` defaults to the result's best fitting point, else its
        smallest.  A session passes the result it holds, so codegen re-runs
        no earlier stage.
        """
        return self._execute("codegen", result=result, point=point,
                             fractional_bits=fractional_bits)

    # ------------------------------------------------------------------ #
    # execution

    def _execute(self, stage: str, **stage_args: Any) -> Any:
        if self._observer is not None:
            self._observer(stage, "started", None)
        started = time.perf_counter()
        with obs_trace.span(f"stage.{stage}",
                            workload=self.workload.name):
            artifact = getattr(self, f"_stage_{stage}")(**stage_args)
        elapsed = time.perf_counter() - started
        if stage != "codegen":
            # codegen re-executes on every request (the selected point may
            # differ), so retaining its output — the full VHDL text — would
            # only hold memory, never serve a later stage.
            self.artifacts[stage] = artifact
        if self._observer is not None:
            self._observer(stage, "finished", elapsed)
        return artifact

    def _stage_frontend(self) -> StencilKernel:
        return self.workload.resolve_kernel()

    def _stage_analyze(self) -> Dict[str, Any]:
        kernel = self.artifacts["frontend"]
        # the explorer validated the kernel when it was built and keeps
        # the other two facts, so sessions check each once per kernel and
        # params
        explorer = self.explorer
        invariance = explorer.invariance
        if not invariance.is_isl:
            raise PipelineError(
                f"kernel {kernel.name!r} is outside the ISL class the flow "
                f"targets: {invariance.detail}")
        divisor = explorer.zero_divisor
        if divisor is not None:
            raise PipelineError(
                f"kernel {kernel.name!r} divides by {divisor}, which folds "
                f"to the constant zero")
        return {"properties": explorer.properties, "invariance": invariance}

    def _stage_characterize(self) -> Dict[str, Any]:
        characterizations, validations = self.explorer.characterize_cones(
            self.workload.iterations)
        return {"characterizations": characterizations,
                "validations": validations}

    def _stage_explore(self):
        workload = self.workload
        return self.explorer.explore(
            total_iterations=workload.iterations,
            frame_width=workload.frame_width,
            frame_height=workload.frame_height,
            constraints=workload.constraints,
            onchip_port_elements_per_cycle=(
                workload.onchip_port_elements_per_cycle),
            stream=workload.stream,
            chunk_rows=workload.chunk_rows,
        )

    def _stage_pareto(self) -> FlowResult:
        analysis = self.artifacts["analyze"]
        return FlowResult(
            kernel=self.artifacts["frontend"],
            properties=analysis["properties"],
            invariance=analysis["invariance"],
            exploration=self.artifacts["explore"],
            options=self.workload.options(),
        )

    def _stage_codegen(self, result: FlowResult,
                       point: Optional[DesignPoint],
                       fractional_bits: int) -> Dict[str, str]:
        if point is None:
            point = result.best_fitting_point() or result.smallest_point()
        if point is None:
            raise PipelineError(
                "codegen needs a design point, but the exploration produced "
                "none (constraints too tight?)")
        return generate_vhdl_files(
            kernel=self.workload.resolve_kernel(),
            params=self.workload.params_dict(),
            data_format=self.workload.data_format,
            point=point,
            fractional_bits=fractional_bits,
        )


# ---------------------------------------------------------------------- #
# stage helpers


def build_explorer(workload: Workload,
                   family_store: Optional[Any] = None) -> DesignSpaceExplorer:
    """Construct the design-space explorer a workload asks for.

    ``family_store`` (usually a
    :class:`repro.api.store.CharacterizationStoreAdapter` built by the
    session) persists depth-family characterizations across processes.
    """
    return DesignSpaceExplorer(
        kernel=workload.resolve_kernel(),
        device=workload.device,
        data_format=workload.data_format,
        window_sides=workload.window_sides,
        max_depth=workload.max_depth,
        max_cones_per_depth=workload.max_cones_per_depth,
        calibration_windows_per_depth=workload.calibration_windows_per_depth,
        synthesize_all=workload.synthesize_all,
        onchip_port_elements_per_cycle=workload.onchip_port_elements_per_cycle,
        params=workload.params_dict(),
        family_store=family_store,
    )


def generate_vhdl_files(kernel: StencilKernel,
                        params: Optional[Mapping[str, float]],
                        data_format: DataFormat,
                        point: DesignPoint,
                        fractional_bits: int = 12) -> Dict[str, str]:
    """Generate the VHDL of every cone of a design point plus the top level.

    Returns a mapping ``file name -> VHDL source`` (the support package, one
    entity per cone depth, and the structural top level).
    """
    architecture = point.architecture
    builder = ConeExpressionBuilder(kernel, params)
    writer = VhdlWriter(data_format=data_format,
                        fractional_bits=fractional_bits)
    files: Dict[str, str] = {"isl_fixed_pkg.vhd": FIXED_POINT_PACKAGE}
    entity_names: Dict[int, str] = {}
    for depth in architecture.distinct_depths:
        cone = builder.build(architecture.window_side, depth)
        dfg = build_dfg_from_cone(cone)
        module = writer.generate(dfg)
        entity_names[depth] = module.entity_name
        files[f"{module.entity_name}.vhd"] = module.code
    files[f"{architecture.label()}_top.vhd"] = generate_architecture_toplevel(
        architecture, entity_names, data_width=data_format.width)
    return files
