"""The stages of the flow and the helpers a session runs them with.

The paper's flow (Figure 2) is one cascade of stages, which
:class:`~repro.api.session.Session` runs for every workload it computes:

``frontend``
    Resolve the workload to a kernel IR (registry lookup, C parsing, or an
    inline kernel).
``analyze``
    Semantic analysis plus symbolic ISL verification (domain narrowness,
    translation invariance), and a check that no divisor folds to the
    constant zero and no square root to a negative constant
    (:func:`check_analysis`); the key's explorer, built
    here on the key's first run, computes each fact once per kernel and
    params.
``characterize``
    Cone characterization and Equation-1 area-model calibration — the
    expensive, cacheable step (the only one that runs the synthesizer).
    A cone whose construction folds an operand to such a constant only
    after an earlier iteration (which ``analyze`` cannot see) fails here
    with :class:`PipelineError`, naming the cone and the operation.
``explore``
    Area/throughput estimation of every architecture in the space.
``pareto``
    Pareto extraction and assembly of the final :class:`FlowResult`.
``codegen``
    VHDL generation for a selected design point
    (:func:`generate_vhdl_files`).

A session runs the first three under its characterization-key lock, the
next two after releasing it, and ``codegen`` in
:meth:`~repro.api.session.Session.generate_vhdl`.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Tuple

from repro.api.workload import Workload
from repro.codegen.vhdl_toplevel import generate_architecture_toplevel
from repro.codegen.vhdl_writer import FIXED_POINT_PACKAGE, VhdlWriter
from repro.dse.design_point import DesignPoint
from repro.dse.explorer import DesignSpaceExplorer
from repro.frontend.kernel_ir import StencilKernel
from repro.ir.dfg import build_dfg_from_cone
from repro.ir.operators import DataFormat
from repro.symbolic.cone_expression import ConeExpressionBuilder

#: Stage names in execution order.
STAGE_NAMES: Tuple[str, ...] = ("frontend", "analyze", "characterize",
                                "explore", "pareto", "codegen")


class PipelineError(RuntimeError):
    """Raised when a stage cannot run (non-ISL kernel, no design point,
    ...)."""


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


def check_analysis(kernel: StencilKernel,
                   explorer: DesignSpaceExplorer) -> None:
    """The analyze stage: raise :class:`PipelineError` unless ``kernel``
    is in the ISL class and no operand folds to a constant no cone can be
    built with (a divisor to zero, a square root's operand to a negative
    constant).

    The explorer validated the kernel when it was built and keeps the other
    two facts, so a session checks each once per kernel and params.
    """
    invariance = explorer.invariance
    if not invariance.is_isl:
        raise PipelineError(
            f"kernel {kernel.name!r} is outside the ISL class the flow "
            f"targets: {invariance.detail}")
    fault = explorer.constant_fault
    if fault is not None:
        raise PipelineError(f"kernel {kernel.name!r} {fault}")


def generate_vhdl_files(kernel: StencilKernel,
                        params: Optional[Mapping[str, float]],
                        data_format: DataFormat,
                        point: DesignPoint) -> Dict[str, str]:
    """Generate the VHDL of every cone of a design point plus the top level.

    Returns a mapping ``file name -> VHDL source`` (the support package, one
    entity per cone depth, and the structural top level).
    """
    architecture = point.architecture
    builder = ConeExpressionBuilder(kernel, params)
    writer = VhdlWriter(data_format)
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
