"""Synthesis by lowering: the differential oracle for the cone-DAG synthesizer.

This is the synthesis path the flow ran before the synthesizer read the
shared cone DAG: lower the cone to its own dataflow graph, map every
operation node onto FPGA primitives, pipeline the graph node by node, then
apply logic reuse and the tool-runtime model.  The tests hold
``Synthesizer.synthesize`` to it, report for report.
"""

from __future__ import annotations

from repro.ir.dfg import DataflowGraph, build_dfg_from_cone
from repro.ir.operators import OperatorLibrary, ResourceVector
from repro.ir.scheduling import pipeline_schedule
from repro.symbolic.cone_expression import ConeExpressions
from repro.synth.logic_reuse import MappedDesign
from repro.synth.synthesizer import (SynthesisReport, Synthesizer,
                                     tool_runtime_s)


class TechnologyMapper:
    """Maps a :class:`DataflowGraph` onto FPGA primitives."""

    def __init__(self, library: OperatorLibrary) -> None:
        self.library = library

    def map(self, graph: DataflowGraph,
            pipeline_register_count: int = 0) -> MappedDesign:
        """The pre-optimisation resource usage of ``graph``, summed in DFG
        node order; ``pipeline_register_count`` adds the pipeline's
        registers to the data-reuse registers of the graph."""
        op_total = ResourceVector()
        for node in graph.operation_nodes:
            constant = node.has_constant_operand(graph)
            spec = self.library.spec_for(node.op_kind,
                                         constant_operand=constant)
            op_total = op_total + spec.resources
        register_cost = self.library.register_resources
        # one register per operation result and per input element, plus
        # the pipeline registers
        register_count = graph.register_count + pipeline_register_count
        return MappedDesign(
            name=graph.name,
            operation_resources=op_total,
            register_resources=register_cost.scale(register_count),
            # output elements are driven through output registers as well
            io_resources=register_cost.scale(len(graph.output_ids)),
            register_count=register_count,
            operation_count=graph.operation_count(),
        )


def synthesize_graph(synthesizer: Synthesizer,
                     graph: DataflowGraph) -> SynthesisReport:
    """Synthesize a lowered cone the way the flow did before the DAG path,
    counting the run on ``synthesizer`` like ``synthesize`` does."""
    schedule = pipeline_schedule(graph,
                                 synthesizer.timing_model.target_period_ns,
                                 synthesizer.library)
    mapped = TechnologyMapper(synthesizer.library).map(
        graph, pipeline_register_count=schedule.pipeline_register_count)
    area = synthesizer.reuse_model.optimize(mapped)
    runtime = tool_runtime_s(mapped.total.luts)
    synthesizer.runs += 1
    synthesizer.total_tool_runtime_s += runtime
    report = SynthesisReport(
        design_name=graph.name,
        device_name=synthesizer.device.name,
        area=area,
        raw_area=mapped.total,
        register_count=mapped.register_count,
        operation_count=mapped.operation_count,
        timing=synthesizer.timing_model.analyze(schedule),
        estimated_tool_runtime_s=runtime,
    )
    object.__setattr__(report, "_fits",
                       area.fits_in(synthesizer.device.usable_capacity))
    return report


def oracle_synthesize(synthesizer: Synthesizer,
                      cone: ConeExpressions) -> SynthesisReport:
    """Lower ``cone`` and synthesize its dataflow graph."""
    return synthesize_graph(synthesizer, build_dfg_from_cone(cone))
