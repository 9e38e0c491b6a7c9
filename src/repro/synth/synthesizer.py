"""The synthesis simulator front door.

``Synthesizer.synthesize`` plays the role Xilinx ISE/Vivado plays in the
paper: given one cone it returns the "actual" area and timing after
technology mapping, pipelining and logic reuse.  It also models the *cost*
of a synthesis run in CPU time, because the whole point of the paper's area
model is to avoid paying that cost for every point of the design space: the
flow tracks how many (simulated) synthesis hours a full exploration would
have taken versus how many the calibrated model needed.

**Synthesis on the shared cone DAG.**  What mapping and pipelining assign
to a node of a cone's expression DAG depends only on its fan-in, the
operator library and the clock: its operator's resources and delay, its
ASAP finish time, its pipeline stage and the delay accumulated in it, and
the pipeline registers on its operand edges.  So the synthesizer computes
them once per distinct node, in the DAG memo the cones of one builder
share (:mod:`repro.symbolic.cone_expression`), keyed by its library and
clock.  A cone's report then takes one post-order walk over the cone, the
order in which :func:`~repro.ir.dfg.build_dfg_from_cone` numbers DFG nodes.
Operation resources are added one at a time in that order: the per-operator
LUT costs are not dyadic, so the float sum depends on its order.  No
dataflow graph is built; that is codegen's view of a cone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional

from repro.ir.operators import OperatorLibrary, ResourceVector, default_library
from repro.ir.scheduling import Schedule, place_in_stage
from repro.symbolic.cone_expression import ConeExpressions
from repro.symbolic.expression import Constant, Expression, Operation
from repro.synth.fpga_device import FpgaDevice, VIRTEX6_XC6VLX760
from repro.synth.logic_reuse import LogicReuseModel, MappedDesign
from repro.synth.timing import TimingModel, TimingReport


@dataclass(frozen=True)
class SynthesisReport:
    """Everything a synthesis run reports back to the flow."""

    design_name: str
    device_name: str
    area: ResourceVector
    raw_area: ResourceVector
    register_count: int
    operation_count: int
    timing: TimingReport
    #: Simulated tool runtime (seconds of CPU time a real synthesis of this
    #: design would take); used to quantify the exploration-cost saving.
    estimated_tool_runtime_s: float

    @property
    def slice_luts(self) -> float:
        return self.area.luts

    @property
    def fits(self) -> bool:
        return self._fits

    # populated post-init via object.__setattr__ in Synthesizer
    _fits: bool = True


def tool_runtime_s(luts: float) -> float:
    """Model of the real tool's CPU time for a design of ``luts`` LUTs.

    Synthesis + place&route time grows super-linearly with logic volume;
    for the cone sizes of the paper this lands in the minutes-to-hours
    range, and a full design-space sweep in the "dozens of hours" the
    paper mentions.
    """
    # ~40 s fixed start-up plus ~1.5 min per 10k LUTs, growing ^1.15.
    return 40.0 + 90.0 * (max(luts, 0.0) / 10_000.0) ** 1.15


class PlacedNode(NamedTuple):
    """What mapping and pipelining assign to one DAG node."""

    luts: float
    ffs: float
    dsps: float
    brams: float
    finish_ns: float
    stage: int
    #: Combinational delay accumulated in ``stage`` up to the node's output.
    stage_delay_ns: float
    #: Pipeline registers on the node's operand edges.
    crossings: int


#: Inputs and constants: no logic, finished at time 0 in stage 0.
_LEAF = PlacedNode(0.0, 0.0, 0.0, 0.0, 0.0, 0, 0.0, 0)


class Synthesizer:
    """Deterministic stand-in for the FPGA synthesis backend."""

    def __init__(self, device: FpgaDevice = VIRTEX6_XC6VLX760,
                 library: Optional[OperatorLibrary] = None,
                 reuse_model: Optional[LogicReuseModel] = None) -> None:
        self.device = device
        self.library = library or default_library()
        self.reuse_model = reuse_model or LogicReuseModel()
        self.timing_model = TimingModel(device)
        #: Number of synthesize() calls performed — the "synthesis runs" the
        #: paper wants to minimise.
        self.runs = 0
        self.total_tool_runtime_s = 0.0

    # ------------------------------------------------------------------ #

    def synthesize(self, cone: ConeExpressions) -> SynthesisReport:
        """Synthesise one cone and report post-optimisation area/timing.

        Each node of the cone is mapped and pipelined once per DAG memo
        (see the module docstring), however many cones contain it.
        """
        period = self.timing_model.target_period_ns
        placed: Dict[int, PlacedNode] = cone.dag_memo.setdefault(
            ("synthesis", self.library, period), {})
        swapped = cone.swapped
        # node id -> False while its operands are walked, True once done
        visited: Dict[int, bool] = {}
        luts = ffs = dsps = brams = critical_path = 0.0
        crossings = last_stage = 0
        for _, root in cone.ordered_outputs():
            stack: List[Expression] = [root]
            while stack:
                node = stack.pop()
                node_id = node.node_id
                done = visited.get(node_id)
                if done is None and isinstance(node, Operation):
                    # its operands first, in the cone's order, then itself
                    visited[node_id] = False
                    stack.append(node)
                    stack.extend(node.operands if node_id in swapped
                                 else reversed(node.operands))
                elif done is None:
                    visited[node_id] = True
                    placed.setdefault(node_id, _LEAF)
                elif not done:
                    visited[node_id] = True
                    here = (placed.get(node_id)
                            or self._place(node, placed, period))
                    luts += here.luts
                    ffs += here.ffs
                    dsps += here.dsps
                    brams += here.brams
                    crossings += here.crossings
            # the output port: a register driven by the root
            source = placed[root.node_id]
            stage, _ = place_in_stage([(source.stage, source.stage_delay_ns)],
                                      0.0, period)
            crossings += stage - source.stage
            last_stage = max(last_stage, stage)
            critical_path = max(critical_path, source.finish_ns)

        # one data-reuse register per operation result and input element,
        # plus the pipeline registers
        register_count = cone.operation_count + cone.input_count + crossings
        register_cost = self.library.register_resources
        mapped = MappedDesign(
            name=cone.name,
            operation_resources=ResourceVector(luts, ffs, dsps, brams),
            register_resources=register_cost.scale(register_count),
            io_resources=register_cost.scale(cone.output_count),
            register_count=register_count,
            operation_count=cone.operation_count,
        )
        stages = last_stage + 1
        timing = self.timing_model.analyze(Schedule(
            graph_name=cone.name, clock_period_ns=period,
            critical_path_ns=critical_path, pipeline_stages=stages,
            latency_cycles=stages, initiation_interval=1,
            pipeline_register_count=crossings))
        area = self.reuse_model.optimize(mapped)
        runtime = tool_runtime_s(mapped.total.luts)

        self.runs += 1
        self.total_tool_runtime_s += runtime

        report = SynthesisReport(
            design_name=cone.name,
            device_name=self.device.name,
            area=area,
            raw_area=mapped.total,
            register_count=register_count,
            operation_count=cone.operation_count,
            timing=timing,
            estimated_tool_runtime_s=runtime,
        )
        object.__setattr__(report, "_fits",
                           area.fits_in(self.device.usable_capacity))
        return report

    def _place(self, node: Operation, placed: Dict[int, PlacedNode],
               period: float) -> PlacedNode:
        """Map and pipeline ``node``, whose operands are placed already,
        and memoize the result."""
        kind, operands = node.kind, node.operands
        if len(operands) != kind.arity:
            raise ValueError(f"node {node.node_id}: {kind.value} expects "
                             f"{kind.arity} operands, has {len(operands)}")
        spec = self.library.spec_for(kind, constant_operand=any(
            [isinstance(operand, Constant) for operand in operands]))
        inputs = [placed[operand.node_id] for operand in operands]
        stage, stage_delay = place_in_stage(
            [(p.stage, p.stage_delay_ns) for p in inputs], spec.delay_ns,
            period)
        resources = spec.resources
        here = placed[node.node_id] = PlacedNode(
            resources.luts, resources.ffs, resources.dsps, resources.brams,
            finish_ns=max([p.finish_ns for p in inputs]) + spec.delay_ns,
            stage=stage,
            stage_delay_ns=stage_delay,
            crossings=sum([stage - p.stage for p in inputs
                           if stage > p.stage]))
        return here

    def max_parallel_instances(self, report: SynthesisReport) -> int:
        """How many copies of the synthesised cone fit on the device."""
        return self.device.max_instances(report.area)
