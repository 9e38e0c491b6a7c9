"""Pipeline scheduling of cone datapaths.

The throughput estimation of Section 3.3 of the paper "follows the
traditional approach, i.e., summing the delays of the operations included in
each cone" — that is the ASAP critical path.  The pipeline schedule
additionally chops the combinational path into stages that fit the target
clock period, giving the core latency (in cycles) and the initiation
interval of the cone.

The greedy stage rule (:func:`place_in_stage`) is shared by the two views
of a cone: :func:`pipeline_schedule` applies it to every node of a
:class:`~repro.ir.dfg.DataflowGraph` for the VHDL writer, and the
synthesizer applies it once per node of the shared cone DAG.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple

from repro.ir.dfg import DataflowGraph, DfgNode, NodeKind
from repro.ir.operators import OperatorLibrary, default_library


@dataclass
class Schedule:
    """Result of scheduling a cone datapath against a clock period."""

    graph_name: str
    clock_period_ns: float
    critical_path_ns: float
    pipeline_stages: int
    latency_cycles: int
    initiation_interval: int
    #: Stage of every DFG node; empty for a schedule computed on the cone
    #: DAG, which has no DFG node ids.
    stage_of_node: Dict[int, int] = field(default_factory=dict)
    pipeline_register_count: int = 0

    @property
    def max_frequency_hz(self) -> float:
        """Highest clock the schedule closes timing at (bounded by one stage)."""
        if self.pipeline_stages <= 0:
            return 0.0
        limiting = self.critical_path_ns / self.pipeline_stages
        limiting = max(limiting, _MIN_STAGE_DELAY_NS)
        return 1e9 / limiting


_MIN_STAGE_DELAY_NS = 1.2   # clock-to-out + setup + routing floor


def place_in_stage(operands: Iterable[Tuple[int, float]], delay_ns: float,
                   clock_period_ns: float) -> Tuple[int, float]:
    """Stage of a node, and the delay accumulated in that stage up to and
    including the node.

    ``operands`` holds the ``(stage, accumulated delay)`` of the node's
    operands.  The node goes to the earliest stage that is no earlier than
    any operand's stage and whose accumulated combinational delay stays
    within the clock period; an operator longer than the period occupies
    several stages on its own (the backend pipelines it internally).
    """
    placed = list(operands)
    if not placed:
        return 0, delay_ns
    operand_stage = max([stage for stage, _ in placed])
    accumulated = max([delay for stage, delay in placed
                       if stage == operand_stage])
    if delay_ns > clock_period_ns:
        extra = math.ceil(delay_ns / clock_period_ns)
        return operand_stage + extra, delay_ns - (extra - 1) * clock_period_ns
    if accumulated + delay_ns <= clock_period_ns:
        return operand_stage, accumulated + delay_ns
    return operand_stage + 1, delay_ns


def _node_delay(node: DfgNode, graph: DataflowGraph,
                library: OperatorLibrary) -> float:
    if node.kind is not NodeKind.OP:
        return 0.0
    assert node.op_kind is not None
    constant = node.has_constant_operand(graph)
    return library.spec_for(node.op_kind, constant_operand=constant).delay_ns


def pipeline_schedule(graph: DataflowGraph,
                      clock_period_ns: float,
                      library: Optional[OperatorLibrary] = None) -> Schedule:
    """Pipeline the datapath so every stage fits in ``clock_period_ns``.

    Nodes are placed along the topological order by :func:`place_in_stage`.
    The number of pipeline registers is the number of DAG edges that cross
    a stage boundary — these registers are part of the register count that
    Equation 1 tracks.
    """
    if clock_period_ns <= 0:
        raise ValueError("clock period must be positive")
    library = library or default_library()

    stage_of: Dict[int, int] = {}
    slack_in_stage: Dict[int, float] = {}
    # ASAP finish times: the critical path is the latest of them
    finish: Dict[int, float] = {}
    pipeline_registers = 0

    for node in graph.topological_order():
        delay = _node_delay(node, graph, library)
        finish[node.node_id] = max((finish[i] for i in node.operands),
                                   default=0.0) + delay
        stage_of[node.node_id], slack_in_stage[node.node_id] = place_in_stage(
            ((stage_of[i], slack_in_stage[i]) for i in node.operands),
            delay, clock_period_ns)

    for node in graph.nodes():
        for operand in node.operands:
            crossing = stage_of[node.node_id] - stage_of[operand]
            if crossing > 0:
                pipeline_registers += crossing

    stages = max(stage_of.values(), default=0) + 1
    return Schedule(
        graph_name=graph.name,
        clock_period_ns=clock_period_ns,
        critical_path_ns=max(finish.values(), default=0.0),
        pipeline_stages=stages,
        latency_cycles=stages,
        initiation_interval=1,
        stage_of_node=stage_of,
        pipeline_register_count=pipeline_registers,
    )
