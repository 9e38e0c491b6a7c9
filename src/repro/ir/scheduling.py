"""Scheduling of cone datapaths.

The throughput estimation of Section 3.3 of the paper "follows the
traditional approach, i.e., summing the delays of the operations included in
each cone" — that is the ASAP critical path computed here.  The pipeline
schedule additionally chops the combinational path into stages that fit the
target clock period, giving the core latency (in cycles) and the initiation
interval of the cone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.ir.dfg import DataflowGraph, DfgNode, NodeKind
from repro.ir.operators import OperatorLibrary, default_library


@dataclass
class Schedule:
    """Result of scheduling a DFG against a clock period."""

    graph_name: str
    clock_period_ns: float
    critical_path_ns: float
    pipeline_stages: int
    latency_cycles: int
    initiation_interval: int
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


def _node_delay(node: DfgNode, graph: DataflowGraph,
                library: OperatorLibrary) -> float:
    if node.kind is not NodeKind.OP:
        return 0.0
    assert node.op_kind is not None
    constant = node.has_constant_operand(graph)
    return library.spec_for(node.op_kind, constant_operand=constant).delay_ns


def asap_schedule(graph: DataflowGraph,
                  library: Optional[OperatorLibrary] = None) -> Dict[int, float]:
    """Earliest finish time (ns) of every node assuming unlimited resources."""
    library = library or default_library()
    finish: Dict[int, float] = {}
    for node in graph.topological_order():
        start = max((finish[i] for i in node.operands), default=0.0)
        finish[node.node_id] = start + _node_delay(node, graph, library)
    return finish


def alap_schedule(graph: DataflowGraph,
                  library: Optional[OperatorLibrary] = None) -> Dict[int, float]:
    """Latest start time (ns) of every node for the ASAP-determined length."""
    library = library or default_library()
    finish = asap_schedule(graph, library)
    total = max(finish.values(), default=0.0)
    latest: Dict[int, float] = {}
    for node in reversed(graph.topological_order()):
        user_starts = [latest[u] for u in graph.users_of(node.node_id) if u in latest]
        end = min(user_starts, default=total)
        latest[node.node_id] = end - _node_delay(node, graph, library)
    return latest


def critical_path_ns(graph: DataflowGraph,
                     library: Optional[OperatorLibrary] = None) -> float:
    """Total combinational delay from any input to any output."""
    finish = asap_schedule(graph, library)
    return max(finish.values(), default=0.0)


def pipeline_schedule(graph: DataflowGraph,
                      clock_period_ns: float,
                      library: Optional[OperatorLibrary] = None) -> Schedule:
    """Pipeline the datapath so every stage fits in ``clock_period_ns``.

    Operations are assigned to stages greedily along the ASAP order: a node
    goes to the earliest stage that is no earlier than any of its operands'
    stages and whose accumulated combinational delay stays within the clock
    period.  The number of pipeline registers is the number of DAG edges that
    cross a stage boundary — these registers are part of the register count
    that Equation 1 tracks.
    """
    if clock_period_ns <= 0:
        raise ValueError("clock period must be positive")
    library = library or default_library()

    stage_of: Dict[int, int] = {}
    slack_in_stage: Dict[int, float] = {}
    # the ASAP finish times of asap_schedule, computed in the same pass
    finish: Dict[int, float] = {}
    pipeline_registers = 0

    for node in graph.topological_order():
        delay = _node_delay(node, graph, library)
        finish[node.node_id] = max((finish[i] for i in node.operands),
                                   default=0.0) + delay
        if not node.operands:
            stage_of[node.node_id] = 0
            slack_in_stage[node.node_id] = delay
            continue
        operand_stage = max(stage_of[i] for i in node.operands)
        accumulated = max(
            (slack_in_stage[i] for i in node.operands
             if stage_of[i] == operand_stage),
            default=0.0,
        )
        if delay > clock_period_ns:
            # a single operator longer than the clock period occupies several
            # stages on its own (it is internally pipelined by the backend)
            extra = math.ceil(delay / clock_period_ns)
            stage = operand_stage + extra
            accumulated = delay - (extra - 1) * clock_period_ns
        elif accumulated + delay <= clock_period_ns:
            stage = operand_stage
            accumulated = accumulated + delay
        else:
            stage = operand_stage + 1
            accumulated = delay
        stage_of[node.node_id] = stage
        slack_in_stage[node.node_id] = accumulated

    for node in graph.nodes():
        for operand in node.operands:
            crossing = stage_of[node.node_id] - stage_of[operand]
            if crossing > 0:
                pipeline_registers += crossing

    stages = max(stage_of.values(), default=0) + 1
    cp = max(finish.values(), default=0.0)  # == critical_path_ns(graph)
    return Schedule(
        graph_name=graph.name,
        clock_period_ns=clock_period_ns,
        critical_path_ns=cp,
        pipeline_stages=stages,
        latency_cycles=stages,
        initiation_interval=1,
        stage_of_node=stage_of,
        pipeline_register_count=pipeline_registers,
    )
