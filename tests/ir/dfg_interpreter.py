"""A scalar interpreter of a lowered :class:`DataflowGraph`.

The test oracle for DFG lowering: it runs the graph codegen prints, node by
node in topological order, with the operator semantics constant folding
uses, so a lowered cone can be compared with its expression DAG.
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.ir.dfg import DataflowGraph, NodeKind
from repro.symbolic.expression import _fold_constant


def evaluate_dfg(graph: DataflowGraph,
                 input_values: Mapping[str, float]) -> Dict[str, float]:
    """Evaluate ``graph`` given a value for every input node name; returns
    the value of every output node by name."""
    values: Dict[int, float] = {}
    for node in graph.topological_order():
        if node.kind is NodeKind.INPUT:
            if node.name not in input_values:
                raise KeyError(f"missing value for input {node.name!r}")
            values[node.node_id] = float(input_values[node.name])
        elif node.kind is NodeKind.CONST:
            values[node.node_id] = float(node.value)
        elif node.kind is NodeKind.OP:
            values[node.node_id] = _fold_constant(
                node.op_kind, [values[i] for i in node.operands])
        else:  # OUTPUT
            values[node.node_id] = values[node.operands[0]]
    return {node.name: values[node.node_id] for node in graph.output_nodes}
