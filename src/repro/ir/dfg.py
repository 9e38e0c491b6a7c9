"""Dataflow graph (DFG) of a cone datapath.

The DFG is the code generator's view of the cone: inputs are the level-0
window elements the cone reads from the previous level (or from on-chip
memory), constants are kernel coefficients, operation nodes are the
arithmetic units, and outputs are the elements of the cone's output window.
Characterization never lowers a cone; the synthesizer reads the shared cone
DAG directly, in the node order :func:`build_dfg_from_cone` gives the DFG.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.utils.geometry import Offset
from repro.symbolic.expression import (
    Constant,
    Expression,
    FieldSymbol,
    Operation,
    OpKind,
)
from repro.symbolic.cone_expression import ConeExpressions


class NodeKind(enum.Enum):
    INPUT = "input"
    CONST = "const"
    OP = "op"
    OUTPUT = "output"


@dataclass
class DfgNode:
    """One node of the dataflow graph."""

    node_id: int
    kind: NodeKind
    op_kind: Optional[OpKind] = None
    operands: Tuple[int, ...] = ()
    name: str = ""
    value: Optional[float] = None          # for CONST nodes
    #: For INPUT/OUTPUT nodes: the (field, component, offset, level) they carry.
    port: Optional[Tuple[str, int, Offset, int]] = None

    def has_constant_operand(self, graph: "DataflowGraph") -> bool:
        return any(graph.node(i).kind is NodeKind.CONST for i in self.operands)


class DataflowGraph:
    """A directed acyclic dataflow graph with stable integer node ids."""

    def __init__(self, name: str = "dfg") -> None:
        self.name = name
        self._nodes: Dict[int, DfgNode] = {}
        self._next_id = 0
        self._outputs: List[int] = []
        self._users: Dict[int, Set[int]] = {}
        #: :meth:`topological_order` until the next ``add_*``.
        self._order: Optional[List[DfgNode]] = None

    # ------------------------------------------------------------------ #
    # construction

    def _add(self, node: DfgNode) -> int:
        self._order = None
        self._nodes[node.node_id] = node
        self._users.setdefault(node.node_id, set())
        for operand in node.operands:
            self._users.setdefault(operand, set()).add(node.node_id)
        return node.node_id

    def add_input(self, name: str,
                  port: Optional[Tuple[str, int, Offset, int]] = None) -> int:
        node_id = self._next_id
        self._next_id += 1
        return self._add(DfgNode(node_id, NodeKind.INPUT, name=name, port=port))

    def add_const(self, value: float, name: str = "") -> int:
        node_id = self._next_id
        self._next_id += 1
        return self._add(DfgNode(node_id, NodeKind.CONST, value=float(value),
                                 name=name or f"c{node_id}"))

    def add_op(self, op_kind: OpKind, operands: Sequence[int], name: str = "") -> int:
        for operand in operands:
            if operand not in self._nodes:
                raise KeyError(f"operand node {operand} does not exist")
        node_id = self._next_id
        self._next_id += 1
        return self._add(DfgNode(node_id, NodeKind.OP, op_kind=op_kind,
                                 operands=tuple(operands),
                                 name=name or f"{op_kind.value}{node_id}"))

    def add_output(self, source: int, name: str,
                   port: Optional[Tuple[str, int, Offset, int]] = None) -> int:
        if source not in self._nodes:
            raise KeyError(f"source node {source} does not exist")
        node_id = self._next_id
        self._next_id += 1
        out = self._add(DfgNode(node_id, NodeKind.OUTPUT, operands=(source,),
                                name=name, port=port))
        self._outputs.append(node_id)
        return out

    # ------------------------------------------------------------------ #
    # accessors

    def node(self, node_id: int) -> DfgNode:
        return self._nodes[node_id]

    def nodes(self) -> List[DfgNode]:
        return list(self._nodes.values())

    def users_of(self, node_id: int) -> Set[int]:
        return set(self._users.get(node_id, set()))

    @property
    def output_ids(self) -> List[int]:
        return list(self._outputs)

    @property
    def input_nodes(self) -> List[DfgNode]:
        return [n for n in self._nodes.values() if n.kind is NodeKind.INPUT]

    @property
    def const_nodes(self) -> List[DfgNode]:
        return [n for n in self._nodes.values() if n.kind is NodeKind.CONST]

    @property
    def operation_nodes(self) -> List[DfgNode]:
        return [n for n in self._nodes.values() if n.kind is NodeKind.OP]

    @property
    def output_nodes(self) -> List[DfgNode]:
        return [self._nodes[i] for i in self._outputs]

    def operation_count(self) -> int:
        return len(self.operation_nodes)

    @property
    def register_count(self) -> int:
        """Registers needed with full data reuse: one per op node plus one per input."""
        return len(self.operation_nodes) + len(self.input_nodes)

    # ------------------------------------------------------------------ #
    # traversal

    def topological_order(self) -> List[DfgNode]:
        """Return nodes in dependency order (operands before users).

        The order is computed once per graph state; each call returns a new
        list of it.
        """
        if self._order is None:
            self._order = self._sort_topologically()
        return list(self._order)

    def _sort_topologically(self) -> List[DfgNode]:
        # count *distinct* operand nodes: a node used twice by the same user
        # (e.g. ``x * x``) still only gates that user once.
        in_degree: Dict[int, int] = {nid: len(set(n.operands))
                                     for nid, n in self._nodes.items()}
        ready = [nid for nid, deg in in_degree.items() if deg == 0]
        ready.sort()
        order: List[DfgNode] = []
        while ready:
            nid = ready.pop()
            order.append(self._nodes[nid])
            for user in sorted(self._users.get(nid, ())):
                in_degree[user] -= 1
                if in_degree[user] == 0:
                    ready.append(user)
        if len(order) != len(self._nodes):
            raise ValueError("dataflow graph contains a cycle")
        return order

    def validate(self) -> None:
        """Check structural invariants (acyclicity, operand existence, arity)."""
        self.topological_order()
        for node in self._nodes.values():
            if node.kind is NodeKind.OP:
                assert node.op_kind is not None
                if len(node.operands) != node.op_kind.arity:
                    raise ValueError(
                        f"node {node.name}: {node.op_kind.value} expects "
                        f"{node.op_kind.arity} operands, has {len(node.operands)}"
                    )
            if node.kind is NodeKind.OUTPUT and len(node.operands) != 1:
                raise ValueError(f"output node {node.name} must have one source")


# --------------------------------------------------------------------------- #
# lowering from cone expressions


def _port_name(field: str, component: int, offset: Offset, level: int) -> str:
    comp = f"_c{component}" if component else ""
    level_tag = "in" if level <= 0 else f"l{level}"
    sign = lambda v: f"p{v}" if v >= 0 else f"m{-v}"
    return f"{field}{comp}_{level_tag}_x{sign(offset.dx)}_y{sign(offset.dy)}"


def _lower(expr: Expression, cone: ConeExpressions, graph: DataflowGraph,
           mapping: Dict[int, int]) -> int:
    """DFG node of ``expr``, lowering its operands first, in the cone's
    order.  (A module function, not a closure: a self-referencing closure
    would keep the cone's DAG alive until the next garbage collection.)"""
    cached = mapping.get(expr.node_id)
    if cached is not None:
        return cached
    if isinstance(expr, FieldSymbol):
        node_id = graph.add_input(
            _port_name(expr.field, expr.component, expr.offset, expr.level),
            port=(expr.field, expr.component, expr.offset, expr.level))
    elif isinstance(expr, Constant):
        node_id = graph.add_const(expr.value)
    elif isinstance(expr, Operation):
        operand_ids = [_lower(op, cone, graph, mapping)
                       for op in cone.operands(expr)]
        node_id = graph.add_op(expr.kind, operand_ids)
    else:  # pragma: no cover - defensive
        raise TypeError(f"unsupported expression node {expr!r}")
    mapping[expr.node_id] = node_id
    return node_id


def build_dfg_from_cone(cone: ConeExpressions, name: str = "") -> DataflowGraph:
    """Lower the symbolic expression DAG of a cone into a dataflow graph.

    The lowering preserves sharing exactly: every distinct expression node
    becomes one DFG node, so the register reuse achieved by the symbolic layer
    carries over to the hardware view.  Outputs are lowered in the cone's
    port order (:meth:`ConeExpressions.ordered_outputs`) and operands in the
    cone's order (:meth:`ConeExpressions.operands`), which fixes the DFG
    node order.
    """
    graph = DataflowGraph(name or cone.name)
    mapping: Dict[int, int] = {}
    for (field, component, offset), expr in cone.ordered_outputs():
        source = _lower(expr, cone, graph, mapping)
        graph.add_output(
            source,
            name=_port_name(field, component, offset, cone.domain.depth) + "_out",
            port=(field, component, offset, cone.domain.depth))
    graph.validate()
    return graph
