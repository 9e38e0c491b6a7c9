"""The recursive kernel interpreter: the differential oracle of the lowered
step.

:class:`SymbolicExecutor` walks the kernel's expression trees for one
element and makes the builder calls as it meets the nodes: operands left to
right, ``NEG`` as its operand, then ``constant(0.0)``, then ``SUB(0, x)``.
Production lowers those trees once (:class:`repro.symbolic.executor.
KernelStep`) and must make exactly the same calls.
:func:`interpreted_cone_builder` is a production cone builder whose
expansions run this walk instead of the step; the tests drive it and a
production builder through one build order and hold every interned node,
record and memo entry of the two to each other (:func:`cone_builder_state`).
``fresh_cone_oracle`` builds its cones with the walk too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.frontend.kernel_ir import (
    BinOpKind,
    BinaryOp,
    FieldRead,
    KernelExpr,
    Literal,
    ParamRef,
    Select,
    StencilKernel,
    UnOpKind,
    UnaryOp,
)
from repro.symbolic.cone_expression import ConeExpressionBuilder
from repro.symbolic.executor import READONLY_LEVEL
from repro.symbolic.expression import Expression, ExpressionBuilder, OpKind
from repro.utils.geometry import Offset

_BIN_TO_OP = {
    BinOpKind.ADD: OpKind.ADD,
    BinOpKind.SUB: OpKind.SUB,
    BinOpKind.MUL: OpKind.MUL,
    BinOpKind.DIV: OpKind.DIV,
    BinOpKind.MIN: OpKind.MIN,
    BinOpKind.MAX: OpKind.MAX,
    BinOpKind.LT: OpKind.CMP_LT,
    BinOpKind.LE: OpKind.CMP_LE,
    BinOpKind.GT: OpKind.CMP_GT,
    BinOpKind.GE: OpKind.CMP_GE,
    BinOpKind.EQ: OpKind.CMP_EQ,
}

_UN_TO_OP = {
    UnOpKind.ABS: OpKind.ABS,
    UnOpKind.SQRT: OpKind.SQRT,
}


@dataclass
class SymbolicFrame:
    """The result of symbolically executing one iteration for one element.

    ``expressions`` maps ``(field, component)`` to the expression of that
    component of the target element at iteration ``i+1`` in terms of level-0
    symbols (elements of iteration ``i`` and of read-only input fields).
    """

    target: Offset
    expressions: Dict[Tuple[str, int], Expression]

    def expression(self, field: str, component: int = 0) -> Expression:
        return self.expressions[(field, component)]


class SymbolicExecutor:
    """Runs a kernel on symbols instead of values, by walking its trees.

    A single executor instance owns (or shares) an :class:`ExpressionBuilder`;
    all expressions produced through the same builder share sub-expressions,
    which is what keeps the symbol count polynomial.
    """

    def __init__(self, kernel: StencilKernel,
                 builder: Optional[ExpressionBuilder] = None,
                 params: Optional[Mapping[str, float]] = None) -> None:
        self.kernel = kernel
        self.builder = builder if builder is not None else ExpressionBuilder()
        merged = dict(kernel.params)
        if params:
            merged.update(params)
        self.params = merged
        self._state_fields = set(kernel.state_field_names)

    def execute_once(self, target: Offset = Offset(0, 0),
                     source_level: int = 0,
                     state_resolver=None) -> SymbolicFrame:
        """Symbolically execute one iteration for the element at ``target``.

        ``state_resolver`` optionally overrides how reads of state fields are
        resolved; it receives ``(field, component, absolute_offset)`` and must
        return an :class:`Expression`.  When omitted, reads become level-
        ``source_level`` symbols.  The fresh cone oracle uses the resolver
        hook to chain iterations recursively.
        """
        expressions: Dict[Tuple[str, int], Expression] = {}
        for update in self.kernel.updates:
            expr = self._convert(update.expr, target, source_level, state_resolver)
            expressions[(update.field_name, update.component)] = expr
        return SymbolicFrame(target=target, expressions=expressions)

    def _convert(self, expr: KernelExpr, target: Offset, source_level: int,
                 state_resolver) -> Expression:
        builder = self.builder
        if isinstance(expr, Literal):
            return builder.constant(expr.value)
        if isinstance(expr, ParamRef):
            if expr.name not in self.params:
                raise KeyError(f"no value supplied for parameter {expr.name!r}")
            return builder.constant(self.params[expr.name])
        if isinstance(expr, FieldRead):
            absolute = target + expr.offset
            if expr.field_name in self._state_fields:
                if state_resolver is not None:
                    return state_resolver(expr.field_name, expr.component, absolute)
                return builder.intern_symbol(expr.field_name, expr.component,
                                             absolute.dx, absolute.dy,
                                             source_level)
            return builder.intern_symbol(expr.field_name, expr.component,
                                         absolute.dx, absolute.dy,
                                         READONLY_LEVEL)
        if isinstance(expr, BinaryOp):
            left = self._convert(expr.left, target, source_level, state_resolver)
            right = self._convert(expr.right, target, source_level, state_resolver)
            return builder.operation(_BIN_TO_OP[expr.kind], left, right)
        if isinstance(expr, UnaryOp):
            operand = self._convert(expr.operand, target, source_level, state_resolver)
            if expr.kind is UnOpKind.NEG:
                return builder.operation(OpKind.SUB, builder.constant(0.0), operand)
            return builder.operation(_UN_TO_OP[expr.kind], operand)
        if isinstance(expr, Select):
            cond = self._convert(expr.cond, target, source_level, state_resolver)
            if_true = self._convert(expr.if_true, target, source_level, state_resolver)
            if_false = self._convert(expr.if_false, target, source_level, state_resolver)
            return builder.operation(OpKind.SELECT, cond, if_true, if_false)
        raise TypeError(f"unsupported kernel expression node {type(expr).__name__}")


def interpreted_cone_builder(kernel: StencilKernel,
                             params: Optional[Mapping[str, float]] = None
                             ) -> ConeExpressionBuilder:
    """A :class:`ConeExpressionBuilder` whose every expansion walks the
    kernel's trees with :class:`SymbolicExecutor` on the cone builder's own
    expression builder, instead of running the lowered step."""
    cone_builder = ConeExpressionBuilder(kernel, params)
    executor = SymbolicExecutor(kernel, cone_builder._builder, params)
    outputs = [(update.field_name, update.component)
               for update in kernel.updates]

    def expand(dx: int, dy: int, level: int) -> List[Expression]:
        def resolver(field: str, component: int,
                     offset: Offset) -> Expression:
            return cone_builder._element(field, component, offset.dx,
                                         offset.dy, level - 1)

        frame = executor.execute_once(Offset(dx, dy), level - 1, resolver)
        return [frame.expressions[key] for key in outputs]

    cone_builder._expand = expand
    return cone_builder


def interned_nodes(builder: ExpressionBuilder) -> List[Tuple]:
    """Every node ``builder`` interned, in id order: its id, then its
    symbol key, its constant value (as ``float.hex``, so ``-0.0`` and NaN
    compare exactly), or its kind and operand ids."""
    nodes: List[Tuple] = []
    for node in builder._symbols.values():
        nodes.append((node.node_id, "symbol", node.field, node.component,
                      node.offset.dx, node.offset.dy, node.level))
    for node in builder._constants.values():
        nodes.append((node.node_id, "constant", node.value.hex()))
    for node in builder._operations.values():
        nodes.append((node.node_id, node.kind.value)
                     + tuple(operand.node_id for operand in node.operands))
    nodes.sort(key=lambda row: row[0])
    assert [row[0] for row in nodes] == list(range(len(nodes)))
    return nodes


def cone_builder_state(cone_builder: ConeExpressionBuilder
                       ) -> Dict[str, object]:
    """What a cone builder's expansions left behind: its interned nodes,
    its expansion records and markers, and the node id of every memo
    entry."""
    return {
        "nodes": interned_nodes(cone_builder._builder),
        "records": dict(cone_builder._records),
        "markers": dict(cone_builder._markers),
        "memo": {key: expr.node_id
                 for key, expr in cone_builder._memo.items()},
    }
