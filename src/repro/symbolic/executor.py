"""Single-iteration symbolic execution of a stencil kernel.

As observed in Section 3.2 of the paper, the dependencies between two
consecutive iterations are identical for every iteration index, so symbolic
execution only ever needs to run for *one* iteration: the resulting
expressions are the building block from which any ``f_{i+m} -> f_i`` relation
is assembled (see :mod:`repro.symbolic.cone_expression`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.utils.geometry import Offset
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
from repro.symbolic.expression import Expression, ExpressionBuilder, OpKind

#: Level tag used for read-only (iteration-invariant) fields.  Their values
#: come straight from the input frame no matter how deep the cone is.
READONLY_LEVEL = -1

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
    """Runs a kernel on symbols instead of values.

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

    # ------------------------------------------------------------------ #

    def execute_once(self, target: Offset = Offset(0, 0),
                     source_level: int = 0,
                     state_resolver=None) -> SymbolicFrame:
        """Symbolically execute one iteration for the element at ``target``.

        ``state_resolver`` optionally overrides how reads of state fields are
        resolved; it receives ``(field, component, absolute_offset)`` and must
        return an :class:`Expression`.  When omitted, reads become level-
        ``source_level`` symbols.  The cone builder uses the resolver hook to
        chain iterations recursively.
        """
        expressions: Dict[Tuple[str, int], Expression] = {}
        for update in self.kernel.updates:
            expr = self._convert(update.expr, target, source_level, state_resolver)
            expressions[(update.field_name, update.component)] = expr
        return SymbolicFrame(target=target, expressions=expressions)

    def convert(self, expr: KernelExpr,
                target: Offset = Offset(0, 0)) -> Expression:
        """One kernel expression for the element at ``target``, with state
        reads as level-0 symbols."""
        return self._convert(expr, target, 0, None)

    # ------------------------------------------------------------------ #

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
                return builder.symbol(expr.field_name, absolute, expr.component,
                                      level=source_level)
            return builder.symbol(expr.field_name, absolute, expr.component,
                                  level=READONLY_LEVEL)
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
            return builder.select(cond, if_true, if_false)
        raise TypeError(f"unsupported kernel expression node {type(expr).__name__}")
