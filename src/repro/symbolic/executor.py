"""The kernel's one-iteration step, lowered once.

As observed in Section 3.2 of the paper, the dependencies between two
consecutive iterations are identical for every iteration index and every
element, so symbolic execution only ever needs to run for *one* iteration:
the resulting expressions are the building block from which any
``f_{i+m} -> f_i`` relation is assembled (see
:mod:`repro.symbolic.cone_expression`).

:class:`KernelStep` takes the observation literally.  It lowers the
kernel's updates once, for one set of params, into a flat post-order list
of instructions, and every element a cone expands runs that list at its
spot:

* a read becomes ``(state or read-only, field, component, dx, dy)``;
* a param becomes its float value (a missing one is a :class:`KeyError`
  naming it, at lowering time), a literal its value;
* an operator becomes its :class:`OpKind`, the kind's ``.value``, its
  commutativity and the positions of its operands in the list;
* ``NEG`` becomes its operand, then the constant ``0.0``, then
  ``SUB(0, x)``; a ``Select`` lowers its condition, then the true and the
  false value.

**Constant faults.**  The builder folds constants, so an operand can fold
to a constant no cone can be built with: a divisor to zero, or a square
root's operand to a negative constant.  A run that meets one raises
:class:`ConstantFoldError`, naming the operand (:class:`ConstantFault`)
and the iteration whose step folded it.  With field reads as symbols the
fault shows at iteration 1; one that needs an earlier iteration to fold a
state field to a constant first shows only deeper in a cone.

**The same-calls contract.**  Running the step at a spot makes exactly the
builder calls (:meth:`~ExpressionBuilder.intern_symbol`,
:meth:`~ExpressionBuilder.constant` and
:meth:`~ExpressionBuilder.intern_operation`), and exactly the lower-level
element requests, that a recursive walk of the kernel's expression trees
makes there, in the same order: operands left to right, updates in kernel
order.  Nothing is folded at lowering time.  Folding a constant-only
subtree would skip the creation of the constants inside it; one of them
can be a reachable operand elsewhere, and skipping it moves its node id
and so the operand order of a commutative operation.  Constant folding
stays in the builder, at run time, so node ids, the builder's records and
every cone come out as the walk makes them.  The walk itself is the test
oracle of this module (``tests/symbolic/executor_oracle.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Mapping, Optional, Tuple

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
from repro.symbolic.expression import (
    COMMUTATIVE,
    Expression,
    ExpressionBuilder,
    OpKind,
)

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

# Instruction codes, the first slot of every instruction.  The other
# slots: field, component, dx, dy (reads); value (constants); kind, kind
# value, commutativity, then operand positions (operations).
STATE, READONLY, CONSTANT, UNARY, BINARY, TERNARY = range(6)

Instruction = Tuple
#: ``element(field, component, dx, dy, level)``: how a state read resolves.
ElementResolver = Callable[[str, int, int, int, int], Expression]


@dataclass(frozen=True)
class ConstantFault:
    """An operand of the kernel that folds to a constant no cone can be
    built with: a divisor that folds to zero (``kind`` is ``DIV``) or the
    operand of a square root that folds to a negative constant
    (``SQRT``)."""

    kind: OpKind
    operand: KernelExpr
    value: float

    def __str__(self) -> str:
        if self.kind is OpKind.DIV:
            return (f"divides by {self.operand}, which folds to the "
                    f"constant zero")
        return (f"takes the square root of {self.operand}, which folds to "
                f"the negative constant {self.value!r}")


class ConstantFoldError(ArithmeticError):
    """A run of the step folded an operand to a :class:`ConstantFault`.

    ``iteration`` is the level the failing run computed (1 when its state
    reads are the input symbols); ``cone`` is the ``(window side, depth)``
    of the cone being built, when the run was part of one.
    """

    def __init__(self, fault: ConstantFault, iteration: int,
                 cone: Optional[Tuple[int, int]] = None) -> None:
        super().__init__(fault, iteration, cone)
        self.fault = fault
        self.iteration = iteration
        self.cone = cone

    def __str__(self) -> str:
        where = f"iteration {self.iteration}"
        if self.cone is not None:
            where = (f"cone (window {self.cone[0]}, depth {self.cone[1]}), "
                     f"{where}")
        return f"{where} {self.fault}"


class KernelStep:
    """A kernel's updates lowered once into a flat post-order instruction
    list (see the module docstring); an instance is immutable.

    ``outputs`` lists the ``(field, component)`` of each update, in kernel
    order; ``sources`` holds, per instruction, the kernel expression whose
    value it computes.
    """

    def __init__(self, kernel: StencilKernel,
                 params: Optional[Mapping[str, float]] = None) -> None:
        merged = dict(kernel.params)
        if params:
            merged.update(params)
        self._params = merged
        self._state_fields = frozenset(kernel.state_field_names)
        self.code: List[Instruction] = []
        self.sources: List[KernelExpr] = []
        self.outputs: Tuple[Tuple[str, int], ...] = tuple(
            (update.field_name, update.component)
            for update in kernel.updates)
        self.roots: Tuple[int, ...] = tuple(
            self._lower(update.expr) for update in kernel.updates)

    def _emit(self, instruction: Instruction, source: KernelExpr) -> int:
        self.code.append(instruction)
        self.sources.append(source)
        return len(self.code) - 1

    def _operation(self, kind: OpKind, operands: Tuple[int, ...],
                   source: KernelExpr) -> int:
        code = (UNARY, BINARY, TERNARY)[len(operands) - 1]
        return self._emit((code, kind, kind.value, kind in COMMUTATIVE)
                          + operands, source)

    def _lower(self, expr: KernelExpr) -> int:
        """Append the instructions of ``expr`` in post-order; return the
        position of the one that yields its value."""
        if isinstance(expr, Literal):
            return self._emit((CONSTANT, expr.value), expr)
        if isinstance(expr, ParamRef):
            if expr.name not in self._params:
                raise KeyError(f"no value supplied for parameter {expr.name!r}")
            return self._emit((CONSTANT, float(self._params[expr.name])), expr)
        if isinstance(expr, FieldRead):
            code = STATE if expr.field_name in self._state_fields else READONLY
            return self._emit((code, expr.field_name, expr.component,
                               expr.offset.dx, expr.offset.dy), expr)
        if isinstance(expr, BinaryOp):
            left = self._lower(expr.left)
            right = self._lower(expr.right)
            return self._operation(_BIN_TO_OP[expr.kind], (left, right), expr)
        if isinstance(expr, UnaryOp):
            operand = self._lower(expr.operand)
            if expr.kind is UnOpKind.NEG:
                zero = self._emit((CONSTANT, 0.0), Literal(0.0))
                return self._operation(OpKind.SUB, (zero, operand), expr)
            return self._operation(_UN_TO_OP[expr.kind], (operand,), expr)
        if isinstance(expr, Select):
            operands = (self._lower(expr.cond), self._lower(expr.if_true),
                        self._lower(expr.if_false))
            return self._operation(OpKind.SELECT, operands, expr)
        raise TypeError(f"unsupported kernel expression node {type(expr).__name__}")

    # ------------------------------------------------------------------ #

    def run(self, builder: ExpressionBuilder, dx: int, dy: int,
            source_level: int, element: ElementResolver) -> List[Expression]:
        """Run the step for the element at ``(dx, dy)`` on ``builder``.

        A state read at offset ``(rx, ry)`` becomes ``element(field,
        component, dx + rx, dy + ry, source_level)``; a read-only read the
        symbol at ``READONLY_LEVEL``.  Returns the value of every update,
        in :attr:`outputs` order.  Raises :class:`ConstantFoldError` when
        the builder folds a divisor to zero or a square root's operand to
        a negative constant.
        """
        values: List[Expression] = []
        push = values.append
        constant = builder.constant
        operation = builder.intern_operation
        symbol = builder.intern_symbol
        try:
            for instruction in self.code:
                code = instruction[0]
                if code == BINARY:
                    _, kind, kind_value, commutative, a, b = instruction
                    push(operation(kind, kind_value, commutative,
                                   (values[a], values[b])))
                elif code == STATE:
                    _, name, component, rx, ry = instruction
                    push(element(name, component, dx + rx, dy + ry,
                                 source_level))
                elif code == CONSTANT:
                    push(constant(instruction[1]))
                elif code == READONLY:
                    _, name, component, rx, ry = instruction
                    push(symbol(name, component, dx + rx, dy + ry,
                                READONLY_LEVEL))
                elif code == UNARY:
                    _, kind, kind_value, commutative, a = instruction
                    push(operation(kind, kind_value, commutative,
                                   (values[a],)))
                else:
                    _, kind, kind_value, commutative, a, b, c = instruction
                    push(operation(kind, kind_value, commutative,
                                   (values[a], values[b], values[c])))
        except (ZeroDivisionError, ValueError) as error:
            # values holds one entry per instruction that finished, so the
            # failing one is next; its last operand is a DIV's divisor or
            # a SQRT's operand
            failed = self.code[len(values)]
            kind, operand = failed[1], failed[-1]
            if kind is not OpKind.DIV and kind is not OpKind.SQRT:
                raise
            raise ConstantFoldError(
                ConstantFault(kind, self.sources[operand],
                              values[operand].value),
                source_level + 1) from error
        return [values[root] for root in self.roots]
