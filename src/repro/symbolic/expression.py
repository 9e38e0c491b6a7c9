"""Hash-consed symbolic expression DAG.

Every expression node is interned in a per-builder table keyed by its
structure, so two structurally identical sub-expressions are represented by
the *same* object.  This is the data structure that makes the paper's
register-reuse observation concrete: the number of distinct nodes in the DAG
built for a cone is exactly the number of registers the generated VHDL needs,
and it grows polynomially with the cone size instead of exponentially.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from repro.utils.geometry import Offset


class OpKind(enum.Enum):
    """Arithmetic / logic operators supported by the stencil IR."""

    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    MIN = "min"
    MAX = "max"
    ABS = "abs"
    NEG = "neg"
    SQRT = "sqrt"
    CMP_LT = "cmp_lt"
    CMP_LE = "cmp_le"
    CMP_GT = "cmp_gt"
    CMP_GE = "cmp_ge"
    CMP_EQ = "cmp_eq"
    SELECT = "select"  # SELECT(cond, a, b) -> a if cond else b

    @property
    def arity(self) -> int:
        return ARITY[self]

    @property
    def is_comparison(self) -> bool:
        return self in (OpKind.CMP_LT, OpKind.CMP_LE, OpKind.CMP_GT,
                        OpKind.CMP_GE, OpKind.CMP_EQ)


#: Operands each operator takes.
ARITY: Dict[OpKind, int] = {
    kind: (1 if kind in (OpKind.ABS, OpKind.NEG, OpKind.SQRT)
           else 3 if kind is OpKind.SELECT else 2)
    for kind in OpKind}
#: The operators whose operands the builder orders by node id.
COMMUTATIVE: FrozenSet[OpKind] = frozenset((
    OpKind.ADD, OpKind.MUL, OpKind.MIN, OpKind.MAX, OpKind.CMP_EQ))


class Expression:
    """Base class of all DAG nodes.  Nodes are immutable once built."""

    __slots__ = ("_id", "_depth")

    def __init__(self, node_id: int, depth: int) -> None:
        self._id = node_id
        self._depth = depth

    @property
    def node_id(self) -> int:
        """A builder-unique integer identifying this interned node."""
        return self._id

    @property
    def depth(self) -> int:
        """Height of the expression tree rooted at this node (leaves = 0)."""
        return self._depth

    def children(self) -> Tuple["Expression", ...]:
        return ()

    def __hash__(self) -> int:  # identity hashing: nodes are interned
        return id(self)

    def __eq__(self, other: object) -> bool:
        return self is other


class FieldSymbol(Expression):
    """A leaf symbol: element ``field[component]`` at ``offset`` of a source frame.

    The ``level`` tag records which iteration level of a cone the symbol lives
    at; symbols created by the single-iteration symbolic execution always have
    ``level == 0``.
    """

    __slots__ = ("field", "component", "offset", "level")

    def __init__(self, node_id: int, field_name: str, component: int,
                 offset: Offset, level: int = 0) -> None:
        super().__init__(node_id, 0)
        self.field = field_name
        self.component = component
        self.offset = offset
        self.level = level

    def __repr__(self) -> str:
        comp = f".{self.component}" if self.component else ""
        return f"{self.field}{comp}[{self.offset.dx:+d},{self.offset.dy:+d}]@L{self.level}"


class Constant(Expression):
    """A numeric literal (kernel coefficient, algorithm parameter)."""

    __slots__ = ("value",)

    def __init__(self, node_id: int, value: float) -> None:
        super().__init__(node_id, 0)
        self.value = value

    def __repr__(self) -> str:
        return f"const({self.value!r})"


class Operation(Expression):
    """An operator node applied to interned operand nodes."""

    __slots__ = ("kind", "operands")

    def __init__(self, node_id: int, kind: OpKind,
                 operands: Tuple[Expression, ...]) -> None:
        depth = 1 + max([op._depth for op in operands])
        super().__init__(node_id, depth)
        self.kind = kind
        self.operands = operands

    def children(self) -> Tuple[Expression, ...]:
        return self.operands

    def __repr__(self) -> str:
        inner = ", ".join(repr(o) for o in self.operands)
        return f"{self.kind.value}({inner})"


# Structural key types used by the interning tables.
_SymKey = Tuple[str, int, int, int, int]  # field, component, dx, dy, level
_OpKey = Tuple  # kind value, then the operand ids

_ADD, _SUB, _MUL, _DIV = OpKind.ADD, OpKind.SUB, OpKind.MUL, OpKind.DIV
_MIN, _MAX, _SELECT = OpKind.MIN, OpKind.MAX, OpKind.SELECT


class ExpressionBuilder:
    """Factory that interns every node it creates (hash-consing).

    All expressions that take part in the same cone must be created through a
    single builder so that structurally identical sub-expressions collapse to
    one node — this is what the paper calls *register reuse*.

    The builder also applies a small set of algebraic simplifications
    (x*0, x*1, x+0, x-x, ...) that a VHDL generator would perform anyway and
    that keep the register counts meaningful.

    Each kind of node has one public constructor: :meth:`intern_symbol` (a
    field read at integer offsets), :meth:`constant`, and :meth:`operation`
    (any :class:`OpKind`, arity-checked).  :meth:`operation` delegates to
    :meth:`intern_operation`, which the lowered kernel step
    (:mod:`repro.symbolic.executor`) calls directly, with each operator's
    kind value and commutativity worked out once at lowering time.

    While ``record`` is a list, every :meth:`intern_symbol`,
    :meth:`constant` and :meth:`intern_operation` call appends the id of
    the node it yields, unless the call simplifies to one of its own
    operands.  That is every node a call may create, in call order; the
    cone builder replays these logs (see
    :mod:`repro.symbolic.cone_expression`).
    """

    def __init__(self, simplify: bool = True) -> None:
        self._simplify = simplify
        self._symbols: Dict[_SymKey, FieldSymbol] = {}
        self._constants: Dict[float, Constant] = {}
        self._operations: Dict[_OpKey, Operation] = {}
        self._next_id = 0
        self.record: Optional[List[int]] = None

    # ------------------------------------------------------------------ #
    # node constructors

    def intern_symbol(self, field_name: str, component: int, dx: int,
                      dy: int, level: int) -> FieldSymbol:
        """The symbol of ``field_name[component]`` at offset ``(dx, dy)``
        of iteration ``level``; an :class:`Offset` is made only for a new
        symbol."""
        key = (field_name, component, dx, dy, level)
        node = self._symbols.get(key)
        if node is None:
            node = FieldSymbol(self._next_id, field_name, component,
                               Offset(dx, dy), level)
            self._next_id += 1
            self._symbols[key] = node
        record = self.record
        if record is not None:
            record.append(node._id)
        return node

    def constant(self, value: float) -> Constant:
        value = float(value)
        node = self._constants.get(value)
        if node is None:
            node = Constant(self._next_id, value)
            self._next_id += 1
            self._constants[value] = node
        record = self.record
        if record is not None:
            record.append(node._id)
        return node

    def operation(self, kind: OpKind, *operands: Expression) -> Expression:
        if len(operands) != ARITY[kind]:
            raise ValueError(
                f"{kind.value} expects {ARITY[kind]} operands, "
                f"got {len(operands)}"
            )
        return self.intern_operation(kind, kind.value, kind in COMMUTATIVE,
                                     operands)

    def intern_operation(self, kind: OpKind, kind_value: str,
                         commutative: bool,
                         operands: Tuple[Expression, ...]) -> Expression:
        """The one core every operation goes through: simplify, order the
        operands of a commutative ``kind`` by node id, intern, record.

        ``kind_value`` and ``commutative`` are ``kind.value`` and whether
        ``kind`` is in :data:`COMMUTATIVE`; ``operands`` must number
        ``ARITY[kind]`` (:meth:`operation` checks it).

        The simplifications (when the builder simplifies) are constant
        folding of an operation over constants only, and the identities
        ``x + 0``, ``x - 0``, ``x - x``, ``x * 0``, ``x * 1``, ``x / 1``,
        ``0 / x``, ``min(x, x)``, ``max(x, x)``, ``select(c, x, x)`` and a
        select on a constant condition.  A division by the constant zero
        raises :class:`ZeroDivisionError`.  A simplified call returns an
        (already interned) operand, or the folded constant, which it
        records.
        """
        if len(operands) == 2:
            a, b = operands
            if self._simplify:
                a_constant = a.__class__ is Constant
                b_constant = b.__class__ is Constant
                if a_constant and b_constant:
                    return self.constant(
                        _fold_constant(kind, (a.value, b.value)))
                if kind is _ADD:
                    if a_constant and a.value == 0.0:
                        return b
                    if b_constant and b.value == 0.0:
                        return a
                elif kind is _SUB:
                    if b_constant and b.value == 0.0:
                        return a
                    if a is b:
                        return self.constant(0.0)
                elif kind is _MUL:
                    if a_constant:
                        if a.value == 0.0:
                            return self.constant(0.0)
                        if a.value == 1.0:
                            return b
                    if b_constant:
                        if b.value == 0.0:
                            return self.constant(0.0)
                        if b.value == 1.0:
                            return a
                elif kind is _DIV:
                    if b_constant:
                        if b.value == 1.0:
                            return a
                        if b.value == 0.0:
                            raise ZeroDivisionError(
                                "division by constant zero in kernel")
                    if a_constant and a.value == 0.0:
                        return self.constant(0.0)
                elif kind is _MIN or kind is _MAX:
                    if a is b:
                        return a
            if commutative and b._id < a._id:
                operands = (b, a)
                key = (kind_value, b._id, a._id)
            else:
                key = (kind_value, a._id, b._id)
        else:
            if self._simplify:
                if all([o.__class__ is Constant for o in operands]):
                    return self.constant(_fold_constant(
                        kind, [o.value for o in operands]))
                if kind is _SELECT:
                    cond, a, b = operands
                    if cond.__class__ is Constant:
                        return a if cond.value != 0.0 else b
                    if a is b:
                        return a
            key = (kind_value,) + tuple([o._id for o in operands])
        node = self._operations.get(key)
        if node is None:
            node = Operation(self._next_id, kind, operands)
            self._next_id += 1
            self._operations[key] = node
        record = self.record
        if record is not None:
            record.append(node._id)
        return node

    # ------------------------------------------------------------------ #
    # statistics

    @property
    def interned_node_count(self) -> int:
        """Total number of distinct nodes created so far."""
        return len(self._symbols) + len(self._constants) + len(self._operations)

    @property
    def interned_operation_count(self) -> int:
        return len(self._operations)

    @property
    def interned_symbol_count(self) -> int:
        return len(self._symbols)


def _fold_constant(kind: OpKind, values: Sequence[float]) -> float:
    """Evaluate an operator on constant operands."""
    if kind is OpKind.ADD:
        return values[0] + values[1]
    if kind is OpKind.SUB:
        return values[0] - values[1]
    if kind is OpKind.MUL:
        return values[0] * values[1]
    if kind is OpKind.DIV:
        return values[0] / values[1]
    if kind is OpKind.MIN:
        return min(values[0], values[1])
    if kind is OpKind.MAX:
        return max(values[0], values[1])
    if kind is OpKind.ABS:
        return abs(values[0])
    if kind is OpKind.NEG:
        return -values[0]
    if kind is OpKind.SQRT:
        return math.sqrt(values[0])
    if kind is OpKind.CMP_LT:
        return 1.0 if values[0] < values[1] else 0.0
    if kind is OpKind.CMP_LE:
        return 1.0 if values[0] <= values[1] else 0.0
    if kind is OpKind.CMP_GT:
        return 1.0 if values[0] > values[1] else 0.0
    if kind is OpKind.CMP_GE:
        return 1.0 if values[0] >= values[1] else 0.0
    if kind is OpKind.CMP_EQ:
        return 1.0 if values[0] == values[1] else 0.0
    if kind is OpKind.SELECT:
        return values[1] if values[0] != 0.0 else values[2]
    raise ValueError(f"unknown operator {kind!r}")


# ---------------------------------------------------------------------- #
# DAG traversal helpers


def evaluate(root: Expression,
             bindings: Mapping[Tuple[str, int, int, int, int], float],
             cache: Optional[Dict[int, float]] = None) -> float:
    """Numerically evaluate an expression.

    ``bindings`` maps ``(field, component, dx, dy, level)`` to a value.  Used
    by the functional cone simulator and by tests that cross-check symbolic
    execution against direct software execution of the kernel.
    """
    if cache is None:
        cache = {}

    def visit(node: Expression) -> float:
        cached = cache.get(id(node))
        if cached is not None:
            return cached
        if isinstance(node, Constant):
            value = node.value
        elif isinstance(node, FieldSymbol):
            key = (node.field, node.component, node.offset.dx, node.offset.dy,
                   node.level)
            if key not in bindings:
                raise KeyError(f"no binding for symbol {node!r}")
            value = bindings[key]
        elif isinstance(node, Operation):
            if node.kind is OpKind.SELECT:
                # short-circuit: the unselected branch is hardware don't-care,
                # so numeric evaluation must not fault on it (e.g. sqrt of a
                # negative value on the not-taken path).
                condition = visit(node.operands[0])
                value = visit(node.operands[1] if condition != 0.0
                              else node.operands[2])
            else:
                operand_values = [visit(op) for op in node.operands]
                value = _fold_constant(node.kind, operand_values)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown expression node {node!r}")
        cache[id(node)] = value
        return value

    return visit(root)


def evaluate_array(root: Expression,
                   bindings: Mapping[Tuple[str, int, int, int, int], "object"],
                   cache: Optional[Dict[int, "object"]] = None) -> "object":
    """Vectorized twin of :func:`evaluate` over NumPy array bindings.

    ``bindings`` maps ``(field, component, dx, dy, level)`` to arrays of one
    common shape (one element per evaluation site); the return value has the
    same shape.  Every element of the result is bit-identical to what
    :func:`evaluate` produces from the corresponding scalar bindings: both
    paths use correctly rounded IEEE float64 primitives, comparisons encode
    to the same 1.0/0.0, and SELECT — which the scalar evaluator
    short-circuits — is merged elementwise with ``np.where`` after
    evaluating *both* branches (float faults on not-taken lanes, e.g. sqrt
    of a negative, are suppressed and their lanes discarded).

    Sharing ``cache`` across several roots of one DAG reuses common
    sub-expression results, exactly like the scalar evaluator.
    """
    import numpy as np  # deferred: the symbolic core itself is stdlib-only

    if cache is None:
        cache = {}

    def visit(node: Expression):
        cached = cache.get(id(node))
        if cached is not None:
            return cached
        if isinstance(node, Constant):
            value = np.float64(node.value)
        elif isinstance(node, FieldSymbol):
            key = (node.field, node.component, node.offset.dx, node.offset.dy,
                   node.level)
            if key not in bindings:
                raise KeyError(f"no binding for symbol {node!r}")
            value = bindings[key]
        elif isinstance(node, Operation):
            kind = node.kind
            values = [visit(op) for op in node.operands]
            if kind is OpKind.ADD:
                value = values[0] + values[1]
            elif kind is OpKind.SUB:
                value = values[0] - values[1]
            elif kind is OpKind.MUL:
                value = values[0] * values[1]
            elif kind is OpKind.DIV:
                value = values[0] / values[1]
            elif kind is OpKind.MIN:
                value = np.minimum(values[0], values[1])
            elif kind is OpKind.MAX:
                value = np.maximum(values[0], values[1])
            elif kind is OpKind.ABS:
                value = np.abs(values[0])
            elif kind is OpKind.NEG:
                value = -values[0]
            elif kind is OpKind.SQRT:
                value = np.sqrt(values[0])
            elif kind is OpKind.CMP_LT:
                value = np.asarray(values[0] < values[1], dtype=np.float64)
            elif kind is OpKind.CMP_LE:
                value = np.asarray(values[0] <= values[1], dtype=np.float64)
            elif kind is OpKind.CMP_GT:
                value = np.asarray(values[0] > values[1], dtype=np.float64)
            elif kind is OpKind.CMP_GE:
                value = np.asarray(values[0] >= values[1], dtype=np.float64)
            elif kind is OpKind.CMP_EQ:
                value = np.asarray(values[0] == values[1], dtype=np.float64)
            elif kind is OpKind.SELECT:
                value = np.where(values[0] != 0.0, values[1], values[2])
            else:  # pragma: no cover - defensive
                raise ValueError(f"unknown operator {kind!r}")
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown expression node {node!r}")
        cache[id(node)] = value
        return value

    with np.errstate(invalid="ignore", divide="ignore"):
        return visit(root)

