"""Kernel intermediate representation.

A *stencil kernel* is the body of the inner loop of Algorithm 1 in the paper:
the function ``t_p`` that computes one element of frame ``f_{i+1}`` from a
small neighbourhood of frame ``f_i``.  The IR captures exactly that: for each
output field component, an expression tree whose leaves are reads of input
field components at **constant offsets**, numeric literals, and named
parameters.

The two defining ISL properties map directly onto this IR:

* *domain narrowness* — the set of distinct read offsets is small and bounded;
* *translation invariance* — offsets are constants, so the dependency scheme
  of any element is a pure translation of any other's.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.utils.geometry import Offset, Window, bounding_window


class KernelValidationError(ValueError):
    """Raised when a kernel violates the structural rules of the IR."""


class BinOpKind(enum.Enum):
    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"
    MIN = "min"
    MAX = "max"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    EQ = "=="


class UnOpKind(enum.Enum):
    NEG = "-"
    ABS = "abs"
    SQRT = "sqrt"


class KernelExpr:
    """Base class for kernel expression nodes (immutable trees)."""

    __slots__ = ()

    def reads(self) -> Iterable["FieldRead"]:
        """Yield every :class:`FieldRead` in the tree (with repetitions)."""
        return iter(())

    def children(self) -> Tuple["KernelExpr", ...]:
        return ()

    def node_count(self) -> int:
        return 1 + sum(c.node_count() for c in self.children())


@dataclass(frozen=True)
class FieldRead(KernelExpr):
    """Read of ``field[component]`` at a constant offset from the target element."""

    field_name: str
    offset: Offset
    component: int = 0

    def reads(self) -> Iterable["FieldRead"]:
        yield self

    def __str__(self) -> str:
        comp = f".{self.component}" if self.component else ""
        return f"{self.field_name}{comp}[{self.offset.dx:+d},{self.offset.dy:+d}]"


@dataclass(frozen=True)
class ParamRef(KernelExpr):
    """Reference to a named scalar parameter of the algorithm (e.g. tau, lambda)."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Literal(KernelExpr):
    """A numeric literal coefficient (always stored as float, so equality,
    printing, and fingerprints do not depend on how the kernel was built)."""

    value: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", float(self.value))

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class BinaryOp(KernelExpr):
    kind: BinOpKind
    left: KernelExpr
    right: KernelExpr

    def reads(self) -> Iterable[FieldRead]:
        yield from self.left.reads()
        yield from self.right.reads()

    def children(self) -> Tuple[KernelExpr, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        if self.kind in (BinOpKind.MIN, BinOpKind.MAX):
            return f"{self.kind.value}({self.left}, {self.right})"
        return f"({self.left} {self.kind.value} {self.right})"


@dataclass(frozen=True)
class UnaryOp(KernelExpr):
    kind: UnOpKind
    operand: KernelExpr

    def reads(self) -> Iterable[FieldRead]:
        yield from self.operand.reads()

    def children(self) -> Tuple[KernelExpr, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        if self.kind is UnOpKind.NEG:
            return f"(-{self.operand})"
        return f"{self.kind.value}({self.operand})"


@dataclass(frozen=True)
class Select(KernelExpr):
    """Ternary select: ``cond ? if_true : if_false``."""

    cond: KernelExpr
    if_true: KernelExpr
    if_false: KernelExpr

    def reads(self) -> Iterable[FieldRead]:
        yield from self.cond.reads()
        yield from self.if_true.reads()
        yield from self.if_false.reads()

    def children(self) -> Tuple[KernelExpr, ...]:
        return (self.cond, self.if_true, self.if_false)

    def __str__(self) -> str:
        return f"({self.cond} ? {self.if_true} : {self.if_false})"


@dataclass(frozen=True)
class FieldDecl:
    """Declaration of a field (a named grid carried from iteration to iteration).

    Most kernels carry one scalar field; vector-valued algorithms such as
    Chambolle carry a field with several components that are all updated each
    iteration.
    """

    name: str
    components: int = 1

    def __post_init__(self) -> None:
        if self.components < 1:
            raise KernelValidationError(
                f"field {self.name!r} must have at least one component"
            )


@dataclass(frozen=True)
class FieldUpdate:
    """The update rule of one output component: ``field[component] <- expr``."""

    field_name: str
    component: int
    expr: KernelExpr


@dataclass
class StencilKernel:
    """A complete single-iteration stencil kernel.

    Attributes
    ----------
    name:
        Identifier used in generated VHDL entity names and reports.
    fields:
        Every field carried across iterations.  Each updated field must be
        declared; additional read-only fields (e.g. the observed image ``g``
        in Chambolle) are also declared here and are *not* updated.
    updates:
        One update per (field, component) that changes each iteration.
    params:
        Named scalar parameters with their default numeric values.
    """

    name: str
    fields: List[FieldDecl]
    updates: List[FieldUpdate]
    params: Dict[str, float] = field(default_factory=dict)
    description: str = ""

    def __post_init__(self) -> None:
        # canonicalize parameter values so fingerprints and equality do not
        # depend on int-vs-float spelling at the construction site
        self.params = {name: float(value)
                       for name, value in self.params.items()}
        self._validate()

    # ------------------------------------------------------------------ #
    # validation

    def _validate(self) -> None:
        if not self.name:
            raise KernelValidationError("kernel needs a non-empty name")
        if not self.updates:
            raise KernelValidationError("kernel has no field updates")
        decls = {f.name: f for f in self.fields}
        if len(decls) != len(self.fields):
            raise KernelValidationError("duplicate field declaration")
        seen: Set[Tuple[str, int]] = set()
        for update in self.updates:
            decl = decls.get(update.field_name)
            if decl is None:
                raise KernelValidationError(
                    f"update targets undeclared field {update.field_name!r}"
                )
            if not (0 <= update.component < decl.components):
                raise KernelValidationError(
                    f"update component {update.component} out of range for "
                    f"field {update.field_name!r} ({decl.components} components)"
                )
            key = (update.field_name, update.component)
            if key in seen:
                raise KernelValidationError(
                    f"duplicate update for {update.field_name}[{update.component}]"
                )
            seen.add(key)
            for read in update.expr.reads():
                read_decl = decls.get(read.field_name)
                if read_decl is None:
                    raise KernelValidationError(
                        f"kernel reads undeclared field {read.field_name!r}"
                    )
                if not (0 <= read.component < read_decl.components):
                    raise KernelValidationError(
                        f"read component {read.component} out of range for "
                        f"field {read.field_name!r}"
                    )
            for param in _collect_params(update.expr):
                if param not in self.params:
                    raise KernelValidationError(
                        f"kernel references undeclared parameter {param!r}"
                    )

    # ------------------------------------------------------------------ #
    # derived properties

    @property
    def field_map(self) -> Dict[str, FieldDecl]:
        return {f.name: f for f in self.fields}

    @property
    def updated_field_names(self) -> List[str]:
        names: List[str] = []
        for update in self.updates:
            if update.field_name not in names:
                names.append(update.field_name)
        return names

    @property
    def state_field_names(self) -> List[str]:
        """Fields carried (and rewritten) from one iteration to the next."""
        return self.updated_field_names

    @property
    def readonly_field_names(self) -> List[str]:
        """Fields read by the kernel but never updated (iteration-invariant)."""
        updated = set(self.updated_field_names)
        return [f.name for f in self.fields if f.name not in updated]

    # dependency metrics ----------------------------------------------------

    def read_offsets(self, of_fields: Optional[Iterable[str]] = None) -> Set[Offset]:
        """Distinct offsets at which the kernel reads the given fields.

        By default only reads of *state* fields count, because reads of
        read-only fields do not create inter-iteration dependencies.
        """
        selected = set(of_fields) if of_fields is not None else set(self.state_field_names)
        offsets: Set[Offset] = set()
        for update in self.updates:
            for read in update.expr.reads():
                if read.field_name in selected:
                    offsets.add(read.offset)
        return offsets

    @property
    def radius(self) -> int:
        """Chebyshev radius of the stencil footprint on state fields.

        This is the number of halo elements a cone's input window grows by
        for every iteration of depth it spans.
        """
        offsets = self.read_offsets()
        if not offsets:
            return 0
        return max(o.chebyshev() for o in offsets)

    @property
    def footprint_window(self) -> Window:
        """Bounding window of the state-field read offsets."""
        offsets = self.read_offsets()
        if not offsets:
            return Window(0, 0, 0, 0)
        return bounding_window(offsets)

    @property
    def operation_count(self) -> int:
        """Number of operator nodes in the (tree-form) kernel expressions."""
        total = 0
        for update in self.updates:
            total += _count_ops(update.expr)
        return total

    def __str__(self) -> str:
        lines = [f"kernel {self.name} (radius {self.radius})"]
        for update in self.updates:
            lines.append(f"  {update.field_name}[{update.component}] <- {update.expr}")
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    # serialization / identity

    def fingerprint(self) -> str:
        """Stable content hash of the kernel's semantics.

        Two kernels with the same fields, parameters, and update expressions
        share a fingerprint regardless of how they were built (DSL, C
        frontend, ``from_dict``).  Used as the characterization-cache key of
        :class:`repro.api.Session`.
        """
        parts = [self.name]
        parts.extend(f"field:{f.name}:{f.components}" for f in self.fields)
        parts.extend(f"param:{name}={self.params[name]!r}"
                     for name in sorted(self.params))
        parts.extend(f"update:{u.field_name}[{u.component}]<-{u.expr}"
                     for u in self.updates)
        digest = hashlib.sha256("\n".join(parts).encode("utf-8"))
        return digest.hexdigest()[:16]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation of the complete kernel."""
        return {
            "name": self.name,
            "description": self.description,
            "fields": [{"name": f.name, "components": f.components}
                       for f in self.fields],
            "params": dict(self.params),
            "updates": [{"field": u.field_name,
                         "component": u.component,
                         "expr": expr_to_dict(u.expr)}
                        for u in self.updates],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StencilKernel":
        return cls(
            name=data["name"],
            fields=[FieldDecl(f["name"], f["components"])
                    for f in data["fields"]],
            updates=[FieldUpdate(u["field"], u["component"],
                                 expr_from_dict(u["expr"]))
                     for u in data["updates"]],
            params={k: float(v) for k, v in data.get("params", {}).items()},
            description=data.get("description", ""),
        )


# ---------------------------------------------------------------------- #
# expression (de)serialization


def expr_to_dict(expr: KernelExpr) -> Dict[str, Any]:
    """Encode an expression tree as JSON-compatible nested dicts."""
    if isinstance(expr, FieldRead):
        return {"op": "read", "field": expr.field_name,
                "offset": expr.offset.to_list(), "component": expr.component}
    if isinstance(expr, ParamRef):
        return {"op": "param", "name": expr.name}
    if isinstance(expr, Literal):
        return {"op": "lit", "value": expr.value}
    if isinstance(expr, BinaryOp):
        return {"op": "bin", "kind": expr.kind.value,
                "left": expr_to_dict(expr.left),
                "right": expr_to_dict(expr.right)}
    if isinstance(expr, UnaryOp):
        return {"op": "un", "kind": expr.kind.value,
                "operand": expr_to_dict(expr.operand)}
    if isinstance(expr, Select):
        return {"op": "select", "cond": expr_to_dict(expr.cond),
                "if_true": expr_to_dict(expr.if_true),
                "if_false": expr_to_dict(expr.if_false)}
    raise TypeError(f"cannot serialize expression node {type(expr).__name__}")


def expr_from_dict(data: Mapping[str, Any]) -> KernelExpr:
    """Decode an expression tree produced by :func:`expr_to_dict`."""
    op = data["op"]
    if op == "read":
        return FieldRead(data["field"], Offset.from_list(data["offset"]),
                         data.get("component", 0))
    if op == "param":
        return ParamRef(data["name"])
    if op == "lit":
        return Literal(float(data["value"]))
    if op == "bin":
        return BinaryOp(BinOpKind(data["kind"]),
                        expr_from_dict(data["left"]),
                        expr_from_dict(data["right"]))
    if op == "un":
        return UnaryOp(UnOpKind(data["kind"]), expr_from_dict(data["operand"]))
    if op == "select":
        return Select(expr_from_dict(data["cond"]),
                      expr_from_dict(data["if_true"]),
                      expr_from_dict(data["if_false"]))
    raise ValueError(f"unknown expression op {op!r}")


def _collect_params(expr: KernelExpr) -> Set[str]:
    params: Set[str] = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, ParamRef):
            params.add(node.name)
        stack.extend(node.children())
    return params


def _count_ops(expr: KernelExpr) -> int:
    count = 0
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, (BinaryOp, UnaryOp, Select)):
            count += 1
        stack.extend(node.children())
    return count
