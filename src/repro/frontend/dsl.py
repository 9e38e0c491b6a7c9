"""Python embedded DSL for writing stencil kernels.

Example — a 5-point Jacobi smoother::

    from repro.frontend import stencil_kernel

    def jacobi(k):
        u = k.field("u")
        k.update(u, 0.25 * (u(1, 0) + u(-1, 0) + u(0, 1) + u(0, -1)))

    kernel = stencil_kernel("jacobi", jacobi)

``u(dx, dy)`` reads the field at a constant offset; arithmetic on the returned
handles builds the :class:`~repro.frontend.kernel_ir.KernelExpr` tree.  The
DSL and the C frontend produce the same IR, so every later stage of the flow
is agnostic to which one was used.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Union

from repro.utils.geometry import Offset
from repro.frontend.kernel_ir import (
    BinOpKind,
    BinaryOp,
    FieldDecl,
    FieldRead,
    FieldUpdate,
    KernelExpr,
    KernelValidationError,
    Literal,
    ParamRef,
    Select,
    StencilKernel,
    UnOpKind,
    UnaryOp,
)

Number = Union[int, float]
ExprLike = Union["ExprHandle", Number]


def _coerce(value: ExprLike) -> KernelExpr:
    if isinstance(value, ExprHandle):
        return value.expr
    if isinstance(value, (int, float)):
        return Literal(float(value))
    raise TypeError(f"cannot use {value!r} in a kernel expression")


class ExprHandle:
    """Wrapper around a :class:`KernelExpr` providing Python operators."""

    __slots__ = ("expr",)

    def __init__(self, expr: KernelExpr) -> None:
        self.expr = expr

    # arithmetic ----------------------------------------------------------

    def _bin(self, kind: BinOpKind, other: ExprLike, reflected: bool = False) -> "ExprHandle":
        left = _coerce(other) if reflected else self.expr
        right = self.expr if reflected else _coerce(other)
        return ExprHandle(BinaryOp(kind, left, right))

    def __add__(self, other: ExprLike) -> "ExprHandle":
        return self._bin(BinOpKind.ADD, other)

    def __radd__(self, other: ExprLike) -> "ExprHandle":
        return self._bin(BinOpKind.ADD, other, reflected=True)

    def __sub__(self, other: ExprLike) -> "ExprHandle":
        return self._bin(BinOpKind.SUB, other)

    def __rsub__(self, other: ExprLike) -> "ExprHandle":
        return self._bin(BinOpKind.SUB, other, reflected=True)

    def __mul__(self, other: ExprLike) -> "ExprHandle":
        return self._bin(BinOpKind.MUL, other)

    def __rmul__(self, other: ExprLike) -> "ExprHandle":
        return self._bin(BinOpKind.MUL, other, reflected=True)

    def __truediv__(self, other: ExprLike) -> "ExprHandle":
        return self._bin(BinOpKind.DIV, other)

    def __rtruediv__(self, other: ExprLike) -> "ExprHandle":
        return self._bin(BinOpKind.DIV, other, reflected=True)

    def __neg__(self) -> "ExprHandle":
        return ExprHandle(UnaryOp(UnOpKind.NEG, self.expr))

    # comparisons (produce 0/1-valued expressions for use in select) -------

    def __lt__(self, other: ExprLike) -> "ExprHandle":
        return self._bin(BinOpKind.LT, other)

    def __le__(self, other: ExprLike) -> "ExprHandle":
        return self._bin(BinOpKind.LE, other)

    def __gt__(self, other: ExprLike) -> "ExprHandle":
        return self._bin(BinOpKind.GT, other)

    def __ge__(self, other: ExprLike) -> "ExprHandle":
        return self._bin(BinOpKind.GE, other)

    def __repr__(self) -> str:
        return f"ExprHandle({self.expr})"


class FieldHandle:
    """Handle on a declared field; calling it reads the field at an offset."""

    __slots__ = ("name", "components", "_component")

    def __init__(self, name: str, components: int = 1, component: int = 0) -> None:
        self.name = name
        self.components = components
        self._component = component

    def __call__(self, dx: int = 0, dy: int = 0) -> ExprHandle:
        return ExprHandle(FieldRead(self.name, Offset(int(dx), int(dy)), self._component))

    def component(self, index: int) -> "FieldHandle":
        """Return a handle bound to one component of a vector field."""
        if not (0 <= index < self.components):
            raise KernelValidationError(
                f"component {index} out of range for field {self.name!r}"
            )
        return FieldHandle(self.name, self.components, index)

    def __repr__(self) -> str:
        return f"FieldHandle({self.name!r}, component={self._component})"


class KernelBuilder:
    """Collects field declarations, parameters and updates for one kernel."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._fields: Dict[str, FieldDecl] = {}
        self._params: Dict[str, float] = {}
        self._updates: List[FieldUpdate] = []
        self.description = ""

    # declarations ----------------------------------------------------------

    def field(self, name: str, components: int = 1) -> FieldHandle:
        """Declare (or retrieve) a field carried across iterations."""
        existing = self._fields.get(name)
        if existing is not None:
            if existing.components != components:
                raise KernelValidationError(
                    f"field {name!r} redeclared with {components} components "
                    f"(was {existing.components})"
                )
        else:
            self._fields[name] = FieldDecl(name, components)
        return FieldHandle(name, components)

    def param(self, name: str, default: Number) -> ExprHandle:
        """Declare a named scalar parameter with a default value."""
        self._params[name] = float(default)
        return ExprHandle(ParamRef(name))

    # expression helpers ------------------------------------------------------

    @staticmethod
    def minimum(a: ExprLike, b: ExprLike) -> ExprHandle:
        return ExprHandle(BinaryOp(BinOpKind.MIN, _coerce(a), _coerce(b)))

    @staticmethod
    def maximum(a: ExprLike, b: ExprLike) -> ExprHandle:
        return ExprHandle(BinaryOp(BinOpKind.MAX, _coerce(a), _coerce(b)))

    @staticmethod
    def absolute(a: ExprLike) -> ExprHandle:
        return ExprHandle(UnaryOp(UnOpKind.ABS, _coerce(a)))

    @staticmethod
    def sqrt(a: ExprLike) -> ExprHandle:
        return ExprHandle(UnaryOp(UnOpKind.SQRT, _coerce(a)))

    @staticmethod
    def select(cond: ExprLike, if_true: ExprLike, if_false: ExprLike) -> ExprHandle:
        return ExprHandle(Select(_coerce(cond), _coerce(if_true), _coerce(if_false)))

    # updates -----------------------------------------------------------------

    def update(self, target: Union[FieldHandle, str], expr: ExprLike,
               component: Optional[int] = None) -> None:
        """Record the next-iteration value of ``target``."""
        if isinstance(target, FieldHandle):
            field_name = target.name
            comp = target._component if component is None else component
        else:
            field_name = target
            comp = 0 if component is None else component
        if field_name not in self._fields:
            raise KernelValidationError(
                f"update targets undeclared field {field_name!r}"
            )
        self._updates.append(FieldUpdate(field_name, comp, _coerce(expr)))

    # finalisation -------------------------------------------------------------

    def build(self) -> StencilKernel:
        return StencilKernel(
            name=self.name,
            fields=list(self._fields.values()),
            updates=list(self._updates),
            params=dict(self._params),
            description=self.description,
        )


def stencil_kernel(name: str, definition: Callable[[KernelBuilder], None],
                   description: str = "") -> StencilKernel:
    """Build a :class:`StencilKernel` from a DSL definition function."""
    builder = KernelBuilder(name)
    builder.description = description
    definition(builder)
    return builder.build()
