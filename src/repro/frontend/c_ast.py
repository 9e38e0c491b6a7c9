"""Abstract syntax tree for the supported C subset.

The paper's flow takes the ISL algorithm as C code.  We support the subset
those kernels are actually written in: a function containing a perfectly
nested ``for`` loop over the frame, whose innermost body is a sequence of
local declarations and assignments with constant-offset array subscripts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple


class CParseError(SyntaxError, ValueError):
    """Raised on any lexical or syntactic error in the C source.

    It is a ``ValueError`` too, so callers that reject bad input by that
    type (the HTTP service answers 400, the CLI exits 2) reject bad C the
    same way.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        location = f" (line {line}, column {column})" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


# --------------------------------------------------------------------------- #
# expressions


class CExpr:
    """Base class of C expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class CIdent(CExpr):
    name: str


@dataclass(frozen=True)
class CNumber(CExpr):
    value: float
    is_integer: bool = False


@dataclass(frozen=True)
class CArrayAccess(CExpr):
    """``name[idx0][idx1]...`` — indices are arbitrary expressions."""

    name: str
    indices: Tuple[CExpr, ...]


@dataclass(frozen=True)
class CBinOp(CExpr):
    op: str            # one of + - * / < <= > >= == && ||
    left: CExpr
    right: CExpr


@dataclass(frozen=True)
class CUnaryOp(CExpr):
    op: str            # one of - !
    operand: CExpr


@dataclass(frozen=True)
class CTernary(CExpr):
    cond: CExpr
    if_true: CExpr
    if_false: CExpr


@dataclass(frozen=True)
class CCall(CExpr):
    """Call of a whitelisted math intrinsic (fabs, fminf, sqrtf, ...)."""

    name: str
    args: Tuple[CExpr, ...]


# --------------------------------------------------------------------------- #
# statements


class CStmt:
    """Base class of C statement nodes."""

    __slots__ = ()


@dataclass
class CDeclaration(CStmt):
    """``float name = expr;`` — a local temporary inside the loop body."""

    type_name: str
    name: str
    init: Optional[CExpr]


@dataclass
class CAssignment(CStmt):
    """``target = expr;`` where target is an identifier or array access."""

    target: CExpr
    value: CExpr


@dataclass
class CFor(CStmt):
    """A canonical counted loop: ``for (int v = lo; v < hi; v++) body``."""

    var: str
    lower: CExpr
    upper: CExpr
    body: List[CStmt] = field(default_factory=list)
    step: int = 1


@dataclass
class CBlock(CStmt):
    statements: List[CStmt] = field(default_factory=list)


@dataclass
class CParamDecl:
    """A formal parameter of the kernel function."""

    type_name: str
    name: str
    array_dims: Tuple[str, ...] = ()   # symbolic dimensions, e.g. ("H", "W")
    is_const: bool = False

    @property
    def is_array(self) -> bool:
        return bool(self.array_dims)


@dataclass
class CFunction:
    name: str
    return_type: str
    params: List[CParamDecl]
    body: List[CStmt]


@dataclass
class CTranslationUnit:
    """A parsed source file: macro definitions plus function definitions."""

    defines: dict
    functions: List[CFunction]

    def function(self, name: Optional[str] = None) -> CFunction:
        """Return the named function, or the only one if ``name`` is None."""
        if name is None:
            if len(self.functions) != 1:
                raise CParseError(
                    f"expected exactly one function, found {len(self.functions)}; "
                    "pass an explicit function name"
                )
            return self.functions[0]
        for func in self.functions:
            if func.name == name:
                return func
        raise CParseError(f"no function named {name!r} in translation unit")
