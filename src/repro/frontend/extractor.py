"""ISL pattern extraction: from the parsed C AST to a :class:`StencilKernel`.

The extractor recognises the shape of Algorithm 1 of the paper: a perfectly
nested loop over the two spatial dimensions whose innermost body computes the
next-iteration value of every state field component from constant-offset
reads of the current iteration.  Local temporaries are inlined, macro
definitions become parameters, and the written/read array pair is mapped to a
single logical *state field*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.utils.geometry import Offset
from repro.frontend.c_ast import (
    CArrayAccess,
    CAssignment,
    CBinOp,
    CBlock,
    CCall,
    CDeclaration,
    CExpr,
    CFor,
    CFunction,
    CIdent,
    CNumber,
    CStmt,
    CTernary,
    CTranslationUnit,
    CUnaryOp,
)
from repro.frontend.kernel_ir import (
    BinOpKind,
    BinaryOp,
    FieldDecl,
    FieldRead,
    FieldUpdate,
    KernelExpr,
    Literal,
    ParamRef,
    Select,
    StencilKernel,
    UnOpKind,
    UnaryOp,
)


class ExtractionError(ValueError):
    """Raised when the C function does not match the ISL pattern."""


_BINOP_MAP = {
    "+": BinOpKind.ADD,
    "-": BinOpKind.SUB,
    "*": BinOpKind.MUL,
    "/": BinOpKind.DIV,
    "<": BinOpKind.LT,
    "<=": BinOpKind.LE,
    ">": BinOpKind.GT,
    ">=": BinOpKind.GE,
    "==": BinOpKind.EQ,
}

_CALL_MAP_BINARY = {
    "fmin": BinOpKind.MIN, "fminf": BinOpKind.MIN, "min": BinOpKind.MIN,
    "fmax": BinOpKind.MAX, "fmaxf": BinOpKind.MAX, "max": BinOpKind.MAX,
}

_CALL_MAP_UNARY = {
    "fabs": UnOpKind.ABS, "fabsf": UnOpKind.ABS, "abs": UnOpKind.ABS,
    "sqrt": UnOpKind.SQRT, "sqrtf": UnOpKind.SQRT,
}


@dataclass
class _LoopNest:
    """The two innermost spatial loops and the statements of their body."""

    row_var: str
    col_var: str
    body: List[CStmt]


def _find_loop_nest(statements: Sequence[CStmt]) -> _LoopNest:
    """Locate the innermost pair of nested ``for`` loops.

    Outer loops over the iteration count (if present in the source) are
    skipped: the kernel describes a single application of the stencil, and
    the iteration count is an input of the flow, not of the kernel.
    """
    loops: List[CFor] = []

    def descend(stmts: Sequence[CStmt]) -> Optional[List[CStmt]]:
        fors = [s for s in stmts if isinstance(s, CFor)]
        others = [s for s in stmts
                  if not isinstance(s, (CFor, CBlock)) or isinstance(s, CBlock)]
        if len(fors) != 1:
            return None
        loop = fors[0]
        loops.append(loop)
        inner = descend(loop.body)
        if inner is not None:
            return inner
        return loop.body

    body = descend(statements)
    if body is None or len(loops) < 2:
        raise ExtractionError(
            "could not find a nested spatial loop pair; the kernel must contain "
            "a perfectly nested loop over rows and columns"
        )
    row_loop, col_loop = loops[-2], loops[-1]
    return _LoopNest(row_var=row_loop.var, col_var=col_loop.var, body=body)


def _flatten(statements: Sequence[CStmt]) -> List[CStmt]:
    flat: List[CStmt] = []
    for stmt in statements:
        if isinstance(stmt, CBlock):
            flat.extend(_flatten(stmt.statements))
        else:
            flat.append(stmt)
    return flat


class _ExprConverter:
    """Converts C expressions of the loop body into kernel IR expressions."""

    def __init__(self, nest: _LoopNest, defines: Mapping[str, float],
                 scalar_params: Mapping[str, float],
                 array_params: Mapping[str, int],
                 state_map: Mapping[str, str],
                 temps: Dict[str, KernelExpr]) -> None:
        self.nest = nest
        self.defines = dict(defines)
        self.scalar_params = dict(scalar_params)
        self.array_params = dict(array_params)  # name -> number of dims
        self.state_map = dict(state_map)        # written array -> read array
        self.temps = temps
        self.used_params: Dict[str, float] = {}

    # ------------------------------------------------------------------ #

    def convert(self, expr: CExpr) -> KernelExpr:
        if isinstance(expr, CNumber):
            return Literal(float(expr.value))
        if isinstance(expr, CIdent):
            return self._from_ident(expr)
        if isinstance(expr, CArrayAccess):
            return self._from_access(expr)
        if isinstance(expr, CBinOp):
            return self._from_binop(expr)
        if isinstance(expr, CUnaryOp):
            return self._from_unop(expr)
        if isinstance(expr, CTernary):
            return Select(self.convert(expr.cond), self.convert(expr.if_true),
                          self.convert(expr.if_false))
        if isinstance(expr, CCall):
            return self._from_call(expr)
        raise ExtractionError(f"unsupported expression node {type(expr).__name__}")

    def _from_ident(self, expr: CIdent) -> KernelExpr:
        name = expr.name
        if name in self.temps:
            return self.temps[name]
        if name in (self.nest.row_var, self.nest.col_var):
            raise ExtractionError(
                f"expression depends on the loop index {name!r} outside an array "
                "subscript: the kernel is not translation invariant"
            )
        if name in self.defines:
            self.used_params[name] = self.defines[name]
            return ParamRef(name)
        if name in self.scalar_params:
            self.used_params[name] = self.scalar_params[name]
            return ParamRef(name)
        raise ExtractionError(
            f"identifier {name!r} is neither a local temporary, a #define, nor a "
            "scalar parameter with a supplied value"
        )

    def _from_access(self, expr: CArrayAccess) -> FieldRead:
        name = expr.name
        if name not in self.array_params:
            raise ExtractionError(f"subscript of unknown array {name!r}")
        if name in self.state_map.keys() and name not in self.state_map.values():
            raise ExtractionError(
                f"kernel reads the output array {name!r}; reads must target the "
                "current-iteration array to preserve the ISL dependency structure"
            )
        dims = self.array_params[name]
        indices = expr.indices
        if len(indices) != dims:
            raise ExtractionError(
                f"array {name!r} declared with {dims} dimensions but accessed "
                f"with {len(indices)} subscripts"
            )
        component = 0
        if dims == 3:
            component_index = indices[0]
            component = self._constant_index(component_index, name)
            spatial = indices[1:]
        elif dims == 2:
            spatial = indices
        else:
            raise ExtractionError(
                f"array {name!r} must be 2D (scalar field) or 3D (vector field)"
            )
        dy = self._offset_of(spatial[0], self.nest.row_var, name)
        dx = self._offset_of(spatial[1], self.nest.col_var, name)
        field_name = self._field_name_for(name)
        return FieldRead(field_name, Offset(dx, dy), component)

    def _field_name_for(self, array_name: str) -> str:
        # reads always target the current-iteration array, whose name is the
        # canonical field name.
        return array_name

    def _constant_index(self, expr: CExpr, array_name: str) -> int:
        if isinstance(expr, CNumber) and expr.is_integer:
            return int(expr.value)
        raise ExtractionError(
            f"component subscript of {array_name!r} must be an integer literal"
        )

    def _offset_of(self, expr: CExpr, loop_var: str, array_name: str) -> int:
        """Interpret a subscript as ``loop_var + constant`` and return the constant."""
        if isinstance(expr, CIdent):
            if expr.name == loop_var:
                return 0
            raise ExtractionError(
                f"subscript of {array_name!r} uses {expr.name!r}; expected the "
                f"loop variable {loop_var!r}"
            )
        if isinstance(expr, CBinOp) and expr.op in ("+", "-"):
            left, right = expr.left, expr.right
            if isinstance(left, CIdent) and left.name == loop_var and isinstance(right, CNumber):
                value = int(right.value)
                return value if expr.op == "+" else -value
            if (expr.op == "+" and isinstance(right, CIdent)
                    and right.name == loop_var and isinstance(left, CNumber)):
                return int(left.value)
        raise ExtractionError(
            f"subscript of {array_name!r} is not of the form "
            f"'{loop_var} + constant'; the kernel violates translation invariance"
        )

    def _from_binop(self, expr: CBinOp) -> KernelExpr:
        if expr.op in ("&&", "||", "!=", "%"):
            raise ExtractionError(f"operator {expr.op!r} is not supported in kernels")
        kind = _BINOP_MAP.get(expr.op)
        if kind is None:
            raise ExtractionError(f"unsupported binary operator {expr.op!r}")
        return BinaryOp(kind, self.convert(expr.left), self.convert(expr.right))

    def _from_unop(self, expr: CUnaryOp) -> KernelExpr:
        if expr.op == "-":
            return UnaryOp(UnOpKind.NEG, self.convert(expr.operand))
        raise ExtractionError(f"unsupported unary operator {expr.op!r}")

    def _from_call(self, expr: CCall) -> KernelExpr:
        if expr.name in _CALL_MAP_BINARY:
            if len(expr.args) != 2:
                raise ExtractionError(f"{expr.name}() expects two arguments")
            kind = _CALL_MAP_BINARY[expr.name]
            return BinaryOp(kind, self.convert(expr.args[0]), self.convert(expr.args[1]))
        if expr.name in _CALL_MAP_UNARY:
            if len(expr.args) != 1:
                raise ExtractionError(f"{expr.name}() expects one argument")
            return UnaryOp(_CALL_MAP_UNARY[expr.name], self.convert(expr.args[0]))
        raise ExtractionError(f"unsupported function call {expr.name!r}")


def _infer_state_map(written: Set[str], read: Set[str],
                     array_dims: Mapping[str, int],
                     read_signatures: Optional[Mapping[str, Set[str]]] = None
                     ) -> Dict[str, str]:
    """Pair each written array with the read array it is the next frame of.

    When several read arrays have the right rank, the one accessed at the
    largest number of *distinct offsets* is chosen: the state field is the one
    the stencil actually reaches around on, whereas read-only inputs (the
    right-hand side of Jacobi, the observed image of Chambolle) are typically
    only read at the centre element.
    """
    state_map: Dict[str, str] = {}
    unread_written = sorted(written)
    candidates = sorted(read - written)
    signatures = read_signatures or {}
    for out_name in unread_written:
        same_rank = [name for name in candidates
                     if array_dims[name] == array_dims[out_name]
                     and name not in state_map.values()]
        if out_name in read and not same_rank:
            # in-place update with no separate input array: the same array
            # plays both roles.
            state_map[out_name] = out_name
            continue
        if len(same_rank) > 1:
            counts = {name: len(signatures.get(name, set())) for name in same_rank}
            best = max(counts.values())
            top = [name for name, count in counts.items() if count == best]
            if len(top) == 1 and best > 1:
                same_rank = top
        if len(same_rank) == 1:
            state_map[out_name] = same_rank[0]
        elif not same_rank:
            raise ExtractionError(
                f"cannot find the current-iteration array matching output "
                f"{out_name!r}; pass state_map explicitly"
            )
        else:
            raise ExtractionError(
                f"ambiguous pairing for output array {out_name!r} "
                f"(candidates: {same_rank}); pass state_map explicitly"
            )
    return state_map


def extract_kernel_from_c(
    source_or_unit,
    function_name: Optional[str] = None,
    scalar_params: Optional[Mapping[str, float]] = None,
    state_map: Optional[Mapping[str, str]] = None,
    kernel_name: Optional[str] = None,
) -> StencilKernel:
    """Extract a :class:`StencilKernel` from C source (or a parsed unit).

    Parameters
    ----------
    source_or_unit:
        C source text or an already parsed :class:`CTranslationUnit`.
    function_name:
        Name of the kernel function; optional when the file has exactly one.
    scalar_params:
        Values for scalar function parameters referenced by the kernel body
        (macro ``#define`` values are picked up automatically).
    state_map:
        Mapping from written (next-iteration) array name to the read
        (current-iteration) array name; inferred automatically in the common
        one-in/one-out case.
    kernel_name:
        Overrides the kernel name (defaults to the function name).
    """
    from repro.frontend.c_parser import parse_c_source

    if isinstance(source_or_unit, str):
        unit = parse_c_source(source_or_unit)
    elif isinstance(source_or_unit, CTranslationUnit):
        unit = source_or_unit
    else:
        raise TypeError("source_or_unit must be C source text or a CTranslationUnit")

    function = unit.function(function_name)
    nest = _find_loop_nest(function.body)
    body = _flatten(nest.body)

    array_dims: Dict[str, int] = {}
    scalar_param_names: List[str] = []
    for param in function.params:
        if param.is_array:
            array_dims[param.name] = len(param.array_dims)
        else:
            scalar_param_names.append(param.name)

    written: Set[str] = set()
    read: Set[str] = set()
    read_signatures: Dict[str, Set[str]] = {}

    def record_reads(expr: CExpr) -> None:
        if isinstance(expr, CArrayAccess):
            read.add(expr.name)
            read_signatures.setdefault(expr.name, set()).add(repr(expr.indices))
            for index in expr.indices:
                record_reads(index)
        elif isinstance(expr, CBinOp):
            record_reads(expr.left)
            record_reads(expr.right)
        elif isinstance(expr, CUnaryOp):
            record_reads(expr.operand)
        elif isinstance(expr, CTernary):
            record_reads(expr.cond)
            record_reads(expr.if_true)
            record_reads(expr.if_false)
        elif isinstance(expr, CCall):
            for arg in expr.args:
                record_reads(arg)

    for stmt in body:
        if isinstance(stmt, CDeclaration) and stmt.init is not None:
            record_reads(stmt.init)
        elif isinstance(stmt, CAssignment):
            if isinstance(stmt.target, CArrayAccess):
                written.add(stmt.target.name)
                for index in stmt.target.indices:
                    record_reads(index)
            record_reads(stmt.value)

    unknown = (written | read) - set(array_dims)
    if unknown:
        raise ExtractionError(
            f"arrays {sorted(unknown)} are used in the loop body but are not "
            "array parameters of the kernel function"
        )

    if state_map is None:
        state_map = _infer_state_map(written, read, array_dims, read_signatures)
    else:
        state_map = dict(state_map)

    converter = _ExprConverter(
        nest=nest,
        defines=unit.defines,
        scalar_params=dict(scalar_params or {}),
        array_params=array_dims,
        state_map=state_map,
        temps={},
    )

    updates: List[FieldUpdate] = []
    for stmt in body:
        if isinstance(stmt, CDeclaration):
            if stmt.init is None:
                raise ExtractionError(
                    f"local {stmt.name!r} is declared without an initialiser"
                )
            converter.temps[stmt.name] = converter.convert(stmt.init)
            continue
        if isinstance(stmt, CAssignment):
            target = stmt.target
            if isinstance(target, CIdent):
                converter.temps[target.name] = converter.convert(stmt.value)
                continue
            if not isinstance(target, CArrayAccess):
                raise ExtractionError("unsupported assignment target")
            out_array = target.name
            if out_array not in state_map:
                raise ExtractionError(
                    f"assignment writes array {out_array!r} which is not an "
                    "output (next-iteration) array"
                )
            dims = array_dims[out_array]
            component = 0
            if dims == 3:
                component = converter._constant_index(target.indices[0], out_array)
                spatial = target.indices[1:]
            else:
                spatial = target.indices
            dy = converter._offset_of(spatial[0], nest.row_var, out_array)
            dx = converter._offset_of(spatial[1], nest.col_var, out_array)
            if dx != 0 or dy != 0:
                raise ExtractionError(
                    f"output array {out_array!r} must be written at the loop "
                    f"indices exactly (found offset ({dx},{dy}))"
                )
            field_name = state_map[out_array]
            updates.append(FieldUpdate(field_name, component, converter.convert(stmt.value)))
            continue
        raise ExtractionError(
            f"unsupported statement {type(stmt).__name__} in the loop body"
        )

    if not updates:
        raise ExtractionError("the loop body does not write any output element")

    # Field declarations: state fields (named after the current-iteration
    # array) plus read-only fields.
    state_fields = set(state_map.values())
    field_decls: List[FieldDecl] = []
    for name, dims in sorted(array_dims.items()):
        if name in state_map and name not in state_fields:
            continue  # pure output array: folded into its state field
        if name not in read and name not in state_fields:
            continue  # unused parameter array
        components = 1
        if dims == 3:
            components = _max_component(updates, name) + 1
        field_decls.append(FieldDecl(name, components))

    return StencilKernel(
        name=kernel_name or function.name,
        fields=field_decls,
        updates=updates,
        params=dict(converter.used_params),
        description=f"extracted from C function {function.name!r}",
    )


def _max_component(updates: Sequence[FieldUpdate], field_name: str) -> int:
    best = 0
    for update in updates:
        if update.field_name == field_name:
            best = max(best, update.component)
        for fread in update.expr.reads():
            if fread.field_name == field_name:
                best = max(best, fread.component)
    return best
