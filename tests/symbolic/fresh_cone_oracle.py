"""The per-cone fresh builder: the differential oracle for the shared cone DAG.

Builds every cone with a new :class:`ExpressionBuilder` and element memo, so
its node ids are the creation order of that one cone.  Production keeps one
builder per :class:`ConeExpressionBuilder` and replays the recorded
expansions to recover these ids; the tests hold every cone, its DFG, its
synthesis report and its VHDL to this construction.  It expands each
element with the recursive interpreter (``executor_oracle``), not the
lowered step, and its counts come from plain DAG walks
(:func:`count_nodes`, :func:`count_operations` and
:func:`collect_symbols`), not from the builder's one-pass ``_walk``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from executor_oracle import SymbolicExecutor

from repro.frontend.kernel_ir import StencilKernel
from repro.ir.dfg import DataflowGraph
from repro.symbolic.cone_expression import ConeExpressions, ElementKey
from repro.symbolic.dependency import ConeDomain, analyze_footprint
from repro.symbolic.expression import (
    Expression,
    ExpressionBuilder,
    FieldSymbol,
    OpKind,
    Operation,
)
from repro.utils.geometry import Offset, Window
from repro.utils.validation import check_positive


def reachable(roots: Iterable[Expression]) -> List[Expression]:
    """Return every node reachable from ``roots``, each exactly once."""
    seen: Set[int] = set()
    order: List[Expression] = []
    stack: List[Expression] = list(roots)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        order.append(node)
        stack.extend(node.children())
    return order


def count_nodes(roots: Iterable[Expression]) -> int:
    """Number of distinct DAG nodes reachable from ``roots``.

    With register reuse enforced, this is the number of registers the cone
    needs (the ``Reg_i`` quantity of Equation 1 in the paper).
    """
    return len(reachable(roots))


def count_operations(roots: Iterable[Expression]) -> Dict[OpKind, int]:
    """Count distinct operation nodes per operator kind."""
    counts: Dict[OpKind, int] = {}
    for node in reachable(roots):
        if isinstance(node, Operation):
            counts[node.kind] = counts.get(node.kind, 0) + 1
    return counts


def collect_symbols(roots: Iterable[Expression]) -> List[FieldSymbol]:
    """Return every distinct leaf symbol reachable from ``roots``."""
    return [n for n in reachable(roots) if isinstance(n, FieldSymbol)]


def cone_summary(cone: ConeExpressions) -> Dict[str, object]:
    """A cone's counts and its input symbols in order."""
    return {
        "register_count": cone.register_count,
        "element_register_count": cone.element_register_count,
        "operation_counts": list(cone.operation_counts.items()),
        "critical_path_depth": cone.critical_path_depth,
        "input_symbols": [(s.field, s.component, s.offset, s.level)
                          for s in cone.input_symbols],
    }


def dfg_nodes(graph: DataflowGraph) -> List[Tuple]:
    """Every DFG node, in node order, with its operands and ports."""
    return [(n.node_id, n.kind, n.op_kind, n.operands, n.name, n.value,
             n.port) for n in graph.nodes()]


def fresh_build(kernel: StencilKernel, window_side: int, depth: int,
                params: Optional[Mapping[str, float]] = None
                ) -> ConeExpressions:
    """Unroll ``depth`` iterations for a ``window_side x window_side`` output
    tile on a builder and memo private to this one cone."""
    check_positive("window_side", window_side)
    check_positive("depth", depth)

    builder = ExpressionBuilder()
    executor = SymbolicExecutor(kernel, builder, dict(params) if params
                                else None)
    state_fields = list(kernel.state_field_names)
    components = {decl.name: decl.components for decl in kernel.fields}

    memo: Dict[ElementKey, Expression] = {}

    def element(field: str, component: int, offset: Offset,
                level: int) -> Expression:
        if level == 0:
            return builder.intern_symbol(field, component, offset.dx,
                                         offset.dy, 0)
        key = (field, component, offset.dx, offset.dy, level)
        cached = memo.get(key)
        if cached is not None:
            return cached

        def resolver(rfield: str, rcomponent: int,
                     roffset: Offset) -> Expression:
            return element(rfield, rcomponent, roffset, level - 1)

        frame = executor.execute_once(target=offset, source_level=level - 1,
                                      state_resolver=resolver)
        for (ufield, ucomponent), expr in frame.expressions.items():
            memo[(ufield, ucomponent, offset.dx, offset.dy, level)] = expr
        result = memo.get(key)
        if result is None:
            raise KeyError(f"kernel {kernel.name!r} does not update "
                           f"{field}[{component}]")
        return result

    window = Window.square(window_side)
    outputs: Dict[Tuple[str, int, Offset], Expression] = {}
    for field in state_fields:
        for component in range(components[field]):
            for offset in window.elements():
                outputs[(field, component, offset)] = element(
                    field, component, offset, depth)

    roots = list(outputs.values())
    domain = ConeDomain(
        output_window=window,
        depth=depth,
        radius=analyze_footprint(kernel).radius,
        components=sum(components[f] for f in state_fields),
    )
    return ConeExpressions(
        kernel_name=kernel.name,
        domain=domain,
        outputs=outputs,
        register_count=count_nodes(roots),
        element_register_count=len(memo),
        operation_counts=count_operations(roots),
        input_symbols=collect_symbols(roots),
    )
