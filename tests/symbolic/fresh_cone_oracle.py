"""The per-cone fresh builder: the differential oracle for the shared cone DAG.

Builds every cone with a new :class:`ExpressionBuilder` and element memo, so
its node ids are the creation order of that one cone.  Production keeps one
builder per :class:`ConeExpressionBuilder` and replays the recorded
expansions to recover these ids; the tests hold every cone, its DFG, its
synthesis report and its VHDL to this construction.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

from repro.frontend.kernel_ir import StencilKernel
from repro.symbolic.cone_expression import ConeExpressions, ElementKey
from repro.symbolic.dependency import ConeDomain, analyze_footprint
from repro.symbolic.executor import SymbolicExecutor
from repro.symbolic.expression import (
    Expression,
    ExpressionBuilder,
    collect_symbols,
    count_nodes,
    count_operations,
)
from repro.utils.geometry import Offset, Window
from repro.utils.validation import check_positive


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
            return builder.symbol(field, offset, component, level=0)
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
