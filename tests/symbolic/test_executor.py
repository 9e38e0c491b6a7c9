"""Unit tests for single-iteration symbolic execution."""

import pytest

from fresh_cone_oracle import collect_symbols

from repro.symbolic.executor import READONLY_LEVEL, SymbolicExecutor
from repro.symbolic.expression import ExpressionBuilder, evaluate
from repro.utils.geometry import Offset


def test_igf_execution_produces_nine_symbols(igf_kernel):
    executor = SymbolicExecutor(igf_kernel)
    frame = executor.execute_once()
    expr = frame.expression("f")
    symbols = collect_symbols([expr])
    assert len(symbols) == 9
    assert all(s.level == 0 for s in symbols)


def test_target_offset_translates_symbols(igf_kernel):
    executor = SymbolicExecutor(igf_kernel)
    frame = executor.execute_once(Offset(4, 7))
    offsets = {s.offset for s in collect_symbols([frame.expression("f")])}
    assert Offset(4, 7) in offsets
    assert Offset(5, 8) in offsets
    assert all(3 <= o.dx <= 5 and 6 <= o.dy <= 8 for o in offsets)


def test_chambolle_execution_covers_both_components(chambolle_kernel):
    executor = SymbolicExecutor(chambolle_kernel)
    frame = executor.execute_once()
    assert ("p", 0) in frame.expressions and ("p", 1) in frame.expressions
    symbols = collect_symbols([frame.expression("p", 0)])
    fields = {s.field for s in symbols}
    assert fields == {"p", "g"}
    readonly = [s for s in symbols if s.field == "g"]
    assert all(s.level == READONLY_LEVEL for s in readonly)


def test_parameters_are_folded_as_constants(chambolle_kernel):
    executor = SymbolicExecutor(chambolle_kernel, params={"tau": 0.5})
    assert executor.params["tau"] == 0.5
    frame = executor.execute_once()
    # no ParamRef survives symbolic execution: everything is numeric
    assert frame.expression("p", 0) is not None


def test_missing_parameter_raises():
    from repro.frontend.dsl import stencil_kernel
    from repro.frontend.kernel_ir import ParamRef, BinaryOp, BinOpKind, FieldRead, FieldUpdate, FieldDecl, StencilKernel
    from repro.utils.geometry import Offset as Off

    kernel = StencilKernel(
        name="k",
        fields=[FieldDecl("f")],
        updates=[FieldUpdate("f", 0, BinaryOp(BinOpKind.MUL, ParamRef("gain"),
                                              FieldRead("f", Off(0, 0))))],
        params={"gain": 1.0},
    )
    executor = SymbolicExecutor(kernel)
    executor.params.pop("gain")
    with pytest.raises(KeyError):
        executor.execute_once()


def test_symbolic_result_matches_numeric_execution(igf_kernel):
    """Evaluating the symbolic expression must equal running the kernel directly."""
    executor = SymbolicExecutor(igf_kernel)
    expr = executor.execute_once().expression("f")
    values = {}
    acc = 0.0
    weights = {(0, 0): 0.25,
               (1, 0): 0.125, (-1, 0): 0.125, (0, 1): 0.125, (0, -1): 0.125,
               (1, 1): 0.0625, (-1, 1): 0.0625, (1, -1): 0.0625, (-1, -1): 0.0625}
    for (dx, dy), weight in weights.items():
        value = 1.0 + 0.1 * dx + 0.01 * dy
        values[("f", 0, dx, dy, 0)] = value
        acc += weight * value
    assert evaluate(expr, values) == pytest.approx(acc)


def test_state_resolver_hook_is_used(igf_kernel):
    builder = ExpressionBuilder()
    executor = SymbolicExecutor(igf_kernel, builder)
    marker = builder.constant(42.0)
    frame = executor.execute_once(state_resolver=lambda f, c, off: marker)
    # with every read resolved to the same constant, the result is constant
    expr = frame.expression("f")
    assert evaluate(expr, {}) == pytest.approx(42.0)


def test_shared_builder_shares_subexpressions(igf_kernel):
    builder = ExpressionBuilder()
    executor = SymbolicExecutor(igf_kernel, builder)
    executor.execute_once(Offset(0, 0))
    count_after_first = builder.interned_node_count
    executor.execute_once(Offset(1, 0))
    count_after_second = builder.interned_node_count
    # the second execution shares the coefficient constants and the symbols of
    # the overlapping footprint, so it adds fewer nodes than the first
    assert count_after_second - count_after_first < count_after_first
