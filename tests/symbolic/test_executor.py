"""Unit tests for single-iteration symbolic execution.

Production lowers the kernel once (``KernelStep``); the recursive
interpreter in ``executor_oracle`` walks its trees.  Every behaviour below
is checked on both, and the step must make the interpreter's builder calls
exactly.
"""

import pytest

from executor_oracle import SymbolicExecutor, interned_nodes
from fresh_cone_oracle import collect_symbols, reachable

from repro.algorithms.registry import get_algorithm, list_algorithms
from repro.frontend.dsl import stencil_kernel
from repro.frontend.kernel_ir import (BinOpKind, BinaryOp, FieldDecl,
                                      FieldRead, FieldUpdate, ParamRef,
                                      StencilKernel)
from repro.symbolic.executor import (BINARY, CONSTANT, READONLY,
                                     READONLY_LEVEL, STATE, TERNARY,
                                     KernelStep)
from repro.symbolic.expression import (Constant, ExpressionBuilder, OpKind,
                                       evaluate)
from repro.utils.geometry import Offset


def step_once(kernel, target=Offset(0, 0), params=None, builder=None,
              element=None):
    """The lowered step at ``target``: ``(field, component) -> expression``,
    state reads as level-0 symbols unless ``element`` resolves them."""
    builder = builder if builder is not None else ExpressionBuilder()
    step = KernelStep(kernel, params)
    values = step.run(builder, target.dx, target.dy, 0,
                      element or builder.intern_symbol)
    return dict(zip(step.outputs, values))


def oracle_once(kernel, target=Offset(0, 0), params=None, builder=None,
                element=None):
    """The interpreter at ``target``, in the same shape as
    :func:`step_once`."""
    resolver = None
    if element is not None:
        def resolver(field, component, offset):
            return element(field, component, offset.dx, offset.dy, 0)
    return SymbolicExecutor(kernel, builder, params).execute_once(
        target, state_resolver=resolver).expressions


@pytest.fixture(params=["step", "oracle"])
def run_once(request):
    return step_once if request.param == "step" else oracle_once


def gain_kernel():
    return StencilKernel(
        name="k",
        fields=[FieldDecl("f")],
        updates=[FieldUpdate("f", 0, BinaryOp(BinOpKind.MUL, ParamRef("gain"),
                                              FieldRead("f", Offset(0, 0))))],
        params={"gain": 1.0},
    )


def test_igf_execution_produces_nine_symbols(igf_kernel, run_once):
    expr = run_once(igf_kernel)[("f", 0)]
    symbols = collect_symbols([expr])
    assert len(symbols) == 9
    assert all(s.level == 0 for s in symbols)


def test_target_offset_translates_symbols(igf_kernel, run_once):
    expr = run_once(igf_kernel, Offset(4, 7))[("f", 0)]
    offsets = {s.offset for s in collect_symbols([expr])}
    assert Offset(4, 7) in offsets
    assert Offset(5, 8) in offsets
    assert all(3 <= o.dx <= 5 and 6 <= o.dy <= 8 for o in offsets)


def test_chambolle_execution_covers_both_components(chambolle_kernel,
                                                    run_once):
    expressions = run_once(chambolle_kernel)
    assert ("p", 0) in expressions and ("p", 1) in expressions
    symbols = collect_symbols([expressions[("p", 0)]])
    fields = {s.field for s in symbols}
    assert fields == {"p", "g"}
    readonly = [s for s in symbols if s.field == "g"]
    assert all(s.level == READONLY_LEVEL for s in readonly)
    assert all(s.level == 0 for s in symbols if s.field == "p")


def test_parameters_are_folded_as_constants(chambolle_kernel, run_once):
    def constants(params):
        expr = run_once(chambolle_kernel, params=params)[("p", 0)]
        return {node.value for node in reachable([expr])
                if isinstance(node, Constant)}

    # no ParamRef survives symbolic execution: everything is numeric, and
    # an override replaces the kernel's default
    assert 0.25 in constants(None) and 0.5 not in constants(None)
    assert 0.5 in constants({"tau": 0.5})
    assert 0.25 not in constants({"tau": 0.5})


def test_missing_parameter_raises(run_once):
    kernel = gain_kernel()
    kernel.params.pop("gain")
    with pytest.raises(KeyError, match="gain"):
        run_once(kernel)


def test_the_step_reports_a_missing_parameter_when_it_lowers():
    kernel = gain_kernel()
    kernel.params.pop("gain")
    with pytest.raises(KeyError, match="no value supplied for parameter "
                                       "'gain'"):
        KernelStep(kernel)
    assert KernelStep(kernel, params={"gain": 2.0}).code[0] == (CONSTANT,
                                                                2.0)


def test_symbolic_result_matches_numeric_execution(igf_kernel, run_once):
    """Evaluating the symbolic expression must equal running the kernel directly."""
    expr = run_once(igf_kernel)[("f", 0)]
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


def test_state_resolver_hook_is_used(igf_kernel, run_once):
    builder = ExpressionBuilder()
    marker = builder.constant(42.0)
    expressions = run_once(igf_kernel, builder=builder,
                           element=lambda *read: marker)
    # with every read resolved to the same constant, the result is constant
    assert evaluate(expressions[("f", 0)], {}) == pytest.approx(42.0)


def test_shared_builder_shares_subexpressions(igf_kernel, run_once):
    builder = ExpressionBuilder()
    run_once(igf_kernel, Offset(0, 0), builder=builder)
    count_after_first = builder.interned_node_count
    run_once(igf_kernel, Offset(1, 0), builder=builder)
    count_after_second = builder.interned_node_count
    # the second execution shares the coefficient constants and the symbols of
    # the overlapping footprint, so it adds fewer nodes than the first
    assert count_after_second - count_after_first < count_after_first


# ---------------------------------------------------------------------- #
# the lowering


@pytest.mark.parametrize("simplify", [True, False])
@pytest.mark.parametrize("name", list_algorithms())
def test_the_step_makes_the_interpreters_builder_calls(name, simplify):
    kernel = get_algorithm(name).kernel()
    logs = []
    for run in (step_once, oracle_once):
        builder = ExpressionBuilder(simplify=simplify)
        builder.record = []
        for target in (Offset(0, 0), Offset(2, -1), Offset(0, 0)):
            expressions = run(kernel, target, builder=builder)
        logs.append((builder.record, interned_nodes(builder),
                     {key: expr.node_id for key, expr in expressions.items()}))
    assert logs[0] == logs[1]


def test_a_negation_lowers_to_operand_zero_then_sub():
    def define(k):
        f = k.field("f")
        k.update(f, -f(1, 0))

    step = KernelStep(stencil_kernel("neg", define))
    assert step.code == [(STATE, "f", 0, 1, 0), (CONSTANT, 0.0),
                         (BINARY, OpKind.SUB, "sub", False, 1, 0)]
    assert step.roots == (2,)


def test_a_select_lowers_condition_then_both_values():
    def define(k):
        f = k.field("f")
        g = k.field("g")
        k.update(f, k.select(f(0, 0) < 0.5, g(0, 1), f(-1, 0)))

    step = KernelStep(stencil_kernel("sel", define))
    assert step.code == [
        (STATE, "f", 0, 0, 0), (CONSTANT, 0.5),
        (BINARY, OpKind.CMP_LT, "cmp_lt", False, 0, 1),
        (READONLY, "g", 0, 0, 1), (STATE, "f", 0, -1, 0),
        (TERNARY, OpKind.SELECT, "select", False, 2, 3, 4)]


def test_constant_subtrees_are_not_folded_when_lowering():
    def define(k):
        f = k.field("f")
        c = k.param("c", 3.0)
        k.update(f, (c * 2.0) * f(1, 0))

    step = KernelStep(stencil_kernel("fold", define))
    assert step.code[:3] == [(CONSTANT, 3.0), (CONSTANT, 2.0),
                             (BINARY, OpKind.MUL, "mul", True, 0, 1)]
