"""Unit tests for the hash-consed expression DAG."""

import pytest

from fresh_cone_oracle import collect_symbols, count_nodes, count_operations

from repro.symbolic.expression import (
    Constant,
    ExpressionBuilder,
    OpKind,
    Operation,
    evaluate,
)


@pytest.fixture()
def builder():
    return ExpressionBuilder()


class TestInterning:
    def test_symbols_are_interned(self, builder):
        a = builder.intern_symbol("f", 0, 1, 0, 0)
        b = builder.intern_symbol("f", 0, 1, 0, 0)
        c = builder.intern_symbol("f", 0, 0, 1, 0)
        assert a is b
        assert a is not c

    def test_symbols_distinguish_component_and_level(self, builder):
        base = builder.intern_symbol("p", 0, 0, 0, 0)
        other_component = builder.intern_symbol("p", 1, 0, 0, 0)
        other_level = builder.intern_symbol("p", 0, 0, 0, 2)
        assert len({id(base), id(other_component), id(other_level)}) == 3

    def test_constants_are_interned(self, builder):
        assert builder.constant(0.5) is builder.constant(0.5)
        assert builder.constant(0.5) is not builder.constant(0.25)

    def test_operations_are_interned(self, builder):
        a = builder.intern_symbol("f", 0, 0, 0, 0)
        b = builder.intern_symbol("f", 0, 1, 0, 0)
        assert (builder.operation(OpKind.ADD, a, b)
                is builder.operation(OpKind.ADD, a, b))

    def test_commutative_operands_canonicalised(self, builder):
        a = builder.intern_symbol("f", 0, 0, 0, 0)
        b = builder.intern_symbol("f", 0, 1, 0, 0)
        assert (builder.operation(OpKind.ADD, a, b)
                is builder.operation(OpKind.ADD, b, a))
        assert (builder.operation(OpKind.MUL, a, b)
                is builder.operation(OpKind.MUL, b, a))

    def test_non_commutative_order_preserved(self, builder):
        a = builder.intern_symbol("f", 0, 0, 0, 0)
        b = builder.intern_symbol("f", 0, 1, 0, 0)
        assert (builder.operation(OpKind.SUB, a, b)
                is not builder.operation(OpKind.SUB, b, a))

    def test_node_count_tracks_interning(self, builder):
        a = builder.intern_symbol("f", 0, 0, 0, 0)
        b = builder.intern_symbol("f", 0, 1, 0, 0)
        builder.operation(OpKind.ADD, a, b)
        builder.operation(OpKind.ADD, a, b)
        assert builder.interned_node_count == 3
        assert builder.interned_operation_count == 1
        assert builder.interned_symbol_count == 2


class TestSimplification:
    def test_constant_folding(self, builder):
        result = builder.operation(OpKind.ADD, builder.constant(2.0),
                                   builder.constant(3.0))
        assert isinstance(result, Constant)
        assert result.value == 5.0

    def test_add_zero_identity(self, builder):
        x = builder.intern_symbol("f", 0, 0, 0, 0)
        assert builder.operation(OpKind.ADD, x, builder.constant(0.0)) is x
        assert builder.operation(OpKind.ADD, builder.constant(0.0), x) is x

    def test_mul_identities(self, builder):
        x = builder.intern_symbol("f", 0, 0, 0, 0)
        assert builder.operation(OpKind.MUL, x, builder.constant(1.0)) is x
        zero = builder.operation(OpKind.MUL, x, builder.constant(0.0))
        assert isinstance(zero, Constant) and zero.value == 0.0

    def test_sub_self_is_zero(self, builder):
        x = builder.intern_symbol("f", 0, 0, 0, 0)
        result = builder.operation(OpKind.SUB, x, x)
        assert isinstance(result, Constant) and result.value == 0.0

    def test_div_by_one_and_zero(self, builder):
        x = builder.intern_symbol("f", 0, 0, 0, 0)
        assert builder.operation(OpKind.DIV, x, builder.constant(1.0)) is x
        with pytest.raises(ZeroDivisionError):
            builder.operation(OpKind.DIV, x, builder.constant(0.0))

    def test_min_max_of_same_operand(self, builder):
        x = builder.intern_symbol("f", 0, 0, 0, 0)
        assert builder.operation(OpKind.MIN, x, x) is x
        assert builder.operation(OpKind.MAX, x, x) is x

    def test_select_with_constant_condition(self, builder):
        a = builder.intern_symbol("f", 0, 0, 0, 0)
        b = builder.intern_symbol("f", 0, 1, 0, 0)
        chosen = builder.operation(OpKind.SELECT, builder.constant(1.0), a, b)
        assert chosen is a
        chosen = builder.operation(OpKind.SELECT, builder.constant(0.0), a, b)
        assert chosen is b

    def test_simplification_can_be_disabled(self):
        raw = ExpressionBuilder(simplify=False)
        x = raw.intern_symbol("f", 0, 0, 0, 0)
        result = raw.operation(OpKind.ADD, x, raw.constant(0.0))
        assert isinstance(result, Operation)


class TestTraversalAndEvaluation:
    def test_arity_enforced(self, builder):
        x = builder.intern_symbol("f", 0, 0, 0, 0)
        with pytest.raises(ValueError):
            builder.operation(OpKind.ADD, x)

    def test_count_nodes_shared_dag(self, builder):
        x = builder.intern_symbol("f", 0, 0, 0, 0)
        y = builder.intern_symbol("f", 0, 1, 0, 0)
        s = builder.operation(OpKind.ADD, x, y)
        expr = builder.operation(OpKind.MUL, s, s)
        assert count_nodes([expr]) == 4  # x, y, add, mul

    def test_count_operations_by_kind(self, builder):
        x = builder.intern_symbol("f", 0, 0, 0, 0)
        y = builder.intern_symbol("f", 0, 1, 0, 0)
        expr = builder.operation(OpKind.MUL,
                                 builder.operation(OpKind.ADD, x, y),
                                 builder.operation(OpKind.SUB, x, y))
        counts = count_operations([expr])
        assert counts == {OpKind.ADD: 1, OpKind.SUB: 1, OpKind.MUL: 1}

    def test_collect_symbols(self, builder):
        x = builder.intern_symbol("f", 0, 0, 0, 0)
        y = builder.intern_symbol("g", 0, 1, 0, -1)
        expr = builder.operation(OpKind.ADD, x, y)
        symbols = collect_symbols([expr])
        assert {s.field for s in symbols} == {"f", "g"}

    def test_evaluate_expression(self, builder):
        x = builder.intern_symbol("f", 0, 0, 0, 0)
        y = builder.intern_symbol("f", 0, 1, 0, 0)
        expr = builder.operation(
            OpKind.ADD,
            builder.operation(OpKind.MUL, builder.constant(2.0), x), y)
        value = evaluate(expr, {("f", 0, 0, 0, 0): 3.0, ("f", 0, 1, 0, 0): 4.0})
        assert value == 10.0

    def test_evaluate_missing_binding_raises(self, builder):
        x = builder.intern_symbol("f", 0, 0, 0, 0)
        with pytest.raises(KeyError):
            evaluate(x, {})

    def test_evaluate_sqrt_and_select(self, builder):
        x = builder.intern_symbol("f", 0, 0, 0, 0)
        expr = builder.operation(OpKind.SELECT, 
            builder.operation(OpKind.CMP_GT, x, builder.constant(0.0)),
            builder.operation(OpKind.SQRT, x),
            builder.constant(0.0))
        assert evaluate(expr, {("f", 0, 0, 0, 0): 9.0}) == 3.0
        assert evaluate(expr, {("f", 0, 0, 0, 0): -1.0}) == 0.0

    def test_depth_tracking(self, builder):
        x = builder.intern_symbol("f", 0, 0, 0, 0)
        expr = builder.operation(
            OpKind.ADD,
            builder.operation(OpKind.ADD, x, builder.constant(1.0)),
            builder.constant(2.0))
        assert expr.depth == 2
