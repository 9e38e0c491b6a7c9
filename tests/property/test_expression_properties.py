"""Property-based tests (hypothesis) for the expression DAG and its evaluation."""

import math
import os
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

# the DAG counters live beside the symbolic tests, in the cone oracle
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "symbolic"))
from fresh_cone_oracle import count_nodes  # noqa: E402

from repro.symbolic.expression import ExpressionBuilder, OpKind, evaluate
from repro.utils.geometry import Offset

finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)
small_offsets = st.builds(Offset,
                          st.integers(min_value=-3, max_value=3),
                          st.integers(min_value=-3, max_value=3))


@st.composite
def expression_and_bindings(draw, max_symbols=4, max_ops=8):
    """Build a random expression over a few symbols plus value bindings."""
    builder = ExpressionBuilder()
    offsets = draw(st.lists(small_offsets, min_size=1, max_size=max_symbols,
                            unique=True))
    symbols = [builder.intern_symbol("f", 0, offset.dx, offset.dy, 0)
               for offset in offsets]
    bindings = {}
    for offset in offsets:
        bindings[("f", 0, offset.dx, offset.dy, 0)] = draw(finite_floats)
    pool = list(symbols) + [builder.constant(draw(finite_floats))]
    op_choices = [OpKind.ADD, OpKind.SUB, OpKind.MUL, OpKind.MIN, OpKind.MAX]
    for _ in range(draw(st.integers(min_value=0, max_value=max_ops))):
        kind = draw(st.sampled_from(op_choices))
        a = draw(st.sampled_from(pool))
        b = draw(st.sampled_from(pool))
        pool.append(builder.operation(kind, a, b))
    return builder, pool[-1], bindings


@given(expression_and_bindings())
@settings(max_examples=60, deadline=None)
def test_evaluation_is_deterministic(data):
    _, expr, bindings = data
    assert evaluate(expr, bindings) == evaluate(expr, bindings)


@given(expression_and_bindings())
@settings(max_examples=60, deadline=None)
def test_evaluation_is_finite_for_division_free_expressions(data):
    _, expr, bindings = data
    value = evaluate(expr, bindings)
    assert math.isfinite(value)


@given(expression_and_bindings())
@settings(max_examples=60, deadline=None)
def test_interning_never_creates_duplicate_structures(data):
    builder, expr, _ = data
    # the number of reachable nodes can never exceed the number of interned
    # nodes tracked by the builder
    assert count_nodes([expr]) <= builder.interned_node_count


@given(st.lists(finite_floats, min_size=2, max_size=2),
       st.sampled_from([OpKind.ADD, OpKind.MUL, OpKind.MIN, OpKind.MAX]))
@settings(max_examples=80, deadline=None)
def test_commutative_interning_matches_numeric_commutativity(values, kind):
    builder = ExpressionBuilder()
    a = builder.intern_symbol("f", 0, 0, 0, 0)
    b = builder.intern_symbol("f", 0, 1, 0, 0)
    left = builder.operation(kind, a, b)
    right = builder.operation(kind, b, a)
    assert left is right
    bindings = {("f", 0, 0, 0, 0): values[0], ("f", 0, 1, 0, 0): values[1]}
    assert evaluate(left, bindings) == evaluate(right, bindings)


@given(finite_floats, finite_floats)
@settings(max_examples=80, deadline=None)
def test_constant_folding_matches_python_arithmetic(a, b):
    builder = ExpressionBuilder()
    left, right = builder.constant(a), builder.constant(b)
    total = builder.operation(OpKind.ADD, left, right)
    product = builder.operation(OpKind.MUL, left, right)
    assert evaluate(total, {}) == a + b
    assert evaluate(product, {}) == a * b


@given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3))
@settings(max_examples=20, deadline=None)
def test_cone_register_count_is_monotone_in_window_and_depth(window, depth):
    from repro.algorithms import get_algorithm
    from repro.symbolic.cone_expression import ConeExpressionBuilder

    builder = ConeExpressionBuilder(get_algorithm("blur").kernel())
    base = builder.build(window, depth).register_count
    wider = builder.build(window + 1, depth).register_count
    deeper = builder.build(window, depth + 1).register_count
    assert wider > base
    assert deeper > base
