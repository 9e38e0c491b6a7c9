"""The shared cone DAG against the per-cone fresh builder.

One :class:`ConeExpressionBuilder` builds every cone of a kernel on one
expression builder.  Its replay must make each cone indistinguishable from
a cone built on a builder of its own (``fresh_cone_oracle``): the counts,
the input symbol order, the DFG, the synthesis reports and the VHDL text.
The synthesis reports of the shared cones come from ``Synthesizer``
reading the shared DAG, with one synthesizer per format for all the cones
of a builder, so its DAG memo carries over from cone to cone; the fresh
cones are synthesized by lowering (``dfg_synthesis_oracle``).
The cones are built in the explorer's order (depth-major) and in a seeded
shuffled order, since the replay must not depend on which cones came first.
Each element's expansion runs the kernel's lowered step; a builder whose
expansions walk the kernel's trees instead (``executor_oracle``) must end
every build with the same interned nodes, records and memo.
"""

import os
import random
import sys

import pytest

from executor_oracle import cone_builder_state, interpreted_cone_builder
from fresh_cone_oracle import cone_summary, dfg_nodes, fresh_build

# the synthesis oracle lives beside the synthesis tests
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "synth"))
from dfg_synthesis_oracle import oracle_synthesize  # noqa: E402

from repro.algorithms.registry import get_algorithm, list_algorithms
from repro.codegen.vhdl_writer import VhdlWriter
from repro.frontend.dsl import stencil_kernel
from repro.ir.dfg import build_dfg_from_cone
from repro.ir.operators import DataFormat, default_library
from repro.symbolic.cone_expression import ConeExpressionBuilder
from repro.symbolic.executor import ConstantFoldError
from repro.symbolic.expression import (Constant, ExpressionBuilder,
                                       FieldSymbol, OpKind, Operation)
from repro.synth.synthesizer import Synthesizer
from repro.utils.geometry import Offset

WINDOWS = (1, 2, 3, 4, 5)
DEPTHS = (1, 2, 3, 4)
#: The explorer characterizes depth family by depth family.
EXPLORER_ORDER = [(window, depth) for depth in DEPTHS for window in WINDOWS]
FORMATS = (DataFormat.FIXED16, DataFormat.FIXED32)


def shuffled_order(seed):
    order = list(EXPLORER_ORDER)
    random.Random(seed).shuffle(order)
    return order


def oracle_synthesis(cone, data_format):
    """The cone lowered to a DFG and synthesized, as the flow once did."""
    return oracle_synthesize(Synthesizer(library=default_library(data_format)),
                             cone)


def dag_synthesis():
    """``synthesize(cone, data_format)`` on one synthesizer per format, so
    the cones of one builder share their DAG memo."""
    synthesizers = {data_format: Synthesizer(library=default_library(
        data_format)) for data_format in FORMATS}
    return lambda cone, data_format: \
        synthesizers[data_format].synthesize(cone)


def fingerprint(cone, synthesize=oracle_synthesis):
    """Everything the flow derives from one cone."""
    graph = build_dfg_from_cone(cone)
    writer = VhdlWriter(DataFormat.FIXED16)
    return {
        "cone": cone_summary(cone),
        "dfg": dfg_nodes(graph),
        "synthesis": [synthesize(cone, data_format)
                      for data_format in FORMATS],
        "vhdl": writer.generate(graph).code,
    }


def assert_same_cone(shared, expected, synthesize):
    """``expected`` is the fingerprint of the fresh-builder cone."""
    actual = fingerprint(shared, synthesize)
    for part in ("cone", "dfg", "synthesis", "vhdl"):
        assert actual[part] == expected[part], part


@pytest.fixture(scope="module")
def oracle_cones():
    cones = {}
    for name in list_algorithms():
        kernel = get_algorithm(name).kernel()
        for window, depth in EXPLORER_ORDER:
            cones[(name, window, depth)] = fingerprint(
                fresh_build(kernel, window, depth))
    return cones


@pytest.mark.parametrize("order", ["explorer", "shuffled"])
@pytest.mark.parametrize("name", list_algorithms())
def test_shared_builder_reproduces_every_fresh_cone(name, order, oracle_cones):
    kernel = get_algorithm(name).kernel()
    builder = ConeExpressionBuilder(kernel)
    synthesize = dag_synthesis()
    shapes = (EXPLORER_ORDER if order == "explorer"
              else shuffled_order(sum(map(ord, name))))
    for window, depth in shapes:
        assert_same_cone(builder.build(window, depth),
                         oracle_cones[(name, window, depth)], synthesize)


def test_only_the_first_build_of_a_builder_skips_the_replay(igf_kernel,
                                                           monkeypatch):
    builder = ConeExpressionBuilder(igf_kernel)
    replays = []
    replay = builder._replay
    monkeypatch.setattr(builder, "_replay",
                        lambda requests: replays.append(1) or replay(requests))
    builder.build(2, 2)
    assert replays == []
    again = builder.build(2, 2)
    assert replays == [1]
    assert_same_cone(again, fingerprint(fresh_build(igf_kernel, 2, 2)),
                     dag_synthesis())


@pytest.mark.parametrize("name", list_algorithms())
def test_the_lowered_step_expands_as_the_interpreter(name):
    kernel = get_algorithm(name).kernel()
    production = ConeExpressionBuilder(kernel)
    interpreted = interpreted_cone_builder(kernel)
    for window, depth in EXPLORER_ORDER:
        production.build(window, depth)
        interpreted.build(window, depth)
        assert cone_builder_state(production) \
            == cone_builder_state(interpreted), (window, depth)


def test_a_constant_subtree_keeps_its_constants_ids():
    """``(c * 2) * f[1,0] + f[0,0] * c``: folding ``c * 2`` when lowering
    would skip creating ``const c`` before ``f[0,0]`` and flip the reachable
    ``mul``'s operands."""
    def define(k):
        f = k.field("f")
        c = k.param("c", 3.0)
        k.update(f, (c * 2.0) * f(1, 0) + f(0, 0) * c)

    kernel = stencil_kernel("folded", define)
    production = ConeExpressionBuilder(kernel)
    interpreted = interpreted_cone_builder(kernel)
    for window, depth in [(1, 1), (2, 2), (1, 2)]:
        production.build(window, depth)
        interpreted.build(window, depth)
        assert cone_builder_state(production) \
            == cone_builder_state(interpreted)
    cone = production.build(1, 1)
    sums = [expr for expr in cone.outputs.values()
            if isinstance(expr, Operation) and expr.kind is OpKind.ADD]
    assert len(sums) == 1
    products = [operand for operand in sums[0].operands
                if isinstance(operand.operands[0], Constant)
                and operand.operands[0].value == 3.0]
    assert len(products) == 1
    first, second = products[0].operands
    assert isinstance(second, FieldSymbol)
    assert (second.field, second.offset, second.level) \
        == ("f", Offset(0, 0), 0)
    assert first.node_id < second.node_id


def test_each_element_is_expanded_once_per_builder(chambolle_kernel,
                                                   monkeypatch):
    builder = ConeExpressionBuilder(chambolle_kernel)
    expansions = []
    expand = builder._expand

    def counting(dx, dy, level):
        expansions.append((dx, dy, level))
        return expand(dx, dy, level)

    monkeypatch.setattr(builder, "_expand", counting)
    for window, depth in EXPLORER_ORDER:
        builder.build(window, depth)
    assert len(expansions) == len(set(expansions))
    # the largest cone expands every element any smaller cone needs; one
    # expansion computes both components of p
    assert len(expansions) * 2 \
        == fresh_build(chambolle_kernel, 5, 4).element_register_count


def test_params_are_shared_by_every_build(chambolle_kernel):
    builder = ConeExpressionBuilder(chambolle_kernel, params={"tau": 0.5})
    synthesize = dag_synthesis()
    for window, depth in [(1, 1), (2, 2), (1, 2)]:
        assert_same_cone(builder.build(window, depth),
                         fingerprint(fresh_build(chambolle_kernel, window,
                                                 depth, params={"tau": 0.5})),
                         synthesize)


def test_a_build_that_fails_mid_expansion_leaves_the_builder_usable(
        igf_kernel, monkeypatch):
    builder = ConeExpressionBuilder(igf_kernel)
    expand = builder._expand
    calls = []

    def failing(dx, dy, level):
        calls.append((dx, dy))
        if len(calls) == 5:
            raise RuntimeError("expansion failed")
        return expand(dx, dy, level)

    monkeypatch.setattr(builder, "_expand", failing)
    with pytest.raises(RuntimeError, match="expansion failed"):
        builder.build(3, 2)
    monkeypatch.undo()
    synthesize = dag_synthesis()
    for window, depth in [(3, 2), (2, 3), (1, 1)]:
        assert_same_cone(builder.build(window, depth),
                         fingerprint(fresh_build(igf_kernel, window, depth)),
                         synthesize)


def test_a_constant_fault_leaves_the_builder_usable():
    def late_zero_divisor(k):
        # f folds to zero after one iteration; the next divides by it
        f, g = k.field("f"), k.field("g")
        k.update(f, f(0, 0) * 0.0)
        k.update(g, g(0, 0) / (f(0, 0) + 1.0) + g(1, 0) / f(0, 0))

    kernel = stencil_kernel("late", late_zero_divisor)
    builder = ConeExpressionBuilder(kernel)
    with pytest.raises(ConstantFoldError) as caught:
        builder.build(2, 2)
    assert (caught.value.cone, caught.value.iteration) == ((2, 2), 2)
    synthesize = dag_synthesis()
    for window, depth in [(2, 1), (3, 1), (1, 1)]:
        assert_same_cone(builder.build(window, depth),
                         fingerprint(fresh_build(kernel, window, depth)),
                         synthesize)
    with pytest.raises(ConstantFoldError) as again:
        builder.build(1, 2)
    assert (again.value.cone, again.value.iteration) == ((1, 2), 2)
    assert str(again.value.fault) == str(caught.value.fault)


def test_expression_builder_records_only_while_asked():
    builder = ExpressionBuilder()
    x = builder.intern_symbol("f", 0, 0, 0, 0)
    assert builder.record is None
    builder.record = []
    y = builder.intern_symbol("f", 0, 1, 0, 0)
    total = builder.operation(OpKind.ADD, x, y)
    zero = builder.constant(0.0)
    # x + 0 simplifies to one of its operands: nothing new to record
    assert builder.operation(OpKind.ADD, total, zero) is total
    assert builder.record == [y.node_id, total.node_id, zero.node_id]
