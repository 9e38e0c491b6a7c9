"""Unit tests for the dataflow graph."""

import pytest

from dfg_interpreter import evaluate_dfg

from repro.ir.dfg import DataflowGraph, NodeKind, build_dfg_from_cone
from repro.symbolic.cone_expression import ConeExpressionBuilder
from repro.symbolic.expression import COMMUTATIVE, OpKind


def make_simple_graph():
    """(a + b) * 2 with the product also driving a second output."""
    graph = DataflowGraph("simple")
    a = graph.add_input("a")
    b = graph.add_input("b")
    two = graph.add_const(2.0)
    add = graph.add_op(OpKind.ADD, [a, b])
    mul = graph.add_op(OpKind.MUL, [add, two])
    graph.add_output(mul, "y")
    graph.add_output(add, "s")
    return graph


class TestConstruction:
    def test_counts(self):
        graph = make_simple_graph()
        assert len(graph.input_nodes) == 2
        assert len(graph.const_nodes) == 1
        assert graph.operation_count() == 2
        assert len(graph.output_nodes) == 2
        assert graph.register_count == 4  # 2 ops + 2 inputs

    def test_unknown_operand_rejected(self):
        graph = DataflowGraph()
        with pytest.raises(KeyError):
            graph.add_op(OpKind.ADD, [0, 1])
        with pytest.raises(KeyError):
            graph.add_output(99, "y")

    def test_users_tracking(self):
        graph = make_simple_graph()
        add_node = next(n for n in graph.operation_nodes if n.op_kind is OpKind.ADD)
        users = graph.users_of(add_node.node_id)
        assert len(users) == 2  # the multiply and the second output


class TestTraversal:
    def test_topological_order_respects_dependencies(self):
        graph = make_simple_graph()
        order = [n.node_id for n in graph.topological_order()]
        position = {nid: i for i, nid in enumerate(order)}
        for node in graph.nodes():
            for operand in node.operands:
                assert position[operand] < position[node.node_id]

    def test_topological_order_is_sorted_once_per_graph_state(
            self, monkeypatch):
        graph = make_simple_graph()
        sorts = []
        real = graph._sort_topologically
        monkeypatch.setattr(graph, "_sort_topologically",
                            lambda: sorts.append(1) or real())
        first = graph.topological_order()
        first.clear()  # callers get their own list
        assert graph.topological_order() == real()
        assert len(sorts) == 1
        graph.add_output(graph.add_input("c"), "c_out")
        assert len(graph.topological_order()) == 9
        assert len(sorts) == 2

    def test_duplicate_operand_is_handled(self):
        graph = DataflowGraph()
        a = graph.add_input("a")
        square = graph.add_op(OpKind.MUL, [a, a])
        graph.add_output(square, "y")
        assert len(graph.topological_order()) == 3
        graph.validate()

    def test_validate_checks_arity(self):
        graph = DataflowGraph()
        a = graph.add_input("a")
        node = graph.add_op(OpKind.ADD, [a, a])
        graph.node(node).operands = (a,)
        with pytest.raises(ValueError, match="expects 2 operands"):
            graph.validate()


class TestEvaluation:
    def test_evaluate_simple_graph(self):
        graph = make_simple_graph()
        outputs = evaluate_dfg(graph, {"a": 3.0, "b": 4.0})
        assert outputs == {"y": 14.0, "s": 7.0}

    def test_missing_input_raises(self):
        with pytest.raises(KeyError):
            evaluate_dfg(make_simple_graph(), {"a": 1.0})


class TestLoweringFromCone:
    def test_lowering_preserves_counts(self, igf_kernel):
        cone = ConeExpressionBuilder(igf_kernel).build(2, 2)
        graph = build_dfg_from_cone(cone)
        assert graph.operation_count() == cone.operation_count
        assert len(graph.input_nodes) == cone.input_count
        assert len(graph.output_nodes) == cone.output_count

    def test_lowering_gives_unique_port_names(self, chambolle_kernel):
        cone = ConeExpressionBuilder(chambolle_kernel).build(2, 1)
        graph = build_dfg_from_cone(cone)
        input_names = [n.name for n in graph.input_nodes]
        output_names = [n.name for n in graph.output_nodes]
        assert len(set(input_names)) == len(input_names)
        assert len(set(output_names)) == len(output_names)

    def test_cone_lowered_graph_is_already_maximally_shared(self,
                                                            igf_kernel):
        """Hash-consing in the symbolic layer leaves no two structurally
        equal nodes in the lowered graph."""
        cone = ConeExpressionBuilder(igf_kernel).build(3, 2)
        graph = build_dfg_from_cone(cone)
        structures = set()
        for node in graph.topological_order():
            operands = node.operands
            if node.kind is NodeKind.OP and node.op_kind in COMMUTATIVE:
                operands = tuple(sorted(operands))
            structure = (node.kind, node.op_kind, node.value, operands,
                         node.port)
            assert structure not in structures, node.name
            structures.add(structure)

    def test_lowered_graph_validates(self, igf_kernel):
        cone = ConeExpressionBuilder(igf_kernel).build(3, 2)
        graph = build_dfg_from_cone(cone)
        graph.validate()

    def test_lowered_graph_evaluates_like_expressions(self, igf_kernel):
        from repro.symbolic.expression import evaluate
        cone = ConeExpressionBuilder(igf_kernel).build(1, 1)
        graph = build_dfg_from_cone(cone)
        inputs = {}
        bindings = {}
        for index, node in enumerate(graph.input_nodes):
            field, component, offset, level = node.port
            value = 0.5 + 0.1 * index
            inputs[node.name] = value
            bindings[(field, component, offset.dx, offset.dy, level)] = value
        dfg_outputs = evaluate_dfg(graph, inputs)
        expr_value = evaluate(next(iter(cone.outputs.values())), bindings)
        assert list(dfg_outputs.values())[0] == pytest.approx(expr_value)
