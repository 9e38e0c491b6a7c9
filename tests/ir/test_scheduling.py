"""Unit tests for pipeline scheduling and its stage rule."""

import pytest

from repro.ir.dfg import DataflowGraph, build_dfg_from_cone
from repro.ir.operators import DataFormat, default_library
from repro.ir.scheduling import pipeline_schedule, place_in_stage
from repro.symbolic.cone_expression import ConeExpressionBuilder
from repro.symbolic.expression import OpKind


def chain_graph(length=4):
    """A linear chain of additions (critical path grows with length)."""
    graph = DataflowGraph("chain")
    node = graph.add_input("x0")
    for index in range(length):
        other = graph.add_input(f"x{index + 1}")
        node = graph.add_op(OpKind.ADD, [node, other])
    graph.add_output(node, "y")
    return graph


def test_critical_path_scales_with_chain_length():
    library = default_library(DataFormat.FIXED16)
    short = pipeline_schedule(chain_graph(2), 4.0, library).critical_path_ns
    long = pipeline_schedule(chain_graph(8), 4.0, library).critical_path_ns
    assert long == pytest.approx(4 * short)


class TestPlaceInStage:
    def test_a_node_without_operands_starts_stage_zero(self):
        assert place_in_stage((), 0.0, 4.0) == (0, 0.0)

    def test_a_node_joins_its_latest_operand_stage_while_it_fits(self):
        # the stage-2 operand decides; the stage-1 operand's delay does not
        assert place_in_stage([(1, 3.5), (2, 1.0)], 2.0, 4.0) == (2, 3.0)

    def test_a_node_that_overflows_the_stage_opens_the_next(self):
        assert place_in_stage([(2, 3.0), (2, 1.0)], 2.0, 4.0) == (3, 2.0)

    def test_an_operator_longer_than_the_period_spans_stages(self):
        assert place_in_stage([(1, 0.5)], 9.0, 4.0) == (4, 1.0)


def test_pipeline_schedule_meets_clock_period():
    graph = chain_graph(10)
    library = default_library(DataFormat.FIXED16)
    period = 4.0
    schedule = pipeline_schedule(graph, period, library)
    assert schedule.pipeline_stages >= 2
    # each stage fits in the period, so the achievable frequency is at least
    # the requested one
    assert schedule.max_frequency_hz >= 1e9 / period * 0.99


def test_pipeline_registers_counted():
    graph = chain_graph(10)
    schedule = pipeline_schedule(graph, 4.0, default_library(DataFormat.FIXED16))
    assert schedule.pipeline_register_count > 0


def test_deeper_cones_have_longer_latency(igf_kernel):
    builder = ConeExpressionBuilder(igf_kernel)
    library = default_library(DataFormat.FIXED16)
    period = 10.3
    shallow = pipeline_schedule(build_dfg_from_cone(builder.build(1, 1)), period, library)
    deep = pipeline_schedule(build_dfg_from_cone(builder.build(1, 3)), period, library)
    assert deep.latency_cycles > shallow.latency_cycles
    assert deep.critical_path_ns > shallow.critical_path_ns


def test_invalid_clock_period_rejected():
    with pytest.raises(ValueError):
        pipeline_schedule(chain_graph(2), 0.0)


def test_single_operator_longer_than_period_gets_multiple_stages():
    graph = DataflowGraph()
    a = graph.add_input("a")
    b = graph.add_input("b")
    div = graph.add_op(OpKind.DIV, [a, b])
    graph.add_output(div, "q")
    library = default_library(DataFormat.FIXED32)
    spec = library.spec_for(OpKind.DIV)
    period = spec.delay_ns / 3.0
    schedule = pipeline_schedule(graph, period, library)
    assert schedule.pipeline_stages >= 3
