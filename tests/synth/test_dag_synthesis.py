"""Synthesis on the shared cone DAG against synthesis by lowering.

``Synthesizer.synthesize`` reads a cone's expression DAG and keeps per-node
mapping and scheduling results in the DAG memo the builder's cones share.
These tests hold it to ``dfg_synthesis_oracle`` (lower the cone, map and
pipeline the DFG node by node), count the per-node work, and check that the
memo is kept apart per library and clock and dies with its builder.
"""

import dataclasses
import gc
import weakref

import pytest

from dfg_synthesis_oracle import oracle_synthesize

from repro.algorithms import get_algorithm
from repro.dse.explorer import DesignSpaceExplorer
from repro.ir.operators import DataFormat, default_library
from repro.symbolic.cone_expression import ConeExpressionBuilder
from repro.symbolic.expression import OpKind, Operation
from repro.synth.fpga_device import VIRTEX2P_XC2VP30, VIRTEX6_XC6VLX760
from repro.synth.synthesizer import Synthesizer

#: The paper configuration's cone shapes, in the explorer's order.
PAPER_GRID = [(window, depth) for depth in range(1, 6)
              for window in range(1, 10)]


def test_each_node_is_placed_once_per_dag(igf_kernel, monkeypatch):
    builder = ConeExpressionBuilder(igf_kernel)
    cones = [builder.build(window, depth) for window, depth in PAPER_GRID]
    synthesizer = Synthesizer(library=default_library(DataFormat.FIXED16))
    placed = []
    place = synthesizer._place
    monkeypatch.setattr(
        synthesizer, "_place",
        lambda node, *args: placed.append(node.node_id) or place(node, *args))
    for cone in cones:
        synthesizer.synthesize(cone)

    (memo,) = cones[0].dag_memo.values()
    # every distinct node of the 45 cones, against the DFG nodes that
    # lowering each cone on its own would build
    assert len(memo) == 9_279
    assert sum(cone.register_count + cone.output_count
               for cone in cones) == 105_450
    assert len(placed) == len(set(placed))
    assert set(placed) == {node_id for node_id, node in memo.items()
                           if node.luts > 0}

    placed.clear()
    for cone in cones:
        synthesizer.synthesize(cone)
    assert placed == []
    assert synthesizer.runs == 2 * len(cones)


def test_the_memo_is_kept_per_library_and_clock(igf_kernel):
    fixed16 = default_library(DataFormat.FIXED16)
    synthesizers = [
        Synthesizer(VIRTEX6_XC6VLX760, fixed16),
        # same library and clock: shares the first one's memo
        Synthesizer(VIRTEX6_XC6VLX760, fixed16),
        Synthesizer(VIRTEX6_XC6VLX760, default_library(DataFormat.FIXED32)),
        # another clock
        Synthesizer(VIRTEX2P_XC2VP30, fixed16),
    ]
    builder = ConeExpressionBuilder(igf_kernel)
    for window, depth in [(2, 1), (3, 2), (1, 3)]:
        cone = builder.build(window, depth)
        for synthesizer in synthesizers:
            oracle = Synthesizer(synthesizer.device, synthesizer.library)
            assert synthesizer.synthesize(cone) \
                == oracle_synthesize(oracle, cone)
    assert len(cone.dag_memo) == 3


def test_the_memo_dies_with_its_builder(igf_kernel, monkeypatch):
    class Memo(dict):
        """A dict that can be weakly referenced."""

    memos = []
    init = ConeExpressionBuilder.__init__

    def tracking_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._dag_memo = Memo()
        memos.append(weakref.ref(self._dag_memo))

    monkeypatch.setattr(ConeExpressionBuilder, "__init__", tracking_init)
    explorer = DesignSpaceExplorer(igf_kernel, window_sides=(1, 2, 3),
                                   max_depth=2, synthesize_all=True)
    explorer.characterize_cones(4)
    gc.collect()
    assert explorer.synthesizer.runs == 6
    assert len(memos) == 1
    assert memos[0]() is None


def test_an_operation_with_the_wrong_operand_count_is_rejected(igf_kernel):
    cone = ConeExpressionBuilder(igf_kernel).build(1, 1)
    port = next(iter(cone.outputs))
    short_add = Operation(10 ** 9, OpKind.ADD, (cone.input_symbols[0],))
    broken = dataclasses.replace(cone, outputs={port: short_add})
    with pytest.raises(ValueError, match="add expects 2 operands, has 1"):
        Synthesizer().synthesize(broken)


@pytest.mark.slow
@pytest.mark.parametrize("data_format",
                         [DataFormat.FIXED16, DataFormat.FIXED32],
                         ids=lambda data_format: data_format.value)
@pytest.mark.parametrize("algorithm", ["blur", "chamb"])
def test_the_paper_grid_matches_the_oracle(algorithm, data_format):
    builder = ConeExpressionBuilder(get_algorithm(algorithm).kernel())
    synthesizer = Synthesizer(library=default_library(data_format))
    oracle = Synthesizer(library=default_library(data_format))
    for window, depth in PAPER_GRID:
        cone = builder.build(window, depth)
        assert synthesizer.synthesize(cone) == oracle_synthesize(oracle, cone)
    assert synthesizer.runs == oracle.runs == len(PAPER_GRID)
    assert synthesizer.total_tool_runtime_s == oracle.total_tool_runtime_s
