"""Random stencil kernels for the symbolic differential oracles.

:func:`kernel_cases` draws small kernels through the DSL: one or two state
fields of one or two components, an optional read-only field, reads within
radius 1 or 2, params, and every operator.  It draws on purpose what the
registry kernels reach only by chance: repeated operands (``x - x``,
``min(x, x)``, ``select(c, x, x)``), constant subtrees, the identities the
builder folds (``x * 1``, ``0 / x``, ``x + 0``) and division by a constant.
Divisors stay at least 0.5 away from zero, SQRT reads a non-negative
operand, and every update is clamped to [-4, 4], so the golden model stays
finite on any number of iterations.

:func:`check_kernel_case` runs each drawn kernel through every oracle the
shared cone DAG answers to:

* several cones, built on one ``ConeExpressionBuilder`` in the drawn order,
  against ``fresh_cone_oracle``: counts, input symbols, DFG node list and
  VHDL;
* after each build, that builder against one whose expansions walk the
  kernel's trees (``executor_oracle``) through the same build order: the
  same interned nodes, expansion records and memo node ids;
* the ``Synthesizer`` report of each shared cone against
  ``dfg_synthesis_oracle`` on the fresh cone;
* expression-mode ``FunctionalConeSimulator.run`` against
  ``GoldenExecutor`` on the interior of a frame;
* the builder's simplification contract on every cone: no reachable
  SUB/MIN/MAX whose two operands are one node, no SELECT with equal
  branches and no operation over constants only.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
from hypothesis import strategies as st

from executor_oracle import cone_builder_state, interpreted_cone_builder
from fresh_cone_oracle import cone_summary, dfg_nodes, fresh_build, reachable

# the synthesis oracle lives beside the synthesis tests
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "synth"))
from dfg_synthesis_oracle import oracle_synthesize  # noqa: E402

from repro.codegen.vhdl_writer import VhdlWriter
from repro.frontend.dsl import ExprHandle, KernelBuilder, stencil_kernel
from repro.frontend.kernel_ir import (BinOpKind, BinaryOp, Literal,
                                      StencilKernel)
from repro.ir.dfg import build_dfg_from_cone
from repro.ir.operators import DataFormat, default_library
from repro.simulation.cone_simulator import FunctionalConeSimulator
from repro.simulation.frame import FrameSet
from repro.simulation.golden import GoldenExecutor
from repro.symbolic.cone_expression import ConeExpressionBuilder
from repro.symbolic.expression import Constant, OpKind, Operation
from repro.synth.synthesizer import Synthesizer

#: Literals, including the ones the builder's identities fold.
LITERALS = (0.0, 1.0, -1.0, 0.5, 2.0, 0.25, 3.0)
#: Every update is clamped to [-CLAMP, CLAMP].
CLAMP = 4.0
#: Operator levels of one drawn expression below its clamp.
MAX_DEPTH = 4
FORMATS = (DataFormat.FIXED16, DataFormat.FIXED32, DataFormat.FLOAT32)
COMPARISONS = ("<", "<=", ">", ">=", "==")


@dataclass(frozen=True)
class KernelCase:
    """One drawn kernel and what to build from it."""

    kernel: StencilKernel
    #: Param overrides every consumer receives (``None``: the defaults).
    params: Optional[Dict[str, float]]
    #: Cone shapes ``(window, depth)`` in build order.
    shapes: Tuple[Tuple[int, int], ...]
    data_format: DataFormat
    #: The largest read offset of any field (state or read-only).
    read_radius: int
    #: ``(height, width, seed)`` of the simulated frame.
    frame: Tuple[int, int, int]

    def __repr__(self) -> str:
        return (f"KernelCase(params={self.params}, shapes={self.shapes}, "
                f"format={self.data_format.value}, frame={self.frame},\n"
                f"{self.kernel})")


class _Drawer:
    """Draws the expressions of one kernel over its fields and params."""

    def __init__(self, draw: Callable, k: KernelBuilder,
                 reads: List[Callable[[int, int], ExprHandle]],
                 params: List[ExprHandle], radius: int) -> None:
        self.draw = draw
        self.k = k
        self.reads = reads
        self.params = params
        self.radius = radius

    def leaf(self) -> ExprHandle:
        draw = self.draw
        choice = draw(st.sampled_from(("read", "read", "param", "literal")))
        if choice == "param" and self.params:
            return draw(st.sampled_from(self.params))
        if choice == "literal":
            return _handle(draw(st.sampled_from(LITERALS)))
        read = draw(st.sampled_from(self.reads))
        offsets = st.integers(-self.radius, self.radius)
        return read(draw(offsets), draw(offsets))

    def constant(self, depth: int) -> ExprHandle:
        """A subtree over literals and params only."""
        draw = self.draw
        pool = [_handle(value) for value in LITERALS] + self.params
        value = draw(st.sampled_from(pool))
        for _ in range(draw(st.integers(1, max(depth, 1)))):
            other = draw(st.sampled_from(pool))
            kind = draw(st.sampled_from(("add", "sub", "mul", "min", "max")))
            value = _binary(self.k, kind, value, other)
        return value

    def positive(self, depth: int) -> ExprHandle:
        """An expression of at least 0.5 on any input (a safe divisor)."""
        draw = self.draw
        choice = draw(st.sampled_from(("literal", "abs", "square",
                                       "constant")))
        if choice == "literal":
            return _handle(draw(st.sampled_from((0.5, 1.0, 2.0, 4.0))))
        if choice == "constant":
            return self.k.absolute(self.constant(depth)) + 0.5
        operand = self.expression(depth - 1)
        offset = draw(st.sampled_from((0.5, 1.0)))
        if choice == "abs":
            return self.k.absolute(operand) + offset
        return operand * operand + offset

    def expression(self, depth: int) -> ExprHandle:
        draw = self.draw
        k = self.k
        if depth <= 0:
            return self.leaf()
        choice = draw(st.sampled_from((
            "leaf", "constant", "add", "sub", "mul", "div", "min", "max",
            "neg", "abs", "sqrt", "compare", "select", "same")))
        if choice == "leaf":
            return self.leaf()
        if choice == "constant":
            return self.constant(depth)
        if choice in ("add", "sub", "mul", "min", "max"):
            return _binary(k, choice, self.expression(depth - 1),
                           self.expression(depth - 1))
        if choice == "div":
            numerator = (_handle(0.0) if draw(st.integers(0, 5)) == 0
                         else self.expression(depth - 1))
            return numerator / self.positive(depth - 1)
        if choice == "neg":
            return -self.expression(depth - 1)
        if choice == "abs":
            return k.absolute(self.expression(depth - 1))
        if choice == "sqrt":
            operand = self.expression(depth - 1)
            if draw(st.booleans()):
                return k.sqrt(k.absolute(operand))
            return k.sqrt(operand * operand)
        if choice == "compare":
            return _compare(draw(st.sampled_from(COMPARISONS)),
                            self.expression(depth - 1),
                            self.expression(depth - 1))
        if choice == "select":
            condition = (self.constant(depth) if draw(st.integers(0, 4)) == 0
                         else self.expression(depth - 1))
            return k.select(condition, self.expression(depth - 1),
                            self.expression(depth - 1))
        # the same operand twice, on purpose
        operand = self.expression(depth - 1)
        kind = draw(st.sampled_from(("add", "sub", "mul", "min", "max",
                                     "select")))
        if kind == "select":
            return k.select(self.expression(depth - 1), operand, operand)
        return _binary(k, kind, operand, operand)


def _handle(value: float) -> ExprHandle:
    return ExprHandle(Literal(value))


def _binary(k: KernelBuilder, kind: str, a: ExprHandle,
            b: ExprHandle) -> ExprHandle:
    if kind == "add":
        return a + b
    if kind == "sub":
        return a - b
    if kind == "mul":
        return a * b
    if kind == "min":
        return k.minimum(a, b)
    return k.maximum(a, b)


def _compare(operator: str, a: ExprHandle, b: ExprHandle) -> ExprHandle:
    if operator == "<":
        return a < b
    if operator == "<=":
        return a <= b
    if operator == ">":
        return a > b
    if operator == ">=":
        return a >= b
    # the DSL has no ==: build the kernel IR node it would
    return ExprHandle(BinaryOp(BinOpKind.EQ, a.expr, b.expr))


@st.composite
def kernel_cases(draw) -> KernelCase:
    """A random kernel, its param overrides, cone shapes, format and
    frame."""
    radius = draw(st.integers(1, 2))
    state = [(f"s{index}", draw(st.integers(1, 2)))
             for index in range(draw(st.integers(1, 2)))]
    readonly = draw(st.booleans())
    param_values = draw(st.lists(st.sampled_from((0.5, 1.0, 2.0, -1.0)),
                                 max_size=2))

    def definition(k: KernelBuilder) -> None:
        handles = {name: k.field(name, components)
                   for name, components in state}
        reads: List[Callable[[int, int], ExprHandle]] = [
            handles[name].component(component)
            for name, components in state for component in range(components)]
        if readonly:
            reads.append(k.field("g"))
        params = [k.param(f"p{index}", value)
                  for index, value in enumerate(param_values)]
        drawer = _Drawer(draw, k, reads, params, radius)
        for name, components in state:
            for component in range(components):
                value = drawer.expression(draw(st.integers(2, MAX_DEPTH)))
                k.update(handles[name].component(component),
                         k.minimum(k.maximum(value, -CLAMP), CLAMP))

    kernel = stencil_kernel("rk", definition)
    params = None
    if param_values and draw(st.booleans()):
        params = {"p0": draw(st.sampled_from((0.25, 3.0)))}
    read_radius = max((read.offset.chebyshev() for update in kernel.updates
                       for read in update.expr.reads()), default=0)
    grid = [(window, depth) for window in (1, 2, 3, 4)
            for depth in ((1, 2, 3) if radius == 1 else (1, 2))]
    shapes = draw(st.lists(st.sampled_from(grid), min_size=2, max_size=5,
                           unique=True))
    margin = read_radius * max(depth for _, depth in shapes) + 1
    frame = (2 * margin + draw(st.integers(2, 5)),
             2 * margin + draw(st.integers(2, 5)),
             draw(st.integers(0, 2**16)))
    return KernelCase(kernel=kernel, params=params, shapes=tuple(shapes),
                      data_format=draw(st.sampled_from(FORMATS)),
                      read_radius=read_radius, frame=frame)


def check_kernel_case(case: KernelCase) -> None:
    """Every differential check of the module docstring on one case."""
    kernel, params = case.kernel, case.params
    builder = ConeExpressionBuilder(kernel, params)
    interpreted = interpreted_cone_builder(kernel, params)
    library = default_library(case.data_format)
    # one synthesizer for every shared cone, so its DAG memo carries over
    synthesizer = Synthesizer(library=library)
    writer = VhdlWriter(DataFormat.FIXED16)
    for window, depth in case.shapes:
        shared = builder.build(window, depth)
        interpreted.build(window, depth)
        assert cone_builder_state(builder) \
            == cone_builder_state(interpreted), (window, depth)
        fresh = fresh_build(kernel, window, depth, params)
        assert cone_summary(shared) == cone_summary(fresh), (window, depth)
        shared_graph = build_dfg_from_cone(shared)
        fresh_graph = build_dfg_from_cone(fresh)
        assert dfg_nodes(shared_graph) == dfg_nodes(fresh_graph)
        assert writer.generate(shared_graph).code \
            == writer.generate(fresh_graph).code
        assert synthesizer.synthesize(shared) == oracle_synthesize(
            Synthesizer(library=library), fresh)
        assert_simplified(shared)
    assert_matches_golden(case)


def assert_simplified(cone) -> None:
    """The builder's simplification contract on every node ``cone``
    reaches."""
    for node in reachable(cone.outputs.values()):
        if not isinstance(node, Operation):
            continue
        operands = node.operands
        assert not all(isinstance(o, Constant) for o in operands), node
        if node.kind in (OpKind.SUB, OpKind.MIN, OpKind.MAX):
            assert operands[0] is not operands[1], node
        if node.kind is OpKind.SELECT:
            assert operands[1] is not operands[2], node


def assert_matches_golden(case: KernelCase) -> None:
    """Expression-mode simulation of the last cone shape against golden,
    on the frame's interior."""
    window, depth = case.shapes[-1]
    height, width, seed = case.frame
    frames = FrameSet.for_kernel(case.kernel, height, width, seed=seed)
    golden = GoldenExecutor(case.kernel, case.params).run(frames, depth)
    simulated = FunctionalConeSimulator(case.kernel, case.params).run(
        frames, depth, window, mode="expression")
    margin = case.read_radius * depth + 1
    for name in case.kernel.state_field_names:
        expected = golden[name].data[:, margin:-margin, margin:-margin]
        assert np.all(np.isfinite(expected)), name
        np.testing.assert_allclose(
            simulated[name].data[:, margin:-margin, margin:-margin],
            expected, rtol=1e-9, atol=1e-12, err_msg=name)
