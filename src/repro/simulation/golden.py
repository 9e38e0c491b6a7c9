"""Software golden model: direct (whole-frame) execution of a stencil kernel.

This is the reference Algorithm 1 of the paper, vectorised with NumPy: every
iteration computes the whole next frame from the whole current frame.  The
cone simulators are validated against it.

Its differential oracle, a per-pixel walk with Python floats and
:meth:`~repro.simulation.frame.Frame.clamped_read` boundary handling, lives
in the tests (``tests/simulation/golden_oracle.py``).  Both use correctly
rounded IEEE float64 primitives, so bit-identity holds by construction: a
``clamped_read`` and the edge-padded view :meth:`GoldenExecutor.step` reads
select the same element for every coordinate (see
:meth:`repro.simulation.frame.Frame.padded`).

Boundary handling is clamp-to-edge (replicating the border element), the
usual choice for image filters; the cone simulator uses the same convention
so results match exactly.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

import numpy as np

from repro.frontend.kernel_ir import (
    BinOpKind,
    BinaryOp,
    FieldRead,
    KernelExpr,
    Literal,
    ParamRef,
    Select,
    StencilKernel,
    UnOpKind,
    UnaryOp,
)
from repro.simulation.frame import FrameSet


class GoldenExecutor:
    """Executes a kernel iteratively on whole frames (the reference model)."""

    def __init__(self, kernel: StencilKernel,
                 params: Optional[Mapping[str, float]] = None) -> None:
        self.kernel = kernel
        merged = dict(kernel.params)
        if params:
            merged.update(params)
        self.params = merged
        self.radius = kernel.radius

    # ------------------------------------------------------------------ #

    def run(self, frames: FrameSet, iterations: int) -> FrameSet:
        """Return the frame set after ``iterations`` applications of the kernel."""
        if iterations < 0:
            raise ValueError("iterations must be non-negative")
        current = frames.copy()
        for _ in range(iterations):
            current = self.step(current)
        return current

    def step(self, frames: FrameSet) -> FrameSet:
        """One whole-frame application of the kernel (f_i -> f_{i+1})."""
        radius = max(self.radius, self._readonly_radius())
        padded: Dict[str, np.ndarray] = {
            name: frames[name].padded(radius) for name in frames.names()
        }
        height, width = frames.height, frames.width

        def read(field_name: str, component: int, dy: int, dx: int) -> np.ndarray:
            array = padded[field_name]
            return array[component,
                         radius + dy: radius + dy + height,
                         radius + dx: radius + dx + width]

        next_frames = frames.copy()
        new_data: Dict[str, np.ndarray] = {
            name: frames[name].data.copy() for name in frames.names()
        }
        for update in self.kernel.updates:
            value = self._evaluate(update.expr, read)
            new_data[update.field_name][update.component] = value
        for name, data in new_data.items():
            next_frames.replace(name, data)
        return next_frames

    # ------------------------------------------------------------------ #

    def _readonly_radius(self) -> int:
        best = 0
        state = set(self.kernel.state_field_names)
        for update in self.kernel.updates:
            for fread in update.expr.reads():
                if fread.field_name not in state:
                    best = max(best, fread.offset.chebyshev())
        return best

    def _evaluate(self, expr: KernelExpr, read) -> np.ndarray:
        if isinstance(expr, Literal):
            return np.float64(expr.value)
        if isinstance(expr, ParamRef):
            return np.float64(self.params[expr.name])
        if isinstance(expr, FieldRead):
            return read(expr.field_name, expr.component, expr.offset.dy, expr.offset.dx)
        if isinstance(expr, BinaryOp):
            left = self._evaluate(expr.left, read)
            right = self._evaluate(expr.right, read)
            kind = expr.kind
            if kind is BinOpKind.ADD:
                return left + right
            if kind is BinOpKind.SUB:
                return left - right
            if kind is BinOpKind.MUL:
                return left * right
            if kind is BinOpKind.DIV:
                return left / right
            if kind is BinOpKind.MIN:
                return np.minimum(left, right)
            if kind is BinOpKind.MAX:
                return np.maximum(left, right)
            if kind is BinOpKind.LT:
                return (left < right).astype(np.float64)
            if kind is BinOpKind.LE:
                return (left <= right).astype(np.float64)
            if kind is BinOpKind.GT:
                return (left > right).astype(np.float64)
            if kind is BinOpKind.GE:
                return (left >= right).astype(np.float64)
            if kind is BinOpKind.EQ:
                return (left == right).astype(np.float64)
            raise ValueError(f"unsupported binary operator {kind!r}")
        if isinstance(expr, UnaryOp):
            operand = self._evaluate(expr.operand, read)
            if expr.kind is UnOpKind.NEG:
                return -operand
            if expr.kind is UnOpKind.ABS:
                return np.abs(operand)
            if expr.kind is UnOpKind.SQRT:
                return np.sqrt(operand)
            raise ValueError(f"unsupported unary operator {expr.kind!r}")
        if isinstance(expr, Select):
            cond = self._evaluate(expr.cond, read)
            if_true = self._evaluate(expr.if_true, read)
            if_false = self._evaluate(expr.if_false, read)
            return np.where(cond != 0.0, if_true, if_false)
        raise TypeError(f"unsupported kernel expression {type(expr).__name__}")
