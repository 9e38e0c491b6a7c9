"""Per-pixel golden walk: the differential oracle of ``GoldenExecutor``.

:func:`step_scalar` walks every output element and evaluates the kernel
expression with Python floats and
:meth:`~repro.simulation.frame.Frame.clamped_read` boundary handling.  It
is bit-identical to the vectorized :meth:`GoldenExecutor.step`: scalar
IEEE float64 arithmetic and NumPy elementwise float64 arithmetic are both
correctly rounded, and clamped reads select the same element as the
edge-padded view for every coordinate.  The tests hold
:meth:`GoldenExecutor.run` to :func:`run_scalar`, degenerate 1x1 and 1xN
frames included.
"""

from __future__ import annotations

import math
from typing import Dict

import numpy as np

from repro.frontend.kernel_ir import (
    BinOpKind,
    BinaryOp,
    FieldRead,
    KernelExpr,
    Literal,
    ParamRef,
    Select,
    UnOpKind,
    UnaryOp,
)
from repro.simulation.frame import FrameSet
from repro.simulation.golden import GoldenExecutor


def run_scalar(executor: GoldenExecutor, frames: FrameSet,
               iterations: int) -> FrameSet:
    """Per-pixel oracle of :meth:`GoldenExecutor.run`."""
    if iterations < 0:
        raise ValueError("iterations must be non-negative")
    current = frames.copy()
    for _ in range(iterations):
        current = step_scalar(executor, current)
    return current


def step_scalar(executor: GoldenExecutor, frames: FrameSet) -> FrameSet:
    """Per-pixel oracle of :meth:`GoldenExecutor.step`."""
    height, width = frames.height, frames.width
    next_frames = frames.copy()
    new_data: Dict[str, np.ndarray] = {
        name: frames[name].data.copy() for name in frames.names()
    }
    for update in executor.kernel.updates:
        target = np.empty((height, width), dtype=np.float64)
        for y in range(height):
            for x in range(width):
                def read(field_name: str, component: int,
                         dy: int, dx: int) -> float:
                    return frames[field_name].clamped_read(
                        component, y + dy, x + dx)

                target[y, x] = evaluate_scalar(executor.params, update.expr,
                                               read)
        new_data[update.field_name][update.component] = target
    for name, data in new_data.items():
        next_frames.replace(name, data)
    return next_frames


def evaluate_scalar(params: Dict[str, float], expr: KernelExpr,
                    read) -> float:
    """Scalar twin of ``GoldenExecutor._evaluate``; ``read`` returns a float."""
    if isinstance(expr, Literal):
        return float(expr.value)
    if isinstance(expr, ParamRef):
        return float(params[expr.name])
    if isinstance(expr, FieldRead):
        return read(expr.field_name, expr.component,
                    expr.offset.dy, expr.offset.dx)
    if isinstance(expr, BinaryOp):
        left = evaluate_scalar(params, expr.left, read)
        right = evaluate_scalar(params, expr.right, read)
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
            return min(left, right)
        if kind is BinOpKind.MAX:
            return max(left, right)
        if kind is BinOpKind.LT:
            return 1.0 if left < right else 0.0
        if kind is BinOpKind.LE:
            return 1.0 if left <= right else 0.0
        if kind is BinOpKind.GT:
            return 1.0 if left > right else 0.0
        if kind is BinOpKind.GE:
            return 1.0 if left >= right else 0.0
        if kind is BinOpKind.EQ:
            return 1.0 if left == right else 0.0
        raise ValueError(f"unsupported binary operator {kind!r}")
    if isinstance(expr, UnaryOp):
        if expr.kind is UnOpKind.NEG:
            return -evaluate_scalar(params, expr.operand, read)
        if expr.kind is UnOpKind.ABS:
            return abs(evaluate_scalar(params, expr.operand, read))
        if expr.kind is UnOpKind.SQRT:
            return math.sqrt(evaluate_scalar(params, expr.operand, read))
        raise ValueError(f"unsupported unary operator {expr.kind!r}")
    if isinstance(expr, Select):
        # short-circuit: the not-taken branch is hardware don't-care and
        # must not fault (the vectorized step evaluates both and merges)
        if evaluate_scalar(params, expr.cond, read) != 0.0:
            return evaluate_scalar(params, expr.if_true, read)
        return evaluate_scalar(params, expr.if_false, read)
    raise TypeError(f"unsupported kernel expression {type(expr).__name__}")
