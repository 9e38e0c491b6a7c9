"""Verification of the two ISL properties via symbolic execution.

The frontend guarantees translation invariance *syntactically* (array
subscripts must be ``loop index + constant``).  This module additionally
verifies the property *semantically*, by symbolically executing the kernel at
two different target elements and checking that the resulting expressions are
identical up to a translation of the leaf symbols — which is the definition
given in Section 2 of the paper.  It also finds divisors that fold to the
constant zero, which no cone of the kernel could be built with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.utils.geometry import Offset
from repro.frontend.kernel_ir import (BinaryOp, BinOpKind, KernelExpr,
                                      StencilKernel)
from repro.frontend.semantic import MAX_NARROW_FOOTPRINT, MAX_NARROW_RADIUS
from repro.symbolic.dependency import analyze_footprint
from repro.symbolic.executor import SymbolicExecutor
from repro.symbolic.expression import (
    Constant,
    Expression,
    ExpressionBuilder,
    FieldSymbol,
    Operation,
)


@dataclass(frozen=True)
class InvarianceReport:
    """Outcome of the invariance / narrowness verification."""

    kernel_name: str
    is_translation_invariant: bool
    is_domain_narrow: bool
    radius: int
    footprint_size: int
    detail: str = ""

    @property
    def is_isl(self) -> bool:
        """True when the kernel is in the class the flow targets."""
        return self.is_translation_invariant and self.is_domain_narrow

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation."""
        return {
            "kernel_name": self.kernel_name,
            "is_translation_invariant": self.is_translation_invariant,
            "is_domain_narrow": self.is_domain_narrow,
            "radius": self.radius,
            "footprint_size": self.footprint_size,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "InvarianceReport":
        return cls(
            kernel_name=data["kernel_name"],
            is_translation_invariant=data["is_translation_invariant"],
            is_domain_narrow=data["is_domain_narrow"],
            radius=data["radius"],
            footprint_size=data["footprint_size"],
            detail=data.get("detail", ""),
        )


def _structurally_equal_translated(a: Expression, b: Expression,
                                   shift: Offset) -> bool:
    """Check ``b`` is ``a`` with every symbol translated by ``shift``."""
    if isinstance(a, Constant) and isinstance(b, Constant):
        return a.value == b.value
    if isinstance(a, FieldSymbol) and isinstance(b, FieldSymbol):
        return (a.field == b.field and a.component == b.component
                and a.level == b.level
                and b.offset == a.offset + shift)
    if isinstance(a, Operation) and isinstance(b, Operation):
        if a.kind is not b.kind or len(a.operands) != len(b.operands):
            return False
        return all(_structurally_equal_translated(x, y, shift)
                   for x, y in zip(a.operands, b.operands))
    return False


def check_translation_invariance(kernel: StencilKernel,
                                 probe: Offset = Offset(3, 5)) -> bool:
    """Symbolically verify translation invariance.

    Executes the kernel for the element at the origin and for the element at
    ``probe`` and checks the two expression trees are identical up to
    translating every leaf symbol by ``probe``.
    """
    # Two separate builders so node-id-based canonicalisation of commutative
    # operands happens in the same creation order for both executions; the
    # comparison is then a pure structural walk.
    at_origin = SymbolicExecutor(kernel, ExpressionBuilder(simplify=False)) \
        .execute_once(Offset(0, 0))
    at_probe = SymbolicExecutor(kernel, ExpressionBuilder(simplify=False)) \
        .execute_once(probe)
    for key, origin_expr in at_origin.expressions.items():
        probe_expr = at_probe.expressions[key]
        if not _structurally_equal_translated(origin_expr, probe_expr, probe):
            return False
    return True


def check_domain_narrowness(kernel: StencilKernel,
                            max_radius: int = MAX_NARROW_RADIUS,
                            max_footprint: int = MAX_NARROW_FOOTPRINT) -> bool:
    """Check the dependency footprint is small and local."""
    footprint = analyze_footprint(kernel)
    return footprint.radius <= max_radius and footprint.size <= max_footprint


def verify_kernel(kernel: StencilKernel) -> InvarianceReport:
    """Run both checks and produce a report used by the flow frontend."""
    footprint = analyze_footprint(kernel)
    invariant = check_translation_invariance(kernel)
    narrow = check_domain_narrowness(kernel)
    details = []
    if not invariant:
        details.append("dependency scheme changes with the target element")
    if not narrow:
        details.append(
            f"footprint too large (radius {footprint.radius}, "
            f"{footprint.size} reads)"
        )
    return InvarianceReport(
        kernel_name=kernel.name,
        is_translation_invariant=invariant,
        is_domain_narrow=narrow,
        radius=footprint.radius,
        footprint_size=footprint.size,
        detail="; ".join(details),
    )


def constant_zero_divisor(kernel: StencilKernel,
                          params: Optional[Mapping[str, float]] = None
                          ) -> Optional[KernelExpr]:
    """A divisor of ``kernel`` that folds to the constant zero, or ``None``.

    Cone construction folds constants and rejects a division by a constant
    zero with :class:`ZeroDivisionError`.  This finds such a divisor before
    any cone is built.  A divisor folds the same way wherever it appears,
    so each one is folded on its own, with field reads as symbols and the
    kernel's parameters overridden by ``params``.  (A divisor that folds to
    zero only once an earlier iteration has folded a state field to a
    constant still meets the builder's check.)
    """
    executor = SymbolicExecutor(kernel, ExpressionBuilder(), params)
    stack: List[KernelExpr] = [update.expr for update in kernel.updates]
    while stack:
        node = stack.pop()
        stack.extend(node.children())
        if not (isinstance(node, BinaryOp) and node.kind is BinOpKind.DIV):
            continue
        try:
            divisor = executor.convert(node.right)
        except ZeroDivisionError:
            continue  # a division inside this divisor: the walk meets it
        if isinstance(divisor, Constant) and divisor.value == 0.0:
            return node.right
    return None
