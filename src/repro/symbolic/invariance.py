"""Verification of the two ISL properties via symbolic execution.

The frontend guarantees translation invariance *syntactically* (array
subscripts must be ``loop index + constant``).  This module additionally
verifies the property *semantically*, by running the kernel's lowered step
(:class:`~repro.symbolic.executor.KernelStep`) at two different target
elements and checking that the resulting expressions are identical up to a
translation of the leaf symbols — which is the definition given in
Section 2 of the paper.  It also finds the operands that fold to a constant
no cone of the kernel could be built with: a divisor that folds to zero, or
the operand of a square root that folds to a negative constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

from repro.utils.geometry import Offset
from repro.frontend.kernel_ir import StencilKernel
from repro.frontend.semantic import MAX_NARROW_FOOTPRINT, MAX_NARROW_RADIUS
from repro.symbolic.dependency import analyze_footprint
from repro.symbolic.executor import (ConstantFault, ConstantFoldError,
                                     KernelStep)
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


def _run_once(step: KernelStep, builder: ExpressionBuilder,
              target: Offset) -> List[Expression]:
    """The step at ``target`` on ``builder``, with state reads as level-0
    symbols."""
    return step.run(builder, target.dx, target.dy, 0, builder.intern_symbol)


def check_translation_invariance(kernel: StencilKernel,
                                 probe: Offset = Offset(3, 5)) -> bool:
    """Symbolically verify translation invariance.

    Runs the kernel's step for the element at the origin and for the
    element at ``probe`` and checks the two expression trees are identical
    up to translating every leaf symbol by ``probe``.
    """
    # Two separate builders so node-id-based canonicalisation of commutative
    # operands happens in the same creation order for both executions; the
    # comparison is then a pure structural walk.
    step = KernelStep(kernel)
    at_origin = _run_once(step, ExpressionBuilder(simplify=False),
                          Offset(0, 0))
    at_probe = _run_once(step, ExpressionBuilder(simplify=False), probe)
    return all(_structurally_equal_translated(origin, translated, probe)
               for origin, translated in zip(at_origin, at_probe))


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


def constant_fault(kernel: StencilKernel,
                   params: Optional[Mapping[str, float]] = None
                   ) -> Optional[ConstantFault]:
    """The first operand of ``kernel`` that folds to a constant no cone
    can be built with, or ``None``.

    Cone construction folds constants, and raises
    :class:`~repro.symbolic.executor.ConstantFoldError` at such an operand.
    This finds one before any cone is built, in one run of the kernel's
    step, with field reads as symbols and the kernel's parameters
    overridden by ``params``.  An operand folds the same way wherever it
    appears, so one element shows every fault, and the run stops at the
    first one, in the step's post-order.  (An operand that folds to the
    constant only once an earlier iteration has folded a state field to a
    constant shows only in a deeper cone, whose construction raises the
    same error.)
    """
    try:
        _run_once(KernelStep(kernel, params), ExpressionBuilder(),
                  Offset(0, 0))
    except ConstantFoldError as error:
        return error.fault
    return None
