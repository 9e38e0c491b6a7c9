"""Symbolic execution of stencil kernels.

This package implements Section 3.2 of the paper: the value of an element at
iteration ``i+m`` is expressed as a function of elements at iteration ``i`` by
running the kernel on *symbols* rather than values, and the exponential
symbol blow-up is avoided by hash-consing every sub-expression (the register
reuse the paper enforces during VHDL generation).
"""

from repro.symbolic.expression import (
    Expression,
    ExpressionBuilder,
    FieldSymbol,
    Constant,
    Operation,
    OpKind,
    evaluate,
)
from repro.symbolic.dependency import (
    DependencyFootprint,
    ConeDomain,
    analyze_footprint,
    cone_input_window,
    cone_element_count,
)
from repro.symbolic.cone_expression import ConeExpressionBuilder, ConeExpressions
from repro.symbolic.invariance import (
    check_translation_invariance,
    check_domain_narrowness,
    InvarianceReport,
)

__all__ = [
    "Expression",
    "ExpressionBuilder",
    "FieldSymbol",
    "Constant",
    "Operation",
    "OpKind",
    "evaluate",
    "DependencyFootprint",
    "ConeDomain",
    "analyze_footprint",
    "cone_input_window",
    "cone_element_count",
    "ConeExpressionBuilder",
    "ConeExpressions",
    "check_translation_invariance",
    "check_domain_narrowness",
    "InvarianceReport",
]
