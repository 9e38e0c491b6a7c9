"""Unit tests for the symbolic verification of the ISL properties."""

import pytest

from repro.algorithms.registry import get_algorithm, list_algorithms
from repro.frontend.dsl import stencil_kernel
from repro.symbolic.expression import OpKind
from repro.symbolic.invariance import (
    check_domain_narrowness,
    check_translation_invariance,
    constant_fault,
    verify_kernel,
)


def test_igf_is_isl(igf_kernel):
    report = verify_kernel(igf_kernel)
    assert report.is_translation_invariant
    assert report.is_domain_narrow
    assert report.is_isl
    assert report.radius == 1
    assert report.footprint_size == 9
    assert report.detail == ""


def test_chambolle_is_isl(chambolle_kernel):
    report = verify_kernel(chambolle_kernel)
    assert report.is_isl
    assert report.footprint_size > 0


def test_all_registered_algorithms_are_isl():
    from repro.algorithms import ALGORITHMS
    for spec in ALGORITHMS.values():
        report = verify_kernel(spec.kernel())
        assert report.is_isl, f"{spec.name} failed ISL verification: {report.detail}"


def test_translation_invariance_check(igf_kernel):
    assert check_translation_invariance(igf_kernel)


def test_wide_kernel_fails_narrowness():
    def define(k):
        f = k.field("f")
        k.update(f, f(10, 0) + f(-10, 0))

    wide = stencil_kernel("wide", define)
    assert not check_domain_narrowness(wide)
    report = verify_kernel(wide)
    assert report.is_translation_invariant
    assert not report.is_domain_narrow
    assert not report.is_isl
    assert "footprint too large" in report.detail


def test_narrowness_threshold_parameters(igf_kernel):
    assert not check_domain_narrowness(igf_kernel, max_footprint=4)
    assert check_domain_narrowness(igf_kernel, max_radius=1)


@pytest.mark.parametrize("name", list_algorithms())
def test_registry_kernels_have_no_constant_fault(name):
    assert constant_fault(get_algorithm(name).kernel()) is None


def test_a_zero_divisor_is_a_constant_fault(chambolle_kernel):
    fault = constant_fault(chambolle_kernel, {"lambda": 0.0})
    assert fault.kind is OpKind.DIV
    assert str(fault.operand) == "lambda"
    assert fault.value == 0.0
    assert str(fault) == "divides by lambda, which folds to the constant zero"


def test_a_negative_square_root_operand_is_a_constant_fault():
    def define(k):
        f = k.field("f")
        c = k.param("c", 1.0)
        k.update(f, f(0, 0) / (c + 1.0) + k.sqrt(f(1, 0) * 0.0 - c))

    kernel = stencil_kernel("root", define)
    fault = constant_fault(kernel)
    assert fault.kind is OpKind.SQRT
    assert str(fault.operand) == "((f[+1,+0] * 0.0) - c)"
    assert fault.value == -1.0
    assert str(fault) == ("takes the square root of ((f[+1,+0] * 0.0) - c), "
                          "which folds to the negative constant -1.0")
    # params decide both faults: c = -1 zeroes the divisor, which comes
    # first in the step; c = -4 makes the root's operand positive
    assert constant_fault(kernel, {"c": -1.0}).kind is OpKind.DIV
    assert constant_fault(kernel, {"c": -4.0}) is None


def test_a_division_inside_a_divisor_is_the_first_fault():
    def define(k):
        f = k.field("f")
        k.update(f, f(0, 0) / (f(1, 0) / (f(0, 1) - f(0, 1))))

    fault = constant_fault(stencil_kernel("nested", define))
    assert fault.kind is OpKind.DIV
    assert str(fault.operand) == "(f[+0,+1] - f[+0,+1])"
