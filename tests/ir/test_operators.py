"""Unit tests for the operator catalog and resource vectors."""

import pytest

from repro.ir.operators import (
    DataFormat,
    OperatorLibrary,
    ResourceVector,
    default_library,
)
from repro.symbolic.expression import OpKind


class TestResourceVector:
    def test_addition_and_subtraction(self):
        a = ResourceVector(luts=100, ffs=50, dsps=2, brams=1)
        b = ResourceVector(luts=10, ffs=5, dsps=1, brams=0.5)
        total = a + b
        assert total.luts == 110 and total.dsps == 3
        diff = a - b
        assert diff.ffs == 45

    def test_scaling(self):
        v = ResourceVector(luts=10, ffs=20) * 3
        assert v.luts == 30 and v.ffs == 60
        assert (2 * ResourceVector(luts=5)).luts == 10

    def test_fits_in(self):
        small = ResourceVector(luts=100, ffs=100)
        big = ResourceVector(luts=1000, ffs=1000, dsps=10)
        assert small.fits_in(big)
        assert not big.fits_in(small)

    def test_str(self):
        assert "LUT" in str(ResourceVector(luts=5))


class TestDataFormat:
    def test_widths(self):
        assert DataFormat.FIXED16.width == 16
        assert DataFormat.FIXED32.width == 32
        assert DataFormat.FLOAT32.width == 32
        assert DataFormat.FIXED16.bytes == 2


class TestOperatorLibrary:
    @pytest.fixture(params=[DataFormat.FIXED16, DataFormat.FIXED32, DataFormat.FLOAT32])
    def library(self, request):
        return default_library(request.param)

    def test_every_op_kind_has_a_spec(self, library):
        for kind in OpKind:
            spec = library.spec_for(kind)
            assert spec.delay_ns > 0
            assert spec.resources.luts >= 0

    def test_constant_multiplication_is_cheaper(self, library):
        full = library.spec_for(OpKind.MUL, constant_operand=False)
        const = library.spec_for(OpKind.MUL, constant_operand=True)
        assert (const.resources.luts + 200 * const.resources.dsps
                <= full.resources.luts + 200 * full.resources.dsps)

    def test_constant_division_is_cheaper(self):
        library = default_library(DataFormat.FIXED16)
        assert (library.spec_for(OpKind.DIV, True).resources.luts
                < library.spec_for(OpKind.DIV, False).resources.luts)

    def test_register_cost_scales_with_width(self):
        narrow = default_library(DataFormat.FIXED16).register_resources
        wide = default_library(DataFormat.FIXED32).register_resources
        assert wide.ffs == 2 * narrow.ffs

    def test_wider_fixed_point_costs_more(self):
        narrow = default_library(DataFormat.FIXED16).spec_for(OpKind.ADD)
        wide = default_library(DataFormat.FIXED32).spec_for(OpKind.ADD)
        assert wide.resources.luts > narrow.resources.luts

    def test_division_is_most_expensive_fixed_op(self):
        library = default_library(DataFormat.FIXED16)
        div = library.spec_for(OpKind.DIV).resources.luts
        add = library.spec_for(OpKind.ADD).resources.luts
        assert div > 3 * add
