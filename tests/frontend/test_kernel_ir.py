"""Unit tests for the kernel IR data structures and their validation."""

import pytest

from repro.frontend.kernel_ir import (
    BinOpKind,
    BinaryOp,
    FieldDecl,
    FieldRead,
    FieldUpdate,
    KernelValidationError,
    Literal,
    ParamRef,
    StencilKernel,
    UnOpKind,
    UnaryOp,
)
from repro.utils.geometry import Offset


def _simple_expr():
    return BinaryOp(BinOpKind.ADD,
                    FieldRead("f", Offset(1, 0)),
                    FieldRead("f", Offset(-1, 0)))


def make_kernel(**overrides):
    kwargs = dict(
        name="k",
        fields=[FieldDecl("f")],
        updates=[FieldUpdate("f", 0, _simple_expr())],
        params={},
    )
    kwargs.update(overrides)
    return StencilKernel(**kwargs)


class TestValidation:
    def test_valid_kernel_builds(self):
        kernel = make_kernel()
        assert kernel.name == "k"

    def test_empty_name_rejected(self):
        with pytest.raises(KernelValidationError):
            make_kernel(name="")

    def test_no_updates_rejected(self):
        with pytest.raises(KernelValidationError):
            make_kernel(updates=[])

    def test_update_of_undeclared_field_rejected(self):
        with pytest.raises(KernelValidationError):
            make_kernel(updates=[FieldUpdate("ghost", 0, _simple_expr())])

    def test_component_out_of_range_rejected(self):
        with pytest.raises(KernelValidationError):
            make_kernel(updates=[FieldUpdate("f", 1, _simple_expr())])

    def test_duplicate_update_rejected(self):
        with pytest.raises(KernelValidationError):
            make_kernel(updates=[FieldUpdate("f", 0, _simple_expr()),
                                 FieldUpdate("f", 0, _simple_expr())])

    def test_read_of_undeclared_field_rejected(self):
        expr = FieldRead("ghost", Offset(0, 0))
        with pytest.raises(KernelValidationError):
            make_kernel(updates=[FieldUpdate("f", 0, expr)])

    def test_undeclared_parameter_rejected(self):
        expr = BinaryOp(BinOpKind.MUL, ParamRef("tau"), FieldRead("f", Offset(0, 0)))
        with pytest.raises(KernelValidationError):
            make_kernel(updates=[FieldUpdate("f", 0, expr)])

    def test_duplicate_field_declaration_rejected(self):
        with pytest.raises(KernelValidationError):
            make_kernel(fields=[FieldDecl("f"), FieldDecl("f")])

    def test_field_with_zero_components_rejected(self):
        with pytest.raises(KernelValidationError):
            FieldDecl("f", components=0)


class TestDerivedProperties:
    def test_radius_and_footprint(self):
        kernel = make_kernel()
        assert kernel.radius == 1
        offsets = kernel.read_offsets()
        assert offsets == {Offset(1, 0), Offset(-1, 0)}
        window = kernel.footprint_window
        assert (window.x0, window.x1) == (-1, 1)

    def test_readonly_fields_do_not_affect_radius(self):
        expr = BinaryOp(BinOpKind.ADD,
                        FieldRead("f", Offset(0, 0)),
                        FieldRead("g", Offset(5, 5)))
        kernel = StencilKernel(
            name="k",
            fields=[FieldDecl("f"), FieldDecl("g")],
            updates=[FieldUpdate("f", 0, expr)],
        )
        assert kernel.radius == 0
        assert kernel.readonly_field_names == ["g"]
        assert kernel.state_field_names == ["f"]

    def test_operation_count(self):
        kernel = make_kernel()
        assert kernel.operation_count == 1

    def test_str_rendering_mentions_updates(self):
        text = str(make_kernel())
        assert "kernel k" in text
        assert "f[0] <-" in text


class TestExpressionNodes:
    def test_reads_iteration_includes_nested(self):
        expr = UnaryOp(UnOpKind.ABS, _simple_expr())
        assert len(list(expr.reads())) == 2

    def test_node_count(self):
        assert _simple_expr().node_count() == 3
        assert Literal(1.0).node_count() == 1

    def test_str_forms(self):
        assert "f[+1,+0]" in str(_simple_expr())
        assert str(ParamRef("tau")) == "tau"
        assert "abs" in str(UnaryOp(UnOpKind.ABS, Literal(2.0)))
