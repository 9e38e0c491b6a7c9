"""Unit tests for VHDL generation (cone entities, top level)."""

import re

import pytest

from repro.architecture.template import ConeArchitecture
from repro.codegen.naming import signal_name, vhdl_identifier
from repro.codegen.vhdl_toplevel import generate_architecture_toplevel
from repro.codegen.vhdl_writer import (FIXED_POINT_PACKAGE, FRACTIONAL_BITS,
                                       VhdlWriter)
from repro.ir.dfg import build_dfg_from_cone
from repro.ir.operators import DataFormat
from repro.symbolic.cone_expression import ConeExpressionBuilder


class TestNaming:
    def test_invalid_characters_replaced(self):
        assert vhdl_identifier("my-signal[3]") == "my_signal_3"

    def test_leading_digit_prefixed(self):
        assert vhdl_identifier("3x3_kernel").startswith("s_")

    def test_keywords_suffixed(self):
        assert vhdl_identifier("signal") == "signal_i"
        assert vhdl_identifier("entity") == "entity_i"

    def test_empty_name_fallback(self):
        assert vhdl_identifier("!!!") == "sig"

    def test_signal_name_stable(self):
        assert signal_name("r", 7) == "r_7"


@pytest.fixture(scope="module")
def igf_cone_module(igf_kernel):
    cone = ConeExpressionBuilder(igf_kernel).build(2, 2)
    graph = build_dfg_from_cone(cone)
    module = VhdlWriter(DataFormat.FIXED16).generate(graph)
    return cone, graph, module


class TestConeEntity:
    def test_entity_structure(self, igf_cone_module):
        _, graph, module = igf_cone_module
        code = module.code
        assert f"entity {module.entity_name} is" in code
        assert "architecture rtl of" in code
        assert code.count("end architecture rtl;") == 1
        assert "use ieee.numeric_std.all;" in code

    def test_ports_match_dfg(self, igf_cone_module):
        _, graph, module = igf_cone_module
        assert len(module.input_ports) == len(graph.input_nodes)
        assert len(module.output_ports) == len(graph.output_nodes)
        for port in module.input_ports + module.output_ports:
            assert port in module.code

    def test_every_operation_becomes_a_signal_assignment(self, igf_cone_module):
        _, graph, module = igf_cone_module
        assignments = re.findall(r"^\s+r_\d+ <= ", module.code, re.MULTILINE)
        assert len(assignments) == graph.operation_count()

    def test_registers_reported(self, igf_cone_module):
        _, graph, module = igf_cone_module
        assert module.register_count >= graph.register_count
        assert module.pipeline_stages >= 1

    def test_constants_are_quantised(self, igf_kernel):
        cone = ConeExpressionBuilder(igf_kernel).build(1, 1)
        graph = build_dfg_from_cone(cone)
        module = VhdlWriter(DataFormat.FIXED16).generate(graph)
        # 0.25 with 12 fractional bits -> 1024
        assert FRACTIONAL_BITS == 12
        assert "to_signed(1024, 16)" in module.code

    def test_fixed32_ports_are_32_bits_wide(self, igf_kernel):
        cone = ConeExpressionBuilder(igf_kernel).build(1, 1)
        graph = build_dfg_from_cone(cone)
        module = VhdlWriter(DataFormat.FIXED32).generate(graph)
        assert "signed(31 downto 0)" in module.code

    def test_support_package_present(self):
        assert "package isl_fixed_pkg" in FIXED_POINT_PACKAGE
        assert "function divide_fixed" in FIXED_POINT_PACKAGE


class TestDivSqrtTemplates:
    def test_chambolle_cone_uses_support_functions(self, chambolle_kernel):
        cone = ConeExpressionBuilder(chambolle_kernel).build(1, 1)
        graph = build_dfg_from_cone(cone)
        module = VhdlWriter(DataFormat.FIXED32).generate(graph)
        assert "divide_fixed(" in module.code
        assert "sqrt_fixed(" in module.code


class TestTopLevel:
    def test_toplevel_instantiates_every_cone(self, igf_kernel):
        architecture = ConeArchitecture(
            kernel_name="blur", window_side=3, level_depths=[2, 2, 1],
            cone_counts={2: 2, 1: 1}, radius=1)
        code = generate_architecture_toplevel(
            architecture, entity_names={2: "blur_d2", 1: "blur_d1"})
        assert code.count("entity work.blur_d2") == 2
        assert code.count("entity work.blur_d1") == 1
        assert "level0_buffer" in code
        assert "TILE_IN_SIDE : natural := " in code

    def test_missing_entity_name_rejected(self, igf_kernel):
        architecture = ConeArchitecture(
            kernel_name="blur", window_side=3, level_depths=[2],
            cone_counts={2: 1}, radius=1)
        with pytest.raises(KeyError):
            generate_architecture_toplevel(architecture, entity_names={})
