"""Emission of one synthesizable VHDL entity per cone.

The generated code follows the "slim VHDL with a high degree of resource
reuse" style described in Section 3.2: every distinct DFG node becomes one
signal assignment, registered at the pipeline-stage boundaries computed by
the scheduler, so the synthesis tool sees the already-shared structure and
only needs to perform its usual logic optimisation on top.

Fixed-point values are represented as ``signed`` vectors with
:data:`FRACTIONAL_BITS` fractional bits; constant coefficients are quantised
at generation time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.ir.dfg import DataflowGraph, DfgNode, NodeKind
from repro.ir.operators import DataFormat, default_library
from repro.ir.scheduling import Schedule, pipeline_schedule
from repro.symbolic.expression import OpKind
from repro.codegen.naming import signal_name, vhdl_identifier

#: Target clock period of the generated pipelines.
CLOCK_PERIOD_NS = 10.0


@dataclass
class VhdlModule:
    """A generated VHDL design unit."""

    entity_name: str
    code: str
    input_ports: List[str]
    output_ports: List[str]
    register_count: int
    pipeline_stages: int

    def __str__(self) -> str:
        return self.code


class VhdlWriter:
    """Generates synthesizable VHDL for cone dataflow graphs.

    Stages are pipelined at :data:`CLOCK_PERIOD_NS` with the delays of the
    format's default operator library.
    """

    def __init__(self, data_format: DataFormat) -> None:
        self.data_format = data_format
        self.library = default_library(data_format)

    # ------------------------------------------------------------------ #

    @property
    def width(self) -> int:
        return self.data_format.width

    def _quantise(self, value: float) -> int:
        scaled = int(round(value * (1 << FRACTIONAL_BITS)))
        limit = 1 << (self.width - 1)
        return max(-limit, min(limit - 1, scaled))

    def _binary_expr(self, kind: OpKind, operands: List[str]) -> str:
        a = operands[0]
        b = operands[1] if len(operands) > 1 else ""
        frac = FRACTIONAL_BITS
        width = self.width
        if kind is OpKind.ADD:
            return f"{a} + {b}"
        if kind is OpKind.SUB:
            return f"{a} - {b}"
        if kind is OpKind.MUL:
            return (f"resize(shift_right({a} * {b}, {frac}), {width})")
        if kind is OpKind.DIV:
            return (f"resize(divide_fixed({a}, {b}, {frac}), {width})")
        if kind is OpKind.MIN:
            return f"minimum_s({a}, {b})"
        if kind is OpKind.MAX:
            return f"maximum_s({a}, {b})"
        if kind is OpKind.ABS:
            return f"abs({a})"
        if kind is OpKind.SQRT:
            return f"sqrt_fixed({a}, {frac})"
        if kind is OpKind.SELECT:
            return f"{operands[1]} when {operands[0]} /= to_signed(0, {width}) else {operands[2]}"
        if kind.is_comparison:
            comparator = {
                OpKind.CMP_LT: "<", OpKind.CMP_LE: "<=",
                OpKind.CMP_GT: ">", OpKind.CMP_GE: ">=",
                OpKind.CMP_EQ: "=",
            }[kind]
            return (f"to_signed(1, {width}) when {a} {comparator} {b} "
                    f"else to_signed(0, {width})")
        raise ValueError(f"no VHDL template for operator {kind!r}")

    # ------------------------------------------------------------------ #

    def generate(self, graph: DataflowGraph,
                 entity_name: Optional[str] = None) -> VhdlModule:
        """Emit the entity/architecture pair for one cone datapath."""
        entity = vhdl_identifier(entity_name or graph.name)
        schedule = pipeline_schedule(graph, CLOCK_PERIOD_NS, self.library)
        width = self.width

        input_ports = [vhdl_identifier(n.name) for n in graph.input_nodes]
        output_ports = [vhdl_identifier(n.name) for n in graph.output_nodes]

        lines: List[str] = []
        emit = lines.append
        emit("-- Generated by the ISL cone HLS flow (paper reproduction).")
        emit(f"-- Cone datapath: {graph.name}")
        emit(f"-- Registers (with data reuse): {graph.register_count}; "
             f"operations: {graph.operation_count()}; "
             f"pipeline stages: {schedule.pipeline_stages}")
        emit("library ieee;")
        emit("use ieee.std_logic_1164.all;")
        emit("use ieee.numeric_std.all;")
        emit("use work.isl_fixed_pkg.all;")
        emit("")
        emit(f"entity {entity} is")
        emit("  port (")
        emit("    clk    : in  std_logic;")
        emit("    reset  : in  std_logic;")
        emit("    enable : in  std_logic;")
        for name in input_ports:
            emit(f"    {name} : in  signed({width - 1} downto 0);")
        for index, name in enumerate(output_ports):
            separator = ";" if index < len(output_ports) - 1 else ""
            emit(f"    {name} : out signed({width - 1} downto 0){separator}")
        emit("  );")
        emit(f"end entity {entity};")
        emit("")
        emit(f"architecture rtl of {entity} is")

        # signal declarations: one per DFG node (shared by construction)
        node_signal: Dict[int, str] = {}
        for node in graph.topological_order():
            if node.kind is NodeKind.INPUT:
                node_signal[node.node_id] = vhdl_identifier(node.name)
                continue
            if node.kind is NodeKind.OUTPUT:
                node_signal[node.node_id] = node_signal[node.operands[0]]
                continue
            name = signal_name("r" if node.kind is NodeKind.OP else "k", node.node_id)
            node_signal[node.node_id] = name
            emit(f"  signal {name} : signed({width - 1} downto 0);")
        emit("begin")

        # constants
        for node in graph.const_nodes:
            quantised = self._quantise(node.value or 0.0)
            emit(f"  {node_signal[node.node_id]} <= to_signed({quantised}, {width});"
                 f"  -- {node.value}")

        # one registered process per pipeline stage
        stage_nodes: Dict[int, List[DfgNode]] = {}
        for node in graph.operation_nodes:
            stage = schedule.stage_of_node.get(node.node_id, 0)
            stage_nodes.setdefault(stage, []).append(node)

        for stage in sorted(stage_nodes):
            emit("")
            emit(f"  stage_{stage} : process(clk)")
            emit("  begin")
            emit("    if rising_edge(clk) then")
            emit("      if enable = '1' then")
            for node in stage_nodes[stage]:
                assert node.op_kind is not None
                operands = [node_signal[i] for i in node.operands]
                expression = self._binary_expr(node.op_kind, operands)
                emit(f"        {node_signal[node.node_id]} <= {expression};")
            emit("      end if;")
            emit("    end if;")
            emit(f"  end process stage_{stage};")

        emit("")
        for node in graph.output_nodes:
            emit(f"  {vhdl_identifier(node.name)} <= {node_signal[node.operands[0]]};")
        emit("")
        emit("end architecture rtl;")

        return VhdlModule(
            entity_name=entity,
            code="\n".join(lines) + "\n",
            input_ports=input_ports,
            output_ports=output_ports,
            register_count=graph.register_count + schedule.pipeline_register_count,
            pipeline_stages=schedule.pipeline_stages,
        )


#: Fractional bits of the fixed-point format the generated VHDL computes
#: in (:data:`FIXED_POINT_PACKAGE`).
FRACTIONAL_BITS = 12

FIXED_POINT_PACKAGE = """\
-- Support package for the generated cone datapaths.
library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

package isl_fixed_pkg is
  function minimum_s(a, b : signed) return signed;
  function maximum_s(a, b : signed) return signed;
  function divide_fixed(a, b : signed; frac : natural) return signed;
  function sqrt_fixed(a : signed; frac : natural) return signed;
end package isl_fixed_pkg;

package body isl_fixed_pkg is
  function minimum_s(a, b : signed) return signed is
  begin
    if a < b then return a; else return b; end if;
  end function;

  function maximum_s(a, b : signed) return signed is
  begin
    if a > b then return a; else return b; end if;
  end function;

  function divide_fixed(a, b : signed; frac : natural) return signed is
    variable wide : signed(a'length + frac - 1 downto 0);
  begin
    wide := shift_left(resize(a, a'length + frac), frac);
    if b = 0 then
      return (a'range => '0');
    end if;
    return resize(wide / resize(b, wide'length), a'length);
  end function;

  function sqrt_fixed(a : signed; frac : natural) return signed is
    variable x    : unsigned(a'length - 1 downto 0) := unsigned(a);
    variable root : unsigned(a'length - 1 downto 0) := (others => '0');
    variable bit_u  : unsigned(a'length - 1 downto 0);
  begin
    bit_u := to_unsigned(1, a'length);
    bit_u := shift_left(bit_u, a'length - 2);
    while bit_u > x loop
      bit_u := shift_right(bit_u, 2);
    end loop;
    while bit_u /= 0 loop
      if x >= root + bit_u then
        x := x - (root + bit_u);
        root := shift_right(root, 1) + bit_u;
      else
        root := shift_right(root, 1);
      end if;
      bit_u := shift_right(bit_u, 2);
    end loop;
    return signed(shift_left(root, frac / 2));
  end function;
end package body isl_fixed_pkg;
"""
