"""Dataflow intermediate representation of cone hardware.

The symbolic expression DAG of a cone is lowered to an explicit dataflow
graph whose nodes carry hardware operator information (delay and resource
cost per data format).  The DFG is the code generator's view of a cone: the
VHDL writer emits it and pipelines it with :func:`pipeline_schedule`.  The
synthesis simulator works on the shared cone DAG itself and lowers nothing.
"""

from repro.ir.operators import (
    DataFormat,
    OperatorSpec,
    OperatorLibrary,
    ResourceVector,
    default_library,
)
from repro.ir.dfg import DfgNode, NodeKind, DataflowGraph, build_dfg_from_cone
from repro.ir.scheduling import Schedule, pipeline_schedule

__all__ = [
    "DataFormat",
    "OperatorSpec",
    "OperatorLibrary",
    "ResourceVector",
    "default_library",
    "DfgNode",
    "NodeKind",
    "DataflowGraph",
    "build_dfg_from_cone",
    "Schedule",
    "pipeline_schedule",
]
