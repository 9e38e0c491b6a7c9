"""VHDL generation for cone datapaths.

The flow emits one synthesizable entity per cone module plus a top-level
architecture that instantiates the deployed cones and the inter-level
buffers.  The emitted VHDL enforces the data reuse of Section 3.2: every DFG
node becomes exactly one signal/register, so repeated operations are shared
by construction.
"""

from repro.codegen.naming import vhdl_identifier, signal_name
from repro.codegen.vhdl_writer import VhdlWriter
from repro.codegen.vhdl_toplevel import generate_architecture_toplevel

__all__ = [
    "vhdl_identifier",
    "signal_name",
    "VhdlWriter",
    "generate_architecture_toplevel",
]
