"""FPGA synthesis simulator.

The paper validates its area model against real Xilinx syntheses.  Synthesis
tools and physical devices are not available to this reproduction, so this
package provides a deterministic substitute: technology mapping of every
operation of a cone onto LUT/FF/DSP primitives, pipelining to the device
clock, and a logic-reuse optimisation whose effect grows non-linearly with
design size — which is exactly the non-linearity the paper's α correction
factor absorbs.  It reads the cone's expression DAG directly, mapping and
scheduling each node shared by several cones once (see
:mod:`repro.synth.synthesizer`).  The flow treats this simulator the way the
paper treats ISE/Vivado: as the reference ("actual") area against which
Equation 1 is calibrated and evaluated.
"""

from repro.synth.fpga_device import (
    FpgaDevice,
    VIRTEX6_XC6VLX760,
    VIRTEX6_XC6VLX240T,
    VIRTEX2P_XC2VP30,
    SPARTAN6_XC6SLX45,
    DEVICE_CATALOG,
    device_by_name,
)
from repro.synth.logic_reuse import LogicReuseModel, MappedDesign
from repro.synth.timing import TimingModel, TimingReport
from repro.synth.synthesizer import Synthesizer, SynthesisReport

__all__ = [
    "FpgaDevice",
    "VIRTEX6_XC6VLX760",
    "VIRTEX6_XC6VLX240T",
    "VIRTEX2P_XC2VP30",
    "SPARTAN6_XC6SLX45",
    "DEVICE_CATALOG",
    "device_by_name",
    "MappedDesign",
    "LogicReuseModel",
    "TimingModel",
    "TimingReport",
    "Synthesizer",
    "SynthesisReport",
]
