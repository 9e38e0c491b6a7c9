"""Hardware operator catalog: delay and resource cost of each operation.

The numbers model a Xilinx Virtex-6-class fabric (6-input LUTs, 25x18 DSP48E1
slices) for fixed-point arithmetic, which is what hand-optimised ISL
implementations on FPGAs use (the manual Chambolle design of Akin et al. is a
fixed-point architecture).  The catalog distinguishes multiplication by a
*constant* (implemented as shift-and-add networks, no DSP) from full
multiplication, because stencil kernels are dominated by constant
coefficients and synthesis tools exploit that aggressively.

The absolute values are a model, not a datasheet; the flow only relies on
them being *consistent* between the estimation path and the synthesis
simulator, which is exactly the situation of the paper (both its Eq. 1 model
and its reference syntheses target the same backend tool).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional

from repro.symbolic.expression import OpKind


class DataFormat(enum.Enum):
    """Datapath number formats supported by the generated cones."""

    FIXED16 = "fixed16"
    FIXED32 = "fixed32"
    FLOAT32 = "float32"

    @property
    def width(self) -> int:
        if self is DataFormat.FIXED16:
            return 16
        return 32

    @property
    def bytes(self) -> int:
        return self.width // 8


@dataclass(frozen=True)
class ResourceVector:
    """FPGA resource usage: LUTs, flip-flops, DSP slices, block RAMs (in 18Kb units)."""

    luts: float = 0.0
    ffs: float = 0.0
    dsps: float = 0.0
    brams: float = 0.0

    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(self.luts + other.luts, self.ffs + other.ffs,
                              self.dsps + other.dsps, self.brams + other.brams)

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(self.luts - other.luts, self.ffs - other.ffs,
                              self.dsps - other.dsps, self.brams - other.brams)

    def scale(self, factor: float) -> "ResourceVector":
        return ResourceVector(self.luts * factor, self.ffs * factor,
                              self.dsps * factor, self.brams * factor)

    def __mul__(self, factor: float) -> "ResourceVector":
        return self.scale(factor)

    __rmul__ = __mul__

    def fits_in(self, other: "ResourceVector") -> bool:
        """True when this usage fits inside the capacity ``other``."""
        return (self.luts <= other.luts and self.ffs <= other.ffs
                and self.dsps <= other.dsps and self.brams <= other.brams)

    def __str__(self) -> str:
        return (f"{self.luts:.0f} LUT, {self.ffs:.0f} FF, "
                f"{self.dsps:.0f} DSP, {self.brams:.1f} BRAM")


@dataclass(frozen=True)
class OperatorSpec:
    """Delay and cost of one hardware operator for a given data format."""

    kind: OpKind
    delay_ns: float
    resources: ResourceVector
    is_constant_operand: bool = False


def _fixed_catalog(width: int) -> Dict[str, OperatorSpec]:
    """Build the operator catalog for a fixed-point datapath of ``width`` bits.

    Delays are LUT-level combinational delays on a -2 speed grade Virtex-6
    style fabric; costs scale with the operand width.  ``*_const`` entries are
    used when one operand is a literal coefficient.
    """
    w = width
    lut_per_bit_add = 1.0
    mul_full_luts = 0.55 * w * w / 2.0        # LUT-based multiplier fallback
    mul_const_luts = 3.8 * w                  # shift-add network
    div_luts = 0.50 * w * w                   # Newton-Raphson reciprocal-multiply divider
    sqrt_luts = 0.40 * w * w                  # non-restoring square root
    catalog = {
        "add": OperatorSpec(OpKind.ADD, 1.6 + 0.02 * w,
                            ResourceVector(luts=lut_per_bit_add * w, ffs=w)),
        "sub": OperatorSpec(OpKind.SUB, 1.6 + 0.02 * w,
                            ResourceVector(luts=lut_per_bit_add * w, ffs=w)),
        "mul": OperatorSpec(OpKind.MUL, 3.2 + 0.03 * w,
                            ResourceVector(luts=mul_full_luts, ffs=2 * w, dsps=1)),
        "mul_const": OperatorSpec(OpKind.MUL, 2.4 + 0.02 * w,
                                  ResourceVector(luts=mul_const_luts, ffs=w),
                                  is_constant_operand=True),
        "div": OperatorSpec(OpKind.DIV, 5.2 + 0.06 * w,
                            ResourceVector(luts=div_luts, ffs=2 * w)),
        "div_const": OperatorSpec(OpKind.DIV, 2.6 + 0.02 * w,
                                  ResourceVector(luts=mul_const_luts, ffs=w),
                                  is_constant_operand=True),
        "min": OperatorSpec(OpKind.MIN, 1.8 + 0.02 * w,
                            ResourceVector(luts=1.5 * w, ffs=w)),
        "max": OperatorSpec(OpKind.MAX, 1.8 + 0.02 * w,
                            ResourceVector(luts=1.5 * w, ffs=w)),
        "abs": OperatorSpec(OpKind.ABS, 1.4 + 0.01 * w,
                            ResourceVector(luts=1.0 * w, ffs=w)),
        "sqrt": OperatorSpec(OpKind.SQRT, 6.0 + 0.08 * w,
                             ResourceVector(luts=sqrt_luts, ffs=2 * w)),
        "cmp": OperatorSpec(OpKind.CMP_LT, 1.5 + 0.01 * w,
                            ResourceVector(luts=0.8 * w, ffs=1)),
        "select": OperatorSpec(OpKind.SELECT, 1.2 + 0.01 * w,
                               ResourceVector(luts=0.5 * w, ffs=w)),
    }
    return catalog


def _float_catalog() -> Dict[str, OperatorSpec]:
    """Single-precision floating point operators (used by the HLS baselines)."""
    return {
        "add": OperatorSpec(OpKind.ADD, 9.0, ResourceVector(luts=420, ffs=450, dsps=0)),
        "sub": OperatorSpec(OpKind.SUB, 9.0, ResourceVector(luts=420, ffs=450, dsps=0)),
        "mul": OperatorSpec(OpKind.MUL, 8.0, ResourceVector(luts=160, ffs=200, dsps=3)),
        "mul_const": OperatorSpec(OpKind.MUL, 8.0,
                                  ResourceVector(luts=160, ffs=200, dsps=3),
                                  is_constant_operand=True),
        "div": OperatorSpec(OpKind.DIV, 28.0, ResourceVector(luts=800, ffs=900)),
        "div_const": OperatorSpec(OpKind.DIV, 8.0,
                                  ResourceVector(luts=160, ffs=200, dsps=3),
                                  is_constant_operand=True),
        "min": OperatorSpec(OpKind.MIN, 4.0, ResourceVector(luts=80, ffs=40)),
        "max": OperatorSpec(OpKind.MAX, 4.0, ResourceVector(luts=80, ffs=40)),
        "abs": OperatorSpec(OpKind.ABS, 1.0, ResourceVector(luts=2, ffs=32)),
        "sqrt": OperatorSpec(OpKind.SQRT, 26.0, ResourceVector(luts=600, ffs=650)),
        "cmp": OperatorSpec(OpKind.CMP_LT, 4.0, ResourceVector(luts=70, ffs=1)),
        "select": OperatorSpec(OpKind.SELECT, 1.5, ResourceVector(luts=16, ffs=32)),
    }


class OperatorLibrary:
    """Lookup of :class:`OperatorSpec` by operation kind and operand constness."""

    def __init__(self, data_format: DataFormat,
                 catalog: Optional[Dict[str, OperatorSpec]] = None) -> None:
        self.data_format = data_format
        if catalog is None:
            if data_format is DataFormat.FLOAT32:
                catalog = _float_catalog()
            else:
                catalog = _fixed_catalog(data_format.width)
        self._catalog = catalog

    def spec_for(self, kind: OpKind, constant_operand: bool = False) -> OperatorSpec:
        """Return the operator spec; constant-operand variants where they exist."""
        if kind in (OpKind.ADD,):
            return self._catalog["add"]
        if kind is OpKind.SUB or kind is OpKind.NEG:
            return self._catalog["sub"]
        if kind is OpKind.MUL:
            return self._catalog["mul_const" if constant_operand else "mul"]
        if kind is OpKind.DIV:
            return self._catalog["div_const" if constant_operand else "div"]
        if kind is OpKind.MIN:
            return self._catalog["min"]
        if kind is OpKind.MAX:
            return self._catalog["max"]
        if kind is OpKind.ABS:
            return self._catalog["abs"]
        if kind is OpKind.SQRT:
            return self._catalog["sqrt"]
        if kind.is_comparison:
            return self._catalog["cmp"]
        if kind is OpKind.SELECT:
            return self._catalog["select"]
        raise KeyError(f"no operator spec for {kind!r}")

    @property
    def register_resources(self) -> ResourceVector:
        """Cost of one datapath register (the ``Size_reg`` of Equation 1)."""
        width = self.data_format.width
        # A register occupies FFs plus the routing/packing LUT overhead the
        # synthesis backend attributes to it.
        return ResourceVector(luts=0.25 * width, ffs=width)


def default_library(data_format: DataFormat = DataFormat.FIXED32) -> OperatorLibrary:
    """The operator library used throughout the paper reproduction."""
    return OperatorLibrary(data_format)
