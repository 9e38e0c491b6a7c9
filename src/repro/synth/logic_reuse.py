"""Logic-reuse model of the synthesis backend.

Section 3.3 of the paper observes that the area of a synthesised cone does
not grow linearly with its size "due to the optimization and the logic reuse
performed by the synthesis tool", and introduces the α correction factor to
absorb that effect.  For the reproduction to be meaningful the synthesis
simulator must therefore exhibit the same phenomenon: the *effective* area of
a mapped design is the mapped area scaled by a sharing factor that improves
(sub-linearly, with saturation) as the design grows, plus a small
deterministic design-dependent ripple that prevents the relationship from
being exactly affine — this ripple is what produces the few-percent
estimation errors reported in Figures 5 and 8.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from repro.ir.operators import ResourceVector


@dataclass(frozen=True)
class MappedDesign:
    """Pre-optimisation resource usage of one datapath.

    Every operation costs its operator's resources, every datapath register
    (data-reuse and pipeline registers) costs flip-flops plus packing LUTs,
    and every output element is driven through an output register.
    """

    name: str
    operation_resources: ResourceVector
    register_resources: ResourceVector
    io_resources: ResourceVector
    register_count: int
    operation_count: int

    @property
    def total(self) -> ResourceVector:
        return self.operation_resources + self.register_resources + self.io_resources


def _deterministic_ripple(key: str, amplitude: float) -> float:
    """A reproducible pseudo-random factor in ``[1 - amplitude, 1 + amplitude]``.

    Real synthesis results wobble by a few percent with seed, placement and
    optimisation ordering; we model that wobble as a hash of the design name
    so results are bit-reproducible run to run.
    """
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    fraction = int.from_bytes(digest[:8], "big") / float(1 << 64)
    return 1.0 + amplitude * (2.0 * fraction - 1.0)


@dataclass(frozen=True)
class LogicReuseModel:
    """Parameters of the backend's logic sharing behaviour.

    Attributes
    ----------
    max_logic_sharing:
        Asymptotic fraction of combinational logic the tool manages to share
        away in very large designs (duplicate shift-add networks, common
        coefficient terms across neighbouring output elements, carry-chain
        packing, ...).
    sharing_halflife_luts:
        Design size (pre-optimisation LUTs) at which half of the asymptotic
        sharing is achieved.
    register_packing:
        Fraction of datapath registers absorbed into the same slices as the
        logic (they cost no extra LUTs and fewer FFs than the naive count).
    ripple_amplitude:
        Amplitude of the deterministic per-design wobble.
    """

    max_logic_sharing: float = 0.18
    sharing_halflife_luts: float = 60_000.0
    register_packing: float = 0.30
    ripple_amplitude: float = 0.030

    def sharing_factor(self, raw_luts: float) -> float:
        """Fraction of combinational logic removed for a design of ``raw_luts``."""
        if raw_luts <= 0:
            return 0.0
        saturation = 1.0 - math.exp(-raw_luts / self.sharing_halflife_luts)
        return self.max_logic_sharing * saturation

    def optimize(self, design: MappedDesign) -> ResourceVector:
        """Return the post-optimisation ("actual") resource usage of a design."""
        ripple = _deterministic_ripple(design.name, self.ripple_amplitude)

        logic = design.operation_resources
        share = self.sharing_factor(logic.luts)
        optimized_logic = ResourceVector(
            luts=logic.luts * (1.0 - share) * ripple,
            ffs=logic.ffs * (1.0 - 0.5 * share),
            dsps=logic.dsps,
            brams=logic.brams,
        )

        registers = design.register_resources + design.io_resources
        optimized_registers = ResourceVector(
            luts=registers.luts * (1.0 - self.register_packing),
            ffs=registers.ffs,
            dsps=registers.dsps,
            brams=registers.brams,
        )
        return optimized_logic + optimized_registers
