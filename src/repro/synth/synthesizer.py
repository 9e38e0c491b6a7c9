"""The synthesis simulator front door.

``Synthesizer.synthesize`` plays the role Xilinx ISE/Vivado plays in the
paper: given the datapath of one cone it returns the "actual" area and timing
after technology mapping and logic reuse.  It also models the *cost* of a
synthesis run in CPU time, because the whole point of the paper's area model
is to avoid paying that cost for every point of the design space: the flow
tracks how many (simulated) synthesis hours a full exploration would have
taken versus how many the calibrated model needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.ir.dfg import DataflowGraph
from repro.ir.operators import DataFormat, OperatorLibrary, ResourceVector, default_library
from repro.synth.fpga_device import FpgaDevice, VIRTEX6_XC6VLX760
from repro.synth.logic_reuse import LogicReuseModel
from repro.synth.technology_map import MappedDesign, TechnologyMapper
from repro.synth.timing import TimingModel, TimingReport


@dataclass(frozen=True)
class SynthesisReport:
    """Everything a synthesis run reports back to the flow."""

    design_name: str
    device_name: str
    area: ResourceVector
    raw_area: ResourceVector
    register_count: int
    operation_count: int
    timing: TimingReport
    #: Simulated tool runtime (seconds of CPU time a real synthesis of this
    #: design would take); used to quantify the exploration-cost saving.
    estimated_tool_runtime_s: float

    @property
    def slice_luts(self) -> float:
        return self.area.luts

    @property
    def fits(self) -> bool:
        return self._fits

    # populated post-init via object.__setattr__ in Synthesizer
    _fits: bool = True


class Synthesizer:
    """Deterministic stand-in for the FPGA synthesis backend."""

    def __init__(self, device: FpgaDevice = VIRTEX6_XC6VLX760,
                 library: Optional[OperatorLibrary] = None,
                 reuse_model: Optional[LogicReuseModel] = None) -> None:
        self.device = device
        self.library = library or default_library()
        self.reuse_model = reuse_model or LogicReuseModel()
        self.mapper = TechnologyMapper(self.library)
        self.timing_model = TimingModel(device, self.library)
        #: Number of synthesize() calls performed — the "synthesis runs" the
        #: paper wants to minimise.
        self.runs = 0
        self.total_tool_runtime_s = 0.0

    # ------------------------------------------------------------------ #

    def synthesize(self, graph: DataflowGraph) -> SynthesisReport:
        """Synthesise one datapath and report post-optimisation area/timing."""
        schedule = self.timing_model.schedule(graph)
        mapped = self.mapper.map(graph,
                                 pipeline_register_count=schedule.pipeline_register_count)
        area = self.reuse_model.optimize(mapped)
        timing = self.timing_model.analyze(graph, schedule)
        runtime = self._tool_runtime(mapped)

        self.runs += 1
        self.total_tool_runtime_s += runtime

        report = SynthesisReport(
            design_name=graph.name,
            device_name=self.device.name,
            area=area,
            raw_area=mapped.total,
            register_count=mapped.register_count,
            operation_count=mapped.operation_count,
            timing=timing,
            estimated_tool_runtime_s=runtime,
        )
        object.__setattr__(report, "_fits",
                           area.fits_in(self.device.usable_capacity))
        return report

    # ------------------------------------------------------------------ #

    def _tool_runtime(self, mapped: MappedDesign) -> float:
        """Model of the real tool's CPU time for a design of this size.

        Synthesis + place&route time grows super-linearly with logic volume;
        for the cone sizes of the paper this lands in the minutes-to-hours
        range, and a full design-space sweep in the "dozens of hours" the
        paper mentions.
        """
        luts = mapped.total.luts
        # ~40 s fixed start-up plus ~1.5 min per 10k LUTs, growing ^1.15.
        return 40.0 + 90.0 * (luts / 10_000.0) ** 1.15

    def max_parallel_instances(self, report: SynthesisReport) -> int:
        """How many copies of the synthesised cone fit on the device."""
        return self.device.max_instances(report.area)
