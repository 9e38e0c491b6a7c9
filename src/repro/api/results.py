"""Canonical, serializable result and option types of the flow.

They are owned by the composable API so that every stage artifact can be
written to and restored from JSON.  :mod:`repro.flow` re-exports them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from repro.dse.constraints import DseConstraints
from repro.dse.design_point import DesignPoint
from repro.dse.explorer import ExplorationResult
from repro.frontend.kernel_ir import StencilKernel
from repro.frontend.semantic import KernelProperties
from repro.ir.operators import DataFormat
from repro.symbolic.invariance import InvarianceReport
from repro.synth.fpga_device import FpgaDevice, VIRTEX6_XC6VLX760

# The validate job class returns simulation-layer evidence; re-exported here
# so API consumers can type/parse results without importing repro.simulation.
from repro.simulation.validation import ValidationResult  # noqa: F401


#: Keys of removed knobs, each with the one value the codec still writes
#: and accepts: perfbench pins its request pools and result digests over
#: this JSON, so the keys stay until a benchmark change re-pins them.
_RETIRED_KEYS: Dict[str, object] = {
    "synthesizer": "analytic",
    "area_estimator": "register-model",
    "throughput_estimator": "analytic",
    "stream_jobs": None,
}


@dataclass(frozen=True)
class FlowOptions:
    """User-tunable knobs of the flow.

    Options (and workloads) are declarative and serializable; the explorer
    they configure always runs the one synthesizer, Equation-1 area model
    and throughput model of the flow.
    """

    device: FpgaDevice = VIRTEX6_XC6VLX760
    data_format: DataFormat = DataFormat.FIXED16
    frame_width: int = 1024
    frame_height: int = 768
    iterations: int = 10
    window_sides: Sequence[int] = (1, 2, 3, 4, 5, 6, 7, 8, 9)
    max_depth: int = 5
    max_cones_per_depth: int = 16
    calibration_windows_per_depth: int = 2
    synthesize_all: bool = False
    onchip_port_elements_per_cycle: int = 16
    constraints: Optional[DseConstraints] = None
    #: Out-of-core evaluation knobs (:mod:`repro.dse.stream`): ``stream``
    #: is tri-state (None = auto-select above the engine's row threshold),
    #: ``chunk_rows`` bounds the rows materialized per chunk (None = the
    #: engine default).
    stream: Optional[bool] = None
    chunk_rows: Optional[int] = None

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation."""
        return {
            "device": self.device.to_dict(),
            "data_format": self.data_format.value,
            "frame_width": self.frame_width,
            "frame_height": self.frame_height,
            "iterations": self.iterations,
            "window_sides": list(self.window_sides),
            "max_depth": self.max_depth,
            "max_cones_per_depth": self.max_cones_per_depth,
            "calibration_windows_per_depth": self.calibration_windows_per_depth,
            "synthesize_all": self.synthesize_all,
            "onchip_port_elements_per_cycle": self.onchip_port_elements_per_cycle,
            "constraints": (None if self.constraints is None
                            else self.constraints.to_dict()),
            "stream": self.stream,
            "chunk_rows": self.chunk_rows,
            **_RETIRED_KEYS,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "FlowOptions":
        for key, pinned in _RETIRED_KEYS.items():
            if data.get(key, pinned) != pinned:
                raise ValueError(f"{key} is no longer supported: only "
                                 f"{pinned!r} is accepted (got "
                                 f"{data[key]!r})")
        constraints = data.get("constraints")
        return cls(
            device=FpgaDevice.from_dict(data["device"]),
            data_format=DataFormat(data["data_format"]),
            frame_width=data["frame_width"],
            frame_height=data["frame_height"],
            iterations=data["iterations"],
            window_sides=tuple(data["window_sides"]),
            max_depth=data["max_depth"],
            max_cones_per_depth=data["max_cones_per_depth"],
            calibration_windows_per_depth=data["calibration_windows_per_depth"],
            synthesize_all=data["synthesize_all"],
            onchip_port_elements_per_cycle=data["onchip_port_elements_per_cycle"],
            constraints=(None if constraints is None
                         else DseConstraints.from_dict(constraints)),
            # .get: payloads written before the streaming engine existed
            stream=data.get("stream"),
            chunk_rows=data.get("chunk_rows"),
        )


@dataclass
class FlowResult:
    """Everything the flow produces for one workload."""

    kernel: StencilKernel
    properties: KernelProperties
    invariance: InvarianceReport
    exploration: ExplorationResult
    options: FlowOptions

    @property
    def pareto(self) -> List[DesignPoint]:
        return self.exploration.pareto

    @property
    def design_points(self) -> List[DesignPoint]:
        return self.exploration.design_points

    def best_fitting_point(self) -> Optional[DesignPoint]:
        return self.exploration.best_fitting_point()

    def fastest_point(self) -> Optional[DesignPoint]:
        """Fastest explored point, or ``None`` when no point survived the
        constraints."""
        if not self.design_points:
            return None
        return min(self.design_points, key=lambda p: p.seconds_per_frame)

    def smallest_point(self) -> Optional[DesignPoint]:
        """Smallest explored point, or ``None`` when no point survived the
        constraints."""
        if not self.design_points:
            return None
        return min(self.design_points, key=lambda p: p.area_luts)

    def point_by_label(self, label: str) -> DesignPoint:
        """Look up a design point by its architecture label."""
        for point in self.design_points:
            if point.label == label:
                return point
        raise KeyError(f"no design point labelled {label!r} among "
                       f"{len(self.design_points)} explored points")

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation of the complete result."""
        return {
            "kernel": self.kernel.to_dict(),
            "properties": self.properties.to_dict(),
            "invariance": self.invariance.to_dict(),
            "exploration": self.exploration.to_dict(),
            "options": self.options.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "FlowResult":
        return cls(
            kernel=StencilKernel.from_dict(data["kernel"]),
            properties=KernelProperties.from_dict(data["properties"]),
            invariance=InvarianceReport.from_dict(data["invariance"]),
            exploration=ExplorationResult.from_dict(data["exploration"]),
            options=FlowOptions.from_dict(data["options"]),
        )
