"""Canonical, serializable result and option types of the flow.

They are owned by the composable API so that every stage artifact can be
written to and restored from JSON.  :mod:`repro.flow` re-exports them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro.dse.constraints import DseConstraints
from repro.dse.design_point import DesignPoint
from repro.dse.explorer import ExplorationResult
from repro.frontend.kernel_ir import StencilKernel
from repro.frontend.semantic import KernelProperties
from repro.ir.operators import DataFormat
from repro.symbolic.invariance import InvarianceReport
from repro.synth.fpga_device import (FpgaDevice, VIRTEX6_XC6VLX760,
                                     resolve_device)

# The validate job class returns simulation-layer evidence; re-exported here
# so API consumers can type/parse results without importing repro.simulation.
from repro.simulation.validation import ValidationResult  # noqa: F401


#: Keys of removed knobs, each with the one value the codec still writes
#: and accepts: perfbench pins its request pools and result digests over
#: this JSON, so the keys stay until a benchmark change re-pins them.
_RETIRED_KEYS: Dict[str, object] = {
    "chunk_rows": None,
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
    and throughput model of the flow.  Construction resolves a part name to
    its :class:`FpgaDevice`, a value to its :class:`DataFormat` and the
    window sides to a sorted tuple, and rejects a bad knob: every
    :class:`~repro.api.workload.Workload` is checked here.
    """

    device: Union[FpgaDevice, str] = VIRTEX6_XC6VLX760
    data_format: Union[DataFormat, str] = DataFormat.FIXED16
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
    #: Out-of-core evaluation (:mod:`repro.dse.stream`), tri-state: None
    #: auto-selects above the engine's row threshold.
    stream: Optional[bool] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "device", resolve_device(self.device))
        object.__setattr__(self, "data_format",
                           _resolve_data_format(self.data_format))
        if (self.constraints is not None
                and not isinstance(self.constraints, DseConstraints)):
            raise TypeError(f"constraints must be None or a DseConstraints "
                            f"(got {self.constraints!r})")
        for knob in ("frame_width", "frame_height", "iterations", "max_depth",
                     "max_cones_per_depth", "onchip_port_elements_per_cycle"):
            _require_int(knob, getattr(self, knob))
        # Equation 1 needs two reference syntheses per cone depth
        _require_int("calibration_windows_per_depth",
                     self.calibration_windows_per_depth, minimum=2)
        if not isinstance(self.synthesize_all, bool):
            raise ValueError(f"synthesize_all must be a bool (got "
                             f"{self.synthesize_all!r})")
        if self.stream is not None and not isinstance(self.stream, bool):
            raise ValueError(f"stream must be None or a bool (got "
                             f"{self.stream!r})")
        window_sides = tuple(self.window_sides)
        if not window_sides:
            raise ValueError("window_sides must name at least one side")
        for side in window_sides:
            _require_int("each window side", side)
        object.__setattr__(self, "window_sides",
                           tuple(sorted(set(window_sides))))

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
            **_RETIRED_KEYS,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "FlowOptions":
        return cls(**cls.knobs_from_dict(data))

    @staticmethod
    def knobs_from_dict(data: Mapping[str, object]) -> Dict[str, object]:
        """The knobs of a :meth:`to_dict` payload as constructor keywords,
        decoded but not yet checked (construction checks them)."""
        for key, pinned in _RETIRED_KEYS.items():
            if data.get(key, pinned) != pinned:
                raise ValueError(f"{key} is no longer supported: only "
                                 f"{pinned!r} is accepted (got "
                                 f"{data[key]!r})")
        constraints = data.get("constraints")
        return dict(
            device=FpgaDevice.from_dict(data["device"]),
            data_format=data["data_format"],
            frame_width=data["frame_width"],
            frame_height=data["frame_height"],
            iterations=data["iterations"],
            window_sides=data["window_sides"],
            max_depth=data["max_depth"],
            max_cones_per_depth=data["max_cones_per_depth"],
            calibration_windows_per_depth=data["calibration_windows_per_depth"],
            synthesize_all=data["synthesize_all"],
            onchip_port_elements_per_cycle=data["onchip_port_elements_per_cycle"],
            constraints=(None if constraints is None
                         else DseConstraints.from_dict(constraints)),
            # .get: payloads written before the streaming engine existed
            stream=data.get("stream"),
        )


def _require_int(name: str, value: Any, minimum: int = 1) -> None:
    """Raise ``ValueError`` unless ``value`` is an ``int`` >= ``minimum``
    (a ``bool`` is not)."""
    if (isinstance(value, bool) or not isinstance(value, int)
            or value < minimum):
        expected = ("a positive integer" if minimum == 1
                    else f"an integer >= {minimum}")
        raise ValueError(f"{name} must be {expected} (got {value!r})")


def _resolve_data_format(value: Any) -> DataFormat:
    """The :class:`DataFormat` member of ``value`` (a member or its value)."""
    try:
        return DataFormat(value)
    except ValueError:
        raise ValueError(
            f"data_format must be one of "
            f"{', '.join(member.value for member in DataFormat)} "
            f"(got {value!r})") from None


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
