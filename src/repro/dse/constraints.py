"""User constraints applied during the exploration."""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Mapping, Optional

from repro.dse.design_point import DesignPoint


@dataclass(frozen=True)
class DseConstraints:
    """Optional bounds on the solutions the flow reports.

    ``min_frames_per_second`` expresses the throughput lower bound (frame
    rate) the paper mentions as the typical user constraint; ``max_area_luts``
    caps the cost, and ``device_only`` restricts the result to architectures
    that fit the selected device.
    """

    min_frames_per_second: Optional[float] = None
    max_area_luts: Optional[float] = None
    device_only: bool = False

    def __post_init__(self) -> None:
        # checked at construction, so a bad bound in a service submit is a
        # 400 instead of a job that fails (or silently admits) mid-run
        for bound in ("min_frames_per_second", "max_area_luts"):
            value = getattr(self, bound)
            if value is not None and (isinstance(value, bool)
                                      or not isinstance(value, numbers.Real)
                                      or value != value):  # NaN
                raise ValueError(f"{bound} must be a real number or None "
                                 f"(got {value!r})")
        if not isinstance(self.device_only, bool):
            raise ValueError(f"device_only must be a bool "
                             f"(got {self.device_only!r})")

    def admits(self, point: DesignPoint) -> bool:
        if self.device_only and not point.fits_device:
            return False
        if (self.min_frames_per_second is not None
                and point.frames_per_second < self.min_frames_per_second):
            return False
        if (self.max_area_luts is not None
                and point.area_luts > self.max_area_luts):
            return False
        return True

    def to_dict(self) -> dict:
        """JSON-ready representation."""
        return {"min_frames_per_second": self.min_frames_per_second,
                "max_area_luts": self.max_area_luts,
                "device_only": self.device_only}

    @classmethod
    def from_dict(cls, data: Mapping) -> "DseConstraints":
        if not isinstance(data, Mapping):
            raise TypeError(
                f"constraints must be a JSON object or null (got {data!r})")
        return cls(min_frames_per_second=data.get("min_frames_per_second"),
                   max_area_luts=data.get("max_area_luts"),
                   device_only=data.get("device_only", False))
