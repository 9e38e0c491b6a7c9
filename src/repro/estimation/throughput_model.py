"""Throughput and latency estimation of cone architectures.

Following Section 3.3 of the paper, the throughput of an architecture is
obtained by (1) taking the latency of each cone from the scheduled datapath
(the sum of operator delays along its pipeline), (2) counting how many cone
executions each level of the template performs for one output tile and how
many physical cones serve them in parallel, and (3) accounting for the memory
system: each execution must be fed its input window through the on-chip
buffer ports, and each tile must move its input region / output window
to and from off-chip memory, overlapped with computation by double buffering.

The transaction-level simulator in
:mod:`repro.simulation.cone_simulator` applies the same accounting tile by
tile; the two are cross-checked in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.architecture.template import ConeArchitecture
from repro.ir.operators import DataFormat
from repro.synth.fpga_device import FpgaDevice, VIRTEX6_XC6VLX760


@dataclass(frozen=True)
class ConePerformance:
    """Timing characteristics of one cone module (from scheduling or estimation)."""

    depth: int
    window_side: int
    latency_cycles: int
    initiation_interval: int = 1

    @property
    def label(self) -> str:
        return f"w{self.window_side}d{self.depth}"

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation."""
        return {"depth": self.depth, "window_side": self.window_side,
                "latency_cycles": self.latency_cycles,
                "initiation_interval": self.initiation_interval}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ConePerformance":
        return cls(depth=data["depth"], window_side=data["window_side"],
                   latency_cycles=data["latency_cycles"],
                   initiation_interval=data.get("initiation_interval", 1))


@dataclass(frozen=True)
class ArchitecturePerformance:
    """Estimated frame-level performance of one architecture."""

    architecture_label: str
    clock_hz: float
    tiles_per_frame: int
    compute_cycles_per_tile: float
    transfer_cycles_per_tile: float
    cycles_per_tile: float
    seconds_per_frame: float
    frames_per_second: float
    offchip_bytes_per_frame: float
    compute_bound: bool

    @property
    def throughput_pixels_per_second(self) -> float:
        return self.frames_per_second * self.tiles_per_frame

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation."""
        return {
            "architecture_label": self.architecture_label,
            "clock_hz": self.clock_hz,
            "tiles_per_frame": self.tiles_per_frame,
            "compute_cycles_per_tile": self.compute_cycles_per_tile,
            "transfer_cycles_per_tile": self.transfer_cycles_per_tile,
            "cycles_per_tile": self.cycles_per_tile,
            "seconds_per_frame": self.seconds_per_frame,
            "frames_per_second": self.frames_per_second,
            "offchip_bytes_per_frame": self.offchip_bytes_per_frame,
            "compute_bound": self.compute_bound,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ArchitecturePerformance":
        return cls(
            architecture_label=data["architecture_label"],
            clock_hz=data["clock_hz"],
            tiles_per_frame=data["tiles_per_frame"],
            compute_cycles_per_tile=data["compute_cycles_per_tile"],
            transfer_cycles_per_tile=data["transfer_cycles_per_tile"],
            cycles_per_tile=data["cycles_per_tile"],
            seconds_per_frame=data["seconds_per_frame"],
            frames_per_second=data["frames_per_second"],
            offchip_bytes_per_frame=data["offchip_bytes_per_frame"],
            compute_bound=data["compute_bound"],
        )


class ThroughputModel:
    """Estimates seconds-per-frame for a cone architecture on a device."""

    def __init__(self, device: FpgaDevice = VIRTEX6_XC6VLX760,
                 data_format: DataFormat = DataFormat.FIXED32,
                 readonly_components: int = 0,
                 onchip_port_elements_per_cycle: int = 16,
                 tile_overhead_cycles: float = 24.0) -> None:
        self.device = device
        self.data_format = data_format
        self.readonly_components = readonly_components
        #: Elements per cycle each cone instance can pull from its on-chip
        #: input buffer (block-RAM port width assigned to the instance).
        self.onchip_port_elements_per_cycle = onchip_port_elements_per_cycle
        #: Fixed per-tile control overhead (address generation, handshaking).
        self.tile_overhead_cycles = tile_overhead_cycles

    # ------------------------------------------------------------------ #

    @property
    def bytes_per_cycle(self) -> float:
        """Off-chip bandwidth expressed per datapath clock cycle."""
        return self.device.offchip_bandwidth_bytes_per_s / self.device.typical_clock_hz

    def execution_interval_cycles(self, architecture: ConeArchitecture,
                                  depth: int,
                                  performance: ConePerformance) -> float:
        """Cycles between successive executions of one cone instance.

        Bounded below by the datapath initiation interval and by the time
        needed to feed the execution's input window through the instance's
        on-chip buffer port.
        """
        geometry = architecture.geometry(depth)
        feed = math.ceil(geometry.input_elements
                         / self.onchip_port_elements_per_cycle)
        return float(max(performance.initiation_interval, feed))

    def compute_cycles_per_tile(self, architecture: ConeArchitecture,
                                cone_performance: Mapping[int, ConePerformance]) -> float:
        """Cycles the cone cascade spends computing one output tile.

        Executions of the same depth are served by the available physical
        instances; consecutive levels are dependent, so each level contributes
        its pipeline fill latency once plus one execution interval per
        serialised execution batch.  (Thin scalar wrapper over the batch
        accumulation — one formula.)
        """
        primary = max(architecture.level_depths)
        counts = np.asarray([architecture.cone_counts.get(primary, 1)],
                            dtype=np.int64)
        return float(self._compute_cycles_batch(architecture, cone_performance,
                                                counts)[0])

    def _compute_cycles_batch(self, architecture: ConeArchitecture,
                              cone_performance: Mapping[int, ConePerformance],
                              primary_counts: "np.ndarray") -> "np.ndarray":
        """Per-tile compute cycles over the primary-cone instance-count axis.

        Every architecture of one (window, level-split) group differs only in
        the instance count of the primary (deepest) cone, so the per-level
        accumulation runs once with the primary level's serialisation factor
        vectorized over ``primary_counts``.  Level contributions are added in
        level order, mirroring the scalar accumulation addition for addition
        (bit-identical results).
        """
        primary = max(architecture.level_depths)
        executions_per_level = architecture.executions_per_level()
        cycles = np.zeros(primary_counts.size, dtype=np.float64)
        for level_index, depth in enumerate(architecture.level_depths):
            perf = cone_performance.get(depth)
            if perf is None:
                raise KeyError(f"no cone performance data for depth {depth}")
            executions = executions_per_level[level_index]
            interval = self.execution_interval_cycles(architecture, depth, perf)
            if depth == primary:
                serialised = np.ceil(executions
                                     / np.maximum(primary_counts, 1))
            else:
                instances = architecture.cone_counts.get(depth, 1)
                serialised = math.ceil(executions / max(1, instances))
            cycles += perf.latency_cycles + serialised * interval
        return cycles

    def transfer_cycles_per_tile(self, architecture: ConeArchitecture) -> Tuple[float, float]:
        """(cycles, bytes) of off-chip traffic for one output tile."""
        read_elements, written_elements = architecture.offchip_elements_per_tile(
            readonly_components=self.readonly_components)
        bytes_moved = (read_elements + written_elements) * self.data_format.bytes
        return bytes_moved / self.bytes_per_cycle, bytes_moved

    def tiles_per_frame(self, architecture: ConeArchitecture,
                        frame_width: int, frame_height: int) -> int:
        side = architecture.window_side
        return math.ceil(frame_width / side) * math.ceil(frame_height / side)

    # ------------------------------------------------------------------ #

    def estimate_batch(self, architecture: ConeArchitecture,
                       cone_performance: Mapping[int, ConePerformance],
                       frame_width: int, frame_height: int,
                       primary_counts: "np.ndarray") -> Dict[str, Any]:
        """Vectorized :meth:`evaluate` over the primary-cone count axis.

        ``architecture`` is any member of a (window, level-split) group —
        its primary (deepest) cone count is overridden element-wise by
        ``primary_counts`` while every other depth keeps the architecture's
        own instance count.  Returns a dict of parallel columns: per-count
        arrays for the count-dependent figures (``compute_cycles_per_tile``,
        ``cycles_per_tile``, ``seconds_per_frame``, ``frames_per_second``,
        ``compute_bound``) and plain scalars for the group-constant ones
        (``architecture_label``, ``clock_hz``, ``tiles_per_frame``,
        ``transfer_cycles_per_tile``, ``offchip_bytes_per_frame``).

        This is the single implementation of the frame-level model: the
        scalar :meth:`evaluate` delegates here with a one-element count
        axis, so batch and scalar figures are bit-identical by construction.
        """
        primary_counts = np.asarray(primary_counts, dtype=np.int64)
        if primary_counts.ndim != 1:
            raise ValueError("primary_counts must be a 1-D integer array")
        compute = self._compute_cycles_batch(architecture, cone_performance,
                                             primary_counts)
        return self._assemble_columns(architecture, compute,
                                      frame_width, frame_height)

    def _assemble_columns(self, architecture: ConeArchitecture,
                          compute: "np.ndarray", frame_width: int,
                          frame_height: int) -> Dict[str, Any]:
        """Frame-level assembly shared by the scalar and batch paths: turn
        per-tile compute cycles (any count axis) into the full column dict."""
        transfer, bytes_per_tile = self.transfer_cycles_per_tile(architecture)
        per_tile = np.maximum(compute, transfer) + self.tile_overhead_cycles
        tiles = self.tiles_per_frame(architecture, frame_width, frame_height)
        clock = self.device.typical_clock_hz
        seconds_per_frame = per_tile * tiles / clock
        positive = seconds_per_frame > 0
        frames_per_second = np.divide(
            1.0, seconds_per_frame,
            out=np.zeros_like(seconds_per_frame), where=positive)
        return {
            "architecture_label": architecture.label(),
            "clock_hz": clock,
            "tiles_per_frame": tiles,
            "compute_cycles_per_tile": compute,
            "transfer_cycles_per_tile": transfer,
            "cycles_per_tile": per_tile,
            "seconds_per_frame": seconds_per_frame,
            "frames_per_second": frames_per_second,
            "offchip_bytes_per_frame": bytes_per_tile * tiles,
            "compute_bound": compute >= transfer,
        }

    def evaluate(self, architecture: ConeArchitecture,
                 cone_performance: Mapping[int, ConePerformance],
                 frame_width: int, frame_height: int) -> ArchitecturePerformance:
        """Estimate the frame rate of ``architecture`` on the given frame size.

        The per-architecture twin of :meth:`estimate_batch`, which the
        exploration costs every candidate with: both call the same per-tile
        methods and share the frame-level assembly, so they agree bit for
        bit.
        """
        compute = np.asarray([self.compute_cycles_per_tile(architecture,
                                                           cone_performance)],
                             dtype=np.float64)
        columns = self._assemble_columns(architecture, compute,
                                         frame_width, frame_height)
        return performance_from_columns(columns, 0)


def performance_from_columns(columns: Mapping[str, Any],
                             index: int) -> ArchitecturePerformance:
    """Materialize one :class:`ArchitecturePerformance` from a column dict
    produced by :meth:`ThroughputModel.estimate_batch` (NumPy scalars are
    converted to plain Python values, preserving their bits)."""
    return ArchitecturePerformance(
        architecture_label=columns["architecture_label"],
        clock_hz=columns["clock_hz"],
        tiles_per_frame=columns["tiles_per_frame"],
        compute_cycles_per_tile=float(columns["compute_cycles_per_tile"][index]),
        transfer_cycles_per_tile=columns["transfer_cycles_per_tile"],
        cycles_per_tile=float(columns["cycles_per_tile"][index]),
        seconds_per_frame=float(columns["seconds_per_frame"][index]),
        frames_per_second=float(columns["frames_per_second"][index]),
        offchip_bytes_per_frame=columns["offchip_bytes_per_frame"],
        compute_bound=bool(columns["compute_bound"][index]),
    )
