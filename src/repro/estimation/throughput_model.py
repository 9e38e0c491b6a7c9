"""Throughput and latency estimation of cone architectures.

Following Section 3.3 of the paper, the throughput of an architecture is
obtained by (1) taking the latency of each cone from the scheduled datapath
(the sum of operator delays along its pipeline), (2) counting how many cone
executions each level of the template performs for one output tile and how
many physical cones serve them in parallel, and (3) accounting for the memory
system: each execution must be fed its input window through the on-chip
buffer ports, and each tile must move its input region / output window
to and from off-chip memory, overlapped with computation by double buffering.

Architectures that differ only in the primary (deepest) cone's instance
count are costed at once: :meth:`ThroughputModel.estimate_batch` returns one
column per figure over that count axis, and one architecture's figures are a
one-count call.

The per-tile cycle simulator in ``tests/simulation/cycle_oracle.py`` (a
test oracle, not a production module) applies the same accounting tile by
tile; the test suite and ``scripts/check.sh --sim`` hold this model to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Tuple

import numpy as np

from repro.architecture.template import ConeArchitecture
from repro.ir.operators import DataFormat
from repro.synth.fpga_device import FpgaDevice, VIRTEX6_XC6VLX760
from repro.utils.validation import check_positive


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
        check_positive("onchip_port_elements_per_cycle",
                       onchip_port_elements_per_cycle)
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

    def _compute_cycles_batch(self, architecture: ConeArchitecture,
                              cone_performance: Mapping[int, ConePerformance],
                              primary_counts: "np.ndarray") -> "np.ndarray":
        """Per-tile compute cycles over the primary-cone instance-count axis.

        Executions of the same depth are served by the available physical
        instances; consecutive levels are dependent, so each level
        contributes its pipeline fill latency once plus one execution
        interval per serialised execution batch.

        Every architecture of one (window, level-split) group differs only in
        the instance count of the primary (deepest) cone, so the per-level
        accumulation runs once with the primary level's serialisation factor
        vectorized over ``primary_counts``.  Level contributions are added in
        level order, as one architecture's accumulation adds them, so each
        count's cycles equal its longhand sum bit for bit.
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

    def saturation_count(self, architecture: ConeArchitecture) -> int:
        """The smallest primary-cone instance count from which every
        count-dependent column of :meth:`tile_columns` (and so of
        :meth:`estimate_batch`) is constant.

        A level of the primary (deepest) depth serialises its executions
        into ⌈executions / instances⌉ batches (:meth:`_compute_cycles_batch`),
        so once the instances cover the most executions such a level runs
        per tile, each such level runs in one batch: more instances add
        area and no speed.  An exploration's cost table
        (:func:`repro.dse.engine.space_costs`) stops at the largest of
        these counts among a space's groups, and every row past it takes
        the table's last column.  An override that changes how the primary
        count enters the per-tile formula must override this too.
        """
        primary = max(architecture.level_depths)
        return max(executions for depth, executions in zip(
            architecture.level_depths, architecture.executions_per_level())
            if depth == primary)

    def transfer_cycles_per_tile(self, architecture: ConeArchitecture) -> Tuple[float, float]:
        """(cycles, bytes) of off-chip traffic for one output tile."""
        read_elements, written_elements = architecture.offchip_elements_per_tile(
            readonly_components=self.readonly_components)
        bytes_moved = (read_elements + written_elements) * self.data_format.bytes
        return bytes_moved / self.bytes_per_cycle, bytes_moved

    def tiles_per_frame(self, architecture: ConeArchitecture,
                        frame_width: int, frame_height: int) -> int:
        """Output tiles per frame.

        The template tiles the frame by its output windows (Figure 3 of
        the paper), so the count depends on the window side alone: the
        exploration pass (:func:`repro.dse.engine.whole_space_pass`) asks
        once per distinct side and shares the answer among that side's
        groups.  An override must keep to that.
        """
        side = architecture.window_side
        return math.ceil(frame_width / side) * math.ceil(frame_height / side)

    # ------------------------------------------------------------------ #

    def estimate_batch(self, architecture: ConeArchitecture,
                       cone_performance: Mapping[int, ConePerformance],
                       frame_width: int, frame_height: int,
                       primary_counts: "np.ndarray") -> Dict[str, Any]:
        """The model's figures over the primary-cone count axis.

        ``architecture`` is any member of a (window, level-split) group —
        its primary (deepest) cone count is overridden element-wise by
        ``primary_counts`` while every other depth keeps the architecture's
        own instance count.  Returns a dict of parallel columns: per-count
        arrays for the count-dependent figures (``compute_cycles_per_tile``,
        ``cycles_per_tile``, ``seconds_per_frame``, ``frames_per_second``,
        ``compute_bound``) and plain scalars for the group-constant ones
        (``architecture_label``, ``clock_hz``, ``tiles_per_frame``,
        ``transfer_cycles_per_tile``, ``offchip_bytes_per_frame``).  One
        architecture's figures are a one-count call at its own primary
        count.

        The frame-independent half is :meth:`tile_columns`; the frame size
        enters only through the tile count, and each row's frame time
        through :meth:`frame_times`.
        """
        tile = self.tile_columns(architecture, cone_performance,
                                 primary_counts)
        tiles = self.tiles_per_frame(architecture, frame_width, frame_height)
        seconds_per_frame, frames_per_second = self.frame_times(
            tile["cycles_per_tile"], tiles)
        return {
            "architecture_label": tile["architecture_label"],
            "clock_hz": self.device.typical_clock_hz,
            "tiles_per_frame": tiles,
            "compute_cycles_per_tile": tile["compute_cycles_per_tile"],
            "transfer_cycles_per_tile": tile["transfer_cycles_per_tile"],
            "cycles_per_tile": tile["cycles_per_tile"],
            "seconds_per_frame": seconds_per_frame,
            "frames_per_second": frames_per_second,
            "offchip_bytes_per_frame": tile["bytes_per_tile"] * tiles,
            "compute_bound": tile["compute_bound"],
        }

    def tile_columns(self, architecture: ConeArchitecture,
                     cone_performance: Mapping[int, ConePerformance],
                     primary_counts: "np.ndarray") -> Dict[str, Any]:
        """The frame-independent half of :meth:`estimate_batch`.

        Per-count arrays ``compute_cycles_per_tile``, ``cycles_per_tile``
        and ``compute_bound``, and the group-constant
        ``architecture_label``, ``transfer_cycles_per_tile`` and
        ``bytes_per_tile``.  They depend on the architecture, the cone
        latencies and the on-chip port width only, and every array is
        elementwise over ``primary_counts``: a slice of the columns equals
        the columns of the sliced counts.
        """
        primary_counts = np.asarray(primary_counts, dtype=np.int64)
        if primary_counts.ndim != 1:
            raise ValueError("primary_counts must be a 1-D integer array")
        compute = self._compute_cycles_batch(architecture, cone_performance,
                                             primary_counts)
        transfer, bytes_per_tile = self.transfer_cycles_per_tile(architecture)
        return {
            "architecture_label": architecture.label(),
            "compute_cycles_per_tile": compute,
            "transfer_cycles_per_tile": transfer,
            "cycles_per_tile": (np.maximum(compute, transfer)
                                + self.tile_overhead_cycles),
            "compute_bound": compute >= transfer,
            "bytes_per_tile": bytes_per_tile,
        }

    def frame_times(self, cycles_per_tile: "np.ndarray",
                    tiles: Any) -> Tuple["np.ndarray", "np.ndarray"]:
        """Seconds per frame and frames per second: the model's one
        frame-time formula, elementwise.

        ``tiles`` is the tile count per frame, a scalar or an array that
        broadcasts against ``cycles_per_tile`` (one count per group of a
        whole-space table).  A nonpositive frame time gets a frame rate of
        0.
        """
        seconds_per_frame = (cycles_per_tile * tiles
                             / self.device.typical_clock_hz)
        positive = seconds_per_frame > 0
        frames_per_second = np.divide(
            1.0, seconds_per_frame,
            out=np.zeros_like(seconds_per_frame), where=positive)
        return seconds_per_frame, frames_per_second
