"""Transaction-level cycle simulator: the oracle of the throughput model.

:class:`TileCascadeCycleSimulator` walks every tile of a frame through the
cone cascade and counts compute and memory cycles with two memory models:

* :class:`OffChipMemoryModel`, the external frame memory (DDR on the
  board), characterised by a sustained bandwidth;
* :class:`OnChipBufferModel`, the block RAM holding the tile input region
  and the inter-level results, characterised by a per-cycle port width.

Both account for the cycles and bytes of every transfer.  The tests hold
the analytic :class:`~repro.estimation.throughput_model.ThroughputModel`
(what the explorer ranks designs with) to this walk; no production code
path runs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Mapping

from repro.architecture.template import ConeArchitecture
from repro.estimation.throughput_model import ConePerformance
from repro.synth.fpga_device import FpgaDevice, VIRTEX6_XC6VLX760


@dataclass(frozen=True)
class TransferRecord:
    """One logical transfer (a tile load or store)."""

    description: str
    elements: int
    bytes: int
    cycles: float


@dataclass
class OffChipMemoryModel:
    """Sustained-bandwidth model of the external frame memory."""

    device: FpgaDevice
    bytes_per_element: int = 4
    records: List[TransferRecord] = field(default_factory=list)

    @property
    def bytes_per_cycle(self) -> float:
        return (self.device.offchip_bandwidth_bytes_per_s
                / self.device.typical_clock_hz)

    def transfer(self, elements: int, description: str = "") -> TransferRecord:
        """Account one transfer and return its cycle cost."""
        byte_count = elements * self.bytes_per_element
        cycles = byte_count / self.bytes_per_cycle
        record = TransferRecord(description=description, elements=elements,
                                bytes=byte_count, cycles=cycles)
        self.records.append(record)
        return record

    @property
    def total_bytes(self) -> int:
        return sum(r.bytes for r in self.records)

    @property
    def total_cycles(self) -> float:
        return sum(r.cycles for r in self.records)

    def reset(self) -> None:
        self.records.clear()


@dataclass
class OnChipBufferModel:
    """Port-limited model of the on-chip tile / inter-level buffers."""

    capacity_bytes: int
    elements_per_cycle: int = 16
    bytes_per_element: int = 4
    peak_occupancy_bytes: int = 0

    def access_cycles(self, elements: int) -> float:
        """Cycles to stream ``elements`` through the buffer ports."""
        if elements <= 0:
            return 0.0
        return math.ceil(elements / self.elements_per_cycle)

    def occupy(self, elements: int) -> None:
        """Record the footprint of live data; raises if the buffer overflows."""
        required = elements * self.bytes_per_element
        self.peak_occupancy_bytes = max(self.peak_occupancy_bytes, required)
        if required > self.capacity_bytes:
            raise MemoryError(
                f"on-chip buffer overflow: need {required} bytes, "
                f"have {self.capacity_bytes}"
            )

    @property
    def fits(self) -> bool:
        return self.peak_occupancy_bytes <= self.capacity_bytes


@dataclass(frozen=True)
class CycleSimulationResult:
    """Outcome of the transaction-level cycle simulation of one frame."""

    architecture_label: str
    tiles: int
    total_cycles: float
    compute_cycles: float
    transfer_cycles: float
    offchip_bytes: int
    onchip_peak_bytes: int
    seconds_per_frame: float
    frames_per_second: float


class TileCascadeCycleSimulator:
    """Counts compute and memory cycles of the tile cascade."""

    def __init__(self, device: FpgaDevice = VIRTEX6_XC6VLX760,
                 bytes_per_element: int = 4,
                 onchip_port_elements_per_cycle: int = 16,
                 readonly_components: int = 0,
                 tile_overhead_cycles: float = 24.0) -> None:
        self.device = device
        self.bytes_per_element = bytes_per_element
        self.onchip_port_elements_per_cycle = onchip_port_elements_per_cycle
        self.readonly_components = readonly_components
        self.tile_overhead_cycles = tile_overhead_cycles

    def simulate_frame(self, architecture: ConeArchitecture,
                       cone_performance: Mapping[int, ConePerformance],
                       frame_width: int, frame_height: int
                       ) -> CycleSimulationResult:
        """Walk every tile of the frame and accumulate cycle counts."""
        offchip = OffChipMemoryModel(self.device, self.bytes_per_element)
        onchip = OnChipBufferModel(
            capacity_bytes=self.device.onchip_memory_bytes,
            elements_per_cycle=self.onchip_port_elements_per_cycle,
            bytes_per_element=self.bytes_per_element)

        window = architecture.window_side
        tiles_x = math.ceil(frame_width / window)
        tiles_y = math.ceil(frame_height / window)
        executions_per_level = architecture.executions_per_level()
        read_elements, written_elements = architecture.offchip_elements_per_tile(
            readonly_components=self.readonly_components)

        compute_cycles = 0.0
        transfer_cycles = 0.0
        total_cycles = 0.0
        onchip.occupy(architecture.onchip_elements())

        for _tile_index in range(tiles_x * tiles_y):
            load = offchip.transfer(read_elements, "tile input region")
            store = offchip.transfer(written_elements, "tile output window")
            tile_transfer = load.cycles + store.cycles

            tile_compute = 0.0
            for level_index, depth in enumerate(architecture.level_depths):
                perf = cone_performance[depth]
                instances = architecture.cone_counts.get(depth, 1)
                executions = executions_per_level[level_index]
                serialised = math.ceil(executions / max(1, instances))
                geometry = architecture.geometry(depth)
                feed_cycles = onchip.access_cycles(geometry.input_elements)
                tile_compute += perf.latency_cycles + serialised * max(
                    feed_cycles, perf.initiation_interval)

            compute_cycles += tile_compute
            transfer_cycles += tile_transfer
            total_cycles += max(tile_compute, tile_transfer) + self.tile_overhead_cycles

        clock = self.device.typical_clock_hz
        seconds = total_cycles / clock
        return CycleSimulationResult(
            architecture_label=architecture.label(),
            tiles=tiles_x * tiles_y,
            total_cycles=total_cycles,
            compute_cycles=compute_cycles,
            transfer_cycles=transfer_cycles,
            offchip_bytes=offchip.total_bytes,
            onchip_peak_bytes=onchip.peak_occupancy_bytes,
            seconds_per_frame=seconds,
            frames_per_second=1.0 / seconds if seconds > 0 else 0.0,
        )
