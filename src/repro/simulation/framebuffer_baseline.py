"""The straightforward two-frame-buffer architecture (the state of the art
the paper improves upon, references [1][2][3] of the paper).

One iteration at a time: the whole frame ``f_i`` is read (from on-chip memory
when it fits, from off-chip otherwise), the stencil logic produces ``f_{i+1}``
element by element into the other buffer, and the buffers swap.  Its two
well-known problems — on-chip memory proportional to the frame size, and
off-chip traffic of the whole frame on every iteration when it does not fit —
are exactly what the cone architecture removes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.frontend.kernel_ir import StencilKernel
from repro.frontend.semantic import validate_kernel
from repro.ir.operators import DataFormat
from repro.synth.fpga_device import FpgaDevice, VIRTEX6_XC6VLX760


@dataclass(frozen=True)
class FrameBufferPerformance:
    """Performance and feasibility report of the frame-buffer baseline."""

    kernel_name: str
    device_name: str
    frame_width: int
    frame_height: int
    iterations: int
    pixels_per_cycle: int
    frame_fits_onchip: bool
    onchip_bytes_required: int
    offchip_bytes_per_frame: float
    compute_cycles_per_frame: float
    transfer_cycles_per_frame: float
    seconds_per_frame: float
    frames_per_second: float


class FrameBufferArchitecture:
    """Analytic model of the classic double-buffer ISL implementation."""

    def __init__(self, kernel: StencilKernel,
                 device: FpgaDevice = VIRTEX6_XC6VLX760,
                 data_format: DataFormat = DataFormat.FIXED32,
                 pixels_per_cycle: int = 1) -> None:
        self.kernel = kernel
        self.device = device
        self.data_format = data_format
        #: Elements produced per cycle by the stencil datapath.  The classic
        #: implementations referenced by the paper process one element per
        #: cycle; wider datapaths model hand-parallelised variants.
        self.pixels_per_cycle = max(1, pixels_per_cycle)
        self.properties = validate_kernel(kernel, strict=False)

    # ------------------------------------------------------------------ #

    def evaluate(self, frame_width: int, frame_height: int,
                 iterations: int) -> FrameBufferPerformance:
        """Estimate the frame time of the double-buffer architecture."""
        components = self.properties.total_state_components
        readonly = sum(self.properties.components_per_field[name]
                       for name in self.properties.readonly_fields)
        element_bytes = self.data_format.bytes
        pixels = frame_width * frame_height

        # Two full state buffers (ping-pong) plus read-only inputs must live
        # on chip for the fast path.
        onchip_required = (2 * components + readonly) * pixels * element_bytes
        fits = onchip_required <= self.device.onchip_memory_bytes

        clock = self.device.typical_clock_hz
        bytes_per_cycle = (self.device.offchip_bandwidth_bytes_per_s / clock)

        compute_cycles = iterations * pixels / self.pixels_per_cycle

        if fits:
            # load input once, store result once
            offchip_bytes = (components + readonly) * pixels * element_bytes \
                + components * pixels * element_bytes
            transfer_cycles = offchip_bytes / bytes_per_cycle
        else:
            # every iteration streams the full frame in and out
            per_iteration_bytes = (2 * components + readonly) * pixels * element_bytes
            offchip_bytes = iterations * per_iteration_bytes
            transfer_cycles = offchip_bytes / bytes_per_cycle

        # Without the cone decomposition compute and transfer serialise at the
        # iteration boundary (the next iteration cannot start before the
        # previous frame is complete), so overlapping is limited: we model the
        # optimistic case where transfer of iteration i overlaps compute of
        # iteration i-1, i.e. the frame time is the max of the two totals.
        total_cycles = max(compute_cycles, transfer_cycles)
        seconds = total_cycles / clock
        return FrameBufferPerformance(
            kernel_name=self.kernel.name,
            device_name=self.device.name,
            frame_width=frame_width,
            frame_height=frame_height,
            iterations=iterations,
            pixels_per_cycle=self.pixels_per_cycle,
            frame_fits_onchip=fits,
            onchip_bytes_required=onchip_required,
            offchip_bytes_per_frame=offchip_bytes,
            compute_cycles_per_frame=compute_cycles,
            transfer_cycles_per_frame=transfer_cycles,
            seconds_per_frame=seconds,
            frames_per_second=1.0 / seconds if seconds > 0 else 0.0,
        )
