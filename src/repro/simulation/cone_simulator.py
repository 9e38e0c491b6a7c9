"""Simulators of the cone architecture.

Two complementary views are provided:

* :class:`FunctionalConeSimulator` — executes the architecture functionally,
  either by numerically evaluating the symbolic cone expression DAG
  (``mode="expression"``, the strongest check of the symbolic layer) or by
  applying the kernel to each tile region with NumPy (``mode="region"``).
  The default path is vectorized: one array pass evaluates every tile (and,
  via :meth:`FunctionalConeSimulator.run_batch`, every frame of a batch) at
  once.  The original tile-by-tile walk is preserved as
  :meth:`FunctionalConeSimulator.run_scalar` and serves as the differential
  oracle — the property suite pins the two paths bit-identical.

* :class:`TileCascadeCycleSimulator` — a transaction-level cycle counter for
  the tile cascade; it cross-checks the analytic throughput model of
  :mod:`repro.estimation.throughput_model`.  Cycle totals are aggregated by
  a sequential-scan array reduction (bit-identical to the per-tile loop,
  preserved as :meth:`TileCascadeCycleSimulator.simulate_frame_scalar`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro.architecture.template import ConeArchitecture
from repro.estimation.throughput_model import ConePerformance, ThroughputModel
from repro.frontend.kernel_ir import StencilKernel
from repro.simulation.frame import Frame, FrameSet
from repro.simulation.golden import GoldenExecutor
from repro.simulation.memory import OffChipMemoryModel, OnChipBufferModel
from repro.symbolic.cone_expression import ConeExpressionBuilder, ConeExpressions
from repro.symbolic.executor import READONLY_LEVEL
from repro.symbolic.expression import evaluate, evaluate_array
from repro.synth.fpga_device import FpgaDevice, VIRTEX6_XC6VLX760


class FunctionalConeSimulator:
    """Functional execution of a cone architecture over a frame."""

    def __init__(self, kernel: StencilKernel,
                 params: Optional[Mapping[str, float]] = None) -> None:
        self.kernel = kernel
        self.params = dict(params) if params else None
        self.golden = GoldenExecutor(kernel, params)
        self.radius = kernel.radius
        self._cone_cache: Dict[Tuple[int, int], ConeExpressions] = {}
        self._builder = ConeExpressionBuilder(kernel, params)

    # ------------------------------------------------------------------ #

    def _cone(self, window_side: int, depth: int) -> ConeExpressions:
        key = (window_side, depth)
        if key not in self._cone_cache:
            self._cone_cache[key] = self._builder.build(window_side, depth)
        return self._cone_cache[key]

    @staticmethod
    def _check_mode(mode: str) -> None:
        if mode not in ("expression", "region"):
            raise ValueError("mode must be 'expression' or 'region'")

    def run(self, frames: FrameSet, iterations: int, window_side: int,
            mode: str = "expression") -> FrameSet:
        """Process ``frames`` tile by tile with cones of depth ``iterations``.

        The output matches the golden model exactly on every element whose
        dependency cone does not touch the frame border (the cone hardware
        has no notion of boundary clamping; border tiles receive
        clamp-to-edge level-0 data, which differs from clamping at every
        iteration only in a border band of width ``radius * iterations``).

        All tiles are evaluated by one vectorized array pass; the preserved
        tile loop (:meth:`run_scalar`) is the bit-identical differential
        oracle.
        """
        self._check_mode(mode)
        return self.run_batch([frames], iterations, window_side, mode)[0]

    def run_batch(self, frame_sets: Iterable[FrameSet], iterations: int,
                  window_side: int, mode: str = "expression") -> List[FrameSet]:
        """Process several frame sets in one batched vectorized evaluation.

        Element-identical to ``[self.run(f, ...) for f in frame_sets]``:
        same-shape frame sets are stacked on a leading batch axis and every
        operation of the evaluation is elementwise over that axis, so each
        slice sees exactly the arithmetic an independent run performs.
        Frame sets of different shapes are grouped and batched per shape;
        the output order always matches the input order.
        """
        self._check_mode(mode)
        frame_sets = list(frame_sets)
        groups: Dict[Tuple[int, int], List[int]] = {}
        for index, frames in enumerate(frame_sets):
            groups.setdefault((frames.height, frames.width), []).append(index)

        state_fields = self.kernel.state_field_names
        results: List[Optional[FrameSet]] = [None] * len(frame_sets)
        for (height, width), indices in groups.items():
            names = frame_sets[indices[0]].names()
            stacked = {
                name: np.stack([frame_sets[i][name].data for i in indices])
                for name in names
            }
            if mode == "expression":
                outputs = self._run_expression_stack(
                    stacked, height, width, iterations, window_side)
            else:
                outputs = self._run_region_stack(
                    stacked, height, width, iterations, window_side)
            for position, index in enumerate(indices):
                result = frame_sets[index].copy()
                for name in state_fields:
                    result.replace(name, outputs[name][position].copy())
                results[index] = result
        return results  # type: ignore[return-value]

    def run_scalar(self, frames: FrameSet, iterations: int, window_side: int,
                   mode: str = "expression") -> FrameSet:
        """Tile-by-tile differential oracle of :meth:`run` (bit-identical)."""
        self._check_mode(mode)
        height, width = frames.height, frames.width
        state_fields = self.kernel.state_field_names
        result = frames.copy()
        output_data = {name: frames[name].data.copy() for name in state_fields}

        for tile_y in range(0, height, window_side):
            for tile_x in range(0, width, window_side):
                tile_h = min(window_side, height - tile_y)
                tile_w = min(window_side, width - tile_x)
                if mode == "expression":
                    tile_values = self._evaluate_tile_expressions(
                        frames, iterations, window_side, tile_y, tile_x)
                else:
                    tile_values = self._evaluate_tile_region(
                        frames, iterations, window_side, tile_y, tile_x)
                for (field, component), tile_array in tile_values.items():
                    output_data[field][component,
                                       tile_y:tile_y + tile_h,
                                       tile_x:tile_x + tile_w] = \
                        tile_array[:tile_h, :tile_w]

        for name in state_fields:
            result.replace(name, output_data[name])
        return result

    # ------------------------------------------------------------------ #
    # vectorized passes (whole frame batches, one array evaluation)

    def _run_expression_stack(self, stacked: Mapping[str, np.ndarray],
                              height: int, width: int, depth: int,
                              window_side: int) -> Dict[str, np.ndarray]:
        """Evaluate the cone DAG once with (batch, tiles_y, tiles_x) bindings.

        Mirrors :meth:`_evaluate_tile_expressions`: each input symbol's
        clamped read becomes a gather over every tile origin at once, the
        shared DAG cache reuses common sub-expressions across outputs
        exactly like the scalar evaluator, and the per-offset results are
        scattered back through the same zero-initialised window tiles.
        """
        cone = self._cone(window_side, depth)
        batch = next(iter(stacked.values())).shape[0]
        tile_ys = np.arange(0, height, window_side)
        tile_xs = np.arange(0, width, window_side)

        bindings: Dict[Tuple[str, int, int, int, int], np.ndarray] = {}
        for symbol in cone.input_symbols:
            data = stacked[symbol.field]
            ys = np.clip(tile_ys + symbol.offset.dy, 0, height - 1)
            xs = np.clip(tile_xs + symbol.offset.dx, 0, width - 1)
            bindings[(symbol.field, symbol.component, symbol.offset.dx,
                      symbol.offset.dy, symbol.level)] = \
                data[:, symbol.component][:, ys[:, None], xs[None, :]]

        cache: Dict[int, np.ndarray] = {}
        tile_grids: Dict[Tuple[str, int], np.ndarray] = {}
        for (field, component, offset), expr in cone.outputs.items():
            grid = tile_grids.setdefault(
                (field, component),
                np.zeros((batch, tile_ys.size, tile_xs.size,
                          window_side, window_side)))
            grid[:, :, :, offset.dy, offset.dx] = \
                evaluate_array(expr, bindings, cache)

        outputs = {name: stacked[name].copy()
                   for name in self.kernel.state_field_names}
        for (field, component), grid in tile_grids.items():
            full = grid.transpose(0, 1, 3, 2, 4).reshape(
                batch, tile_ys.size * window_side, tile_xs.size * window_side)
            outputs[field][:, component] = full[:, :height, :width]
        return outputs

    def _run_region_stack(self, stacked: Mapping[str, np.ndarray],
                          height: int, width: int, depth: int,
                          window_side: int) -> Dict[str, np.ndarray]:
        """Apply the kernel ``depth`` times to every tile's halo region at once.

        Mirrors :meth:`_evaluate_tile_region`: the clamped halo regions of
        all tiles (and all batched frames) are gathered into one
        ``(batch, components, tiles_y, tiles_x, side, side)`` array per
        field, and the golden executor's expression evaluation — purely
        elementwise over the leading axes — is applied to the stack.
        """
        halo = self.radius * depth
        side = window_side + 2 * halo
        tile_ys = np.arange(0, height, window_side)
        tile_xs = np.arange(0, width, window_side)
        span = np.arange(-halo, window_side + halo)
        rows = np.clip(tile_ys[:, None] + span[None, :], 0, height - 1)
        cols = np.clip(tile_xs[:, None] + span[None, :], 0, width - 1)

        region: Dict[str, np.ndarray] = {
            name: data[:, :, rows[:, None, :, None], cols[None, :, None, :]]
            for name, data in stacked.items()
        }

        radius = max(self.golden.radius, self.golden._readonly_radius())
        pad_spec = ((0, 0), (0, 0), (0, 0), (0, 0),
                    (radius, radius), (radius, radius))
        for _ in range(depth):
            padded = {name: np.pad(arr, pad_spec, mode="edge")
                      for name, arr in region.items()}

            def read(field_name: str, component: int,
                     dy: int, dx: int) -> np.ndarray:
                array = padded[field_name]
                return array[:, component, :, :,
                             radius + dy: radius + dy + side,
                             radius + dx: radius + dx + side]

            new_region = {name: arr.copy() for name, arr in region.items()}
            for update in self.kernel.updates:
                new_region[update.field_name][:, update.component] = \
                    self.golden._evaluate(update.expr, read)
            region = new_region

        batch = next(iter(stacked.values())).shape[0]
        outputs = {}
        for name in self.kernel.state_field_names:
            windows = region[name][:, :, :, :,
                                   halo:halo + window_side,
                                   halo:halo + window_side]
            components = windows.shape[1]
            full = windows.transpose(0, 1, 2, 4, 3, 5).reshape(
                batch, components,
                tile_ys.size * window_side, tile_xs.size * window_side)
            outputs[name] = np.ascontiguousarray(full[:, :, :height, :width])
        return outputs

    # ------------------------------------------------------------------ #
    # scalar tile hooks (the differential oracle, and the extension points)

    def _evaluate_tile_expressions(self, frames: FrameSet, depth: int,
                                   window_side: int, tile_y: int, tile_x: int
                                   ) -> Dict[Tuple[str, int], np.ndarray]:
        """Evaluate the depth-``depth`` cone DAG for one output tile."""
        cone = self._cone(window_side, depth)
        bindings: Dict[Tuple[str, int, int, int, int], float] = {}
        for symbol in cone.input_symbols:
            frame = frames[symbol.field]
            value = frame.clamped_read(symbol.component,
                                       tile_y + symbol.offset.dy,
                                       tile_x + symbol.offset.dx)
            bindings[(symbol.field, symbol.component, symbol.offset.dx,
                      symbol.offset.dy, symbol.level)] = value

        cache: Dict[int, float] = {}
        outputs: Dict[Tuple[str, int], np.ndarray] = {}
        for (field, component, offset), expr in cone.outputs.items():
            array = outputs.setdefault(
                (field, component), np.zeros((window_side, window_side)))
            array[offset.dy, offset.dx] = evaluate(expr, bindings, cache)
        return outputs

    def _evaluate_tile_region(self, frames: FrameSet, depth: int,
                              window_side: int, tile_y: int, tile_x: int
                              ) -> Dict[Tuple[str, int], np.ndarray]:
        """Apply the kernel ``depth`` times to the tile's halo region (NumPy)."""
        halo = self.radius * depth
        y0, y1 = tile_y - halo, tile_y + window_side + halo
        x0, x1 = tile_x - halo, tile_x + window_side + halo
        height, width = frames.height, frames.width

        region_frames = []
        for name in frames.names():
            frame = frames[name]
            ys = np.clip(np.arange(y0, y1), 0, height - 1)
            xs = np.clip(np.arange(x0, x1), 0, width - 1)
            region = frame.data[:, ys[:, None], xs[None, :]]
            region_frames.append(Frame(name, region))
        region_set = FrameSet(region_frames)
        region_set = self.golden.run(region_set, depth)

        outputs: Dict[Tuple[str, int], np.ndarray] = {}
        for name in self.kernel.state_field_names:
            frame = region_set[name]
            for component in range(frame.components):
                outputs[(name, component)] = frame.data[
                    component, halo:halo + window_side, halo:halo + window_side]
        return outputs


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

    @staticmethod
    def _sequential_total(per_tile: float, tiles: int) -> float:
        """Fold ``tiles`` identical additions exactly like the scalar loop.

        ``np.cumsum`` accumulates left to right — the same rounding sequence
        as the scalar ``+=`` fold — where ``np.sum``'s pairwise reduction
        would not be bit-identical.
        """
        if tiles <= 0:
            return 0.0
        return float(np.cumsum(np.full(tiles, per_tile, dtype=np.float64))[-1])

    def simulate_frame(self, architecture: ConeArchitecture,
                       cone_performance: Mapping[int, ConePerformance],
                       frame_width: int, frame_height: int) -> CycleSimulationResult:
        """Accumulate frame cycle counts from one representative tile.

        Every tile of the cascade is identical, so the per-tile compute and
        transfer cycles are costed once and the frame totals come from a
        sequential-scan array reduction — bit-identical to walking the tile
        loop (:meth:`simulate_frame_scalar`, the differential oracle).
        """
        offchip = OffChipMemoryModel(self.device, self.bytes_per_element)
        onchip = OnChipBufferModel(
            capacity_bytes=self.device.onchip_memory_bytes,
            elements_per_cycle=self.onchip_port_elements_per_cycle,
            bytes_per_element=self.bytes_per_element)

        window = architecture.window_side
        tiles_x = math.ceil(frame_width / window)
        tiles_y = math.ceil(frame_height / window)
        tiles = tiles_x * tiles_y
        executions_per_level = architecture.executions_per_level()
        read_elements, written_elements = architecture.offchip_elements_per_tile(
            readonly_components=self.readonly_components)
        onchip.occupy(architecture.onchip_elements())

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

        compute_cycles = self._sequential_total(tile_compute, tiles)
        transfer_cycles = self._sequential_total(tile_transfer, tiles)
        total_cycles = self._sequential_total(
            max(tile_compute, tile_transfer) + self.tile_overhead_cycles, tiles)

        clock = self.device.typical_clock_hz
        seconds = total_cycles / clock
        return CycleSimulationResult(
            architecture_label=architecture.label(),
            tiles=tiles,
            total_cycles=total_cycles,
            compute_cycles=compute_cycles,
            transfer_cycles=transfer_cycles,
            offchip_bytes=tiles * (load.bytes + store.bytes),
            onchip_peak_bytes=onchip.peak_occupancy_bytes,
            seconds_per_frame=seconds,
            frames_per_second=1.0 / seconds if seconds > 0 else 0.0,
        )

    def simulate_frame_scalar(self, architecture: ConeArchitecture,
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
