"""Functional simulator of the cone architecture.

:class:`FunctionalConeSimulator` executes the architecture functionally,
either by numerically evaluating the symbolic cone expression DAG
(``mode="expression"``, the strongest check of the symbolic layer) or by
applying the kernel to each tile region with NumPy (``mode="region"``).
:meth:`FunctionalConeSimulator.run` evaluates every tile of a frame set in
one vectorized array pass.  The tile-by-tile walk,
:meth:`FunctionalConeSimulator.run_scalar`, is the bit-identical reference
``validate`` checks it against on a crop of every validated frame.

The transaction-level cycle simulator that cross-checks the analytic
throughput model is a test oracle (``tests/simulation/cycle_oracle.py``).
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.frontend.kernel_ir import StencilKernel
from repro.simulation.frame import Frame, FrameSet
from repro.simulation.golden import GoldenExecutor
from repro.symbolic.cone_expression import ConeExpressionBuilder, ConeExpressions
from repro.symbolic.expression import evaluate, evaluate_array


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

        All tiles are evaluated by one vectorized array pass; the tile loop
        (:meth:`run_scalar`) is the bit-identical reference.
        """
        self._check_mode(mode)
        data = {name: frames[name].data for name in frames.names()}
        if mode == "expression":
            outputs = self._run_expression(
                data, frames.height, frames.width, iterations, window_side)
        else:
            outputs = self._run_region(
                data, frames.height, frames.width, iterations, window_side)
        result = frames.copy()
        for name in self.kernel.state_field_names:
            result.replace(name, outputs[name])
        return result

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
    # vectorized passes (every tile of the frame, one array evaluation)

    def _run_expression(self, data: Mapping[str, np.ndarray],
                        height: int, width: int, depth: int,
                        window_side: int) -> Dict[str, np.ndarray]:
        """Evaluate the cone DAG once with (tiles_y, tiles_x) bindings.

        Mirrors :meth:`_evaluate_tile_expressions`: each input symbol's
        clamped read becomes a gather over every tile origin at once, the
        shared DAG cache reuses common sub-expressions across outputs
        exactly like the scalar evaluator, and the per-offset results are
        scattered back through the same zero-initialised window tiles.
        """
        cone = self._cone(window_side, depth)
        tile_ys = np.arange(0, height, window_side)
        tile_xs = np.arange(0, width, window_side)

        bindings: Dict[Tuple[str, int, int, int, int], np.ndarray] = {}
        for symbol in cone.input_symbols:
            ys = np.clip(tile_ys + symbol.offset.dy, 0, height - 1)
            xs = np.clip(tile_xs + symbol.offset.dx, 0, width - 1)
            bindings[(symbol.field, symbol.component, symbol.offset.dx,
                      symbol.offset.dy, symbol.level)] = \
                data[symbol.field][symbol.component][ys[:, None], xs[None, :]]

        cache: Dict[int, np.ndarray] = {}
        tile_grids: Dict[Tuple[str, int], np.ndarray] = {}
        for (field, component, offset), expr in cone.outputs.items():
            grid = tile_grids.setdefault(
                (field, component),
                np.zeros((tile_ys.size, tile_xs.size,
                          window_side, window_side)))
            grid[:, :, offset.dy, offset.dx] = \
                evaluate_array(expr, bindings, cache)

        outputs = {name: data[name].copy()
                   for name in self.kernel.state_field_names}
        for (field, component), grid in tile_grids.items():
            full = grid.transpose(0, 2, 1, 3).reshape(
                tile_ys.size * window_side, tile_xs.size * window_side)
            outputs[field][component] = full[:height, :width]
        return outputs

    def _run_region(self, data: Mapping[str, np.ndarray],
                    height: int, width: int, depth: int,
                    window_side: int) -> Dict[str, np.ndarray]:
        """Apply the kernel ``depth`` times to every tile's halo region at once.

        Mirrors :meth:`_evaluate_tile_region`: the clamped halo regions of
        all tiles are gathered into one
        ``(components, tiles_y, tiles_x, side, side)`` array per field, and
        the golden executor's expression evaluation — purely elementwise
        over the leading axes — is applied to the stack.
        """
        halo = self.radius * depth
        side = window_side + 2 * halo
        tile_ys = np.arange(0, height, window_side)
        tile_xs = np.arange(0, width, window_side)
        span = np.arange(-halo, window_side + halo)
        rows = np.clip(tile_ys[:, None] + span[None, :], 0, height - 1)
        cols = np.clip(tile_xs[:, None] + span[None, :], 0, width - 1)

        region: Dict[str, np.ndarray] = {
            name: array[:, rows[:, None, :, None], cols[None, :, None, :]]
            for name, array in data.items()
        }

        radius = max(self.golden.radius, self.golden._readonly_radius())
        pad_spec = ((0, 0), (0, 0), (0, 0), (radius, radius), (radius, radius))
        for _ in range(depth):
            padded = {name: np.pad(arr, pad_spec, mode="edge")
                      for name, arr in region.items()}

            def read(field_name: str, component: int,
                     dy: int, dx: int) -> np.ndarray:
                array = padded[field_name]
                return array[component, :, :,
                             radius + dy: radius + dy + side,
                             radius + dx: radius + dx + side]

            new_region = {name: arr.copy() for name, arr in region.items()}
            for update in self.kernel.updates:
                new_region[update.field_name][update.component] = \
                    self.golden._evaluate(update.expr, read)
            region = new_region

        outputs = {}
        for name in self.kernel.state_field_names:
            windows = region[name][:, :, :,
                                   halo:halo + window_side,
                                   halo:halo + window_side]
            components = windows.shape[0]
            full = windows.transpose(0, 1, 3, 2, 4).reshape(
                components,
                tile_ys.size * window_side, tile_xs.size * window_side)
            outputs[name] = np.ascontiguousarray(full[:, :height, :width])
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
