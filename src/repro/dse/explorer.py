"""The design-space explorer.

This is the second phase of the flow (Figure 2 of the paper): starting from
the dependency analysis of the kernel it characterises every cone shape the
architecture space may use, calibrates the Equation-1 area model from a small
number of reference syntheses, estimates area and throughput for every
candidate architecture, and extracts the Pareto set.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.architecture.cone import ConeShape
from repro.architecture.enumeration import ArchitectureSpace
from repro.dse.constraints import DseConstraints
from repro.dse.design_point import DesignPoint
from repro.dse.stream import STREAM_AUTO_THRESHOLD, explore_stream
from repro.estimation.area_model import (
    AreaModelValidation,
    CalibrationPoint,
    RegisterAreaModel,
    validate_against_synthesis,
)
from repro.estimation.throughput_model import ThroughputModel
from repro.frontend.kernel_ir import StencilKernel
from repro.frontend.semantic import KernelProperties, validate_kernel
from repro.ir.operators import DataFormat, OperatorLibrary, default_library
from repro.obs import trace as obs_trace
from repro.symbolic.cone_expression import ConeExpressionBuilder
from repro.symbolic.invariance import (ConstantFault, InvarianceReport,
                                      constant_fault, verify_kernel)
from repro.synth.fpga_device import FpgaDevice, VIRTEX6_XC6VLX760
from repro.synth.synthesizer import Synthesizer, tool_runtime_s


@dataclass
class ConeCharacterization:
    """Area/latency characterisation of one cone shape."""

    shape: ConeShape
    register_count: int
    operation_count: int
    critical_path_depth: int
    estimated_area_luts: float = 0.0
    actual_area_luts: Optional[float] = None
    latency_cycles: int = 1
    synthesized: bool = False
    #: Simulated tool runtime of this shape's synthesis run (0 when the
    #: shape was only estimated).
    tool_runtime_s: float = 0.0

    @property
    def area_luts(self) -> float:
        """Best available area figure (synthesis when present, else estimate)."""
        if self.actual_area_luts is not None:
            return self.actual_area_luts
        return self.estimated_area_luts

    @property
    def window_area(self) -> int:
        return self.shape.window_area

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation."""
        return {
            "shape": self.shape.to_dict(),
            "register_count": self.register_count,
            "operation_count": self.operation_count,
            "critical_path_depth": self.critical_path_depth,
            "estimated_area_luts": self.estimated_area_luts,
            "actual_area_luts": self.actual_area_luts,
            "latency_cycles": self.latency_cycles,
            "synthesized": self.synthesized,
            "tool_runtime_s": self.tool_runtime_s,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ConeCharacterization":
        return cls(
            shape=ConeShape.from_dict(data["shape"]),
            register_count=data["register_count"],
            operation_count=data["operation_count"],
            critical_path_depth=data["critical_path_depth"],
            estimated_area_luts=data["estimated_area_luts"],
            actual_area_luts=data["actual_area_luts"],
            latency_cycles=data["latency_cycles"],
            synthesized=data["synthesized"],
            tool_runtime_s=data.get("tool_runtime_s", 0.0),
        )


@dataclass
class ExplorationResult:
    """Everything the exploration produces."""

    kernel_name: str
    device_name: str
    frame_width: int
    frame_height: int
    total_iterations: int
    properties: KernelProperties
    characterizations: Dict[Tuple[int, int], ConeCharacterization]
    design_points: List[DesignPoint]
    pareto: List[DesignPoint]
    area_validations: Dict[int, AreaModelValidation]
    synthesis_runs: int
    synthesis_runs_avoided: int
    tool_runtime_spent_s: float
    tool_runtime_avoided_s: float
    #: Streaming metadata (the pushdown and chunk accounting of
    #: :class:`~repro.dse.stream.StreamingExploration`) when the
    #: exploration kept only the frontier; ``None`` when it kept every
    #: admitted row.  When set, ``design_points`` holds only the frontier
    #: members.
    streaming: Optional[Dict[str, object]] = None

    def characterization(self, window_side: int, depth: int) -> ConeCharacterization:
        return self.characterizations[(window_side, depth)]

    def best_fitting_point(self) -> Optional[DesignPoint]:
        """Fastest design point that fits the target device."""
        fitting = [p for p in self.design_points if p.fits_device]
        if not fitting:
            return None
        return min(fitting, key=lambda p: p.seconds_per_frame)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation of the full exploration outcome.

        Pareto points are stored as indices into ``design_points`` so the
        deserialized Pareto set is the *same* subset (object identity within
        the result) rather than a parallel copy.
        """
        index_by_id = {id(p): i for i, p in enumerate(self.design_points)}
        pareto: List[object] = []
        for point in self.pareto:
            position = index_by_id.get(id(point))
            pareto.append(point.to_dict() if position is None else position)
        return {
            "kernel_name": self.kernel_name,
            "device_name": self.device_name,
            "frame_width": self.frame_width,
            "frame_height": self.frame_height,
            "total_iterations": self.total_iterations,
            "properties": self.properties.to_dict(),
            "characterizations": [c.to_dict()
                                  for c in self.characterizations.values()],
            "design_points": [p.to_dict() for p in self.design_points],
            "pareto": pareto,
            "area_validations": {str(d): v.to_dict()
                                 for d, v in self.area_validations.items()},
            "synthesis_runs": self.synthesis_runs,
            "synthesis_runs_avoided": self.synthesis_runs_avoided,
            "tool_runtime_spent_s": self.tool_runtime_spent_s,
            "tool_runtime_avoided_s": self.tool_runtime_avoided_s,
            # emitted only for streamed explorations, so in-memory results
            # keep their historical serialization byte for byte
            **({} if self.streaming is None
               else {"streaming": dict(self.streaming)}),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ExplorationResult":
        characterizations = {}
        for entry in data["characterizations"]:
            characterization = ConeCharacterization.from_dict(entry)
            shape = characterization.shape
            characterizations[(shape.window_side, shape.depth)] = characterization
        design_points = [DesignPoint.from_dict(p)
                         for p in data["design_points"]]
        pareto = [design_points[entry] if isinstance(entry, int)
                  else DesignPoint.from_dict(entry)
                  for entry in data["pareto"]]
        return cls(
            kernel_name=data["kernel_name"],
            device_name=data["device_name"],
            frame_width=data["frame_width"],
            frame_height=data["frame_height"],
            total_iterations=data["total_iterations"],
            properties=KernelProperties.from_dict(data["properties"]),
            characterizations=characterizations,
            design_points=design_points,
            pareto=pareto,
            area_validations={int(d): AreaModelValidation.from_dict(v)
                              for d, v in data["area_validations"].items()},
            synthesis_runs=data["synthesis_runs"],
            synthesis_runs_avoided=data["synthesis_runs_avoided"],
            tool_runtime_spent_s=data["tool_runtime_spent_s"],
            tool_runtime_avoided_s=data["tool_runtime_avoided_s"],
            streaming=data.get("streaming"),
        )


#: One cached depth family: per-window characterizations + Eq.-1 validation.
FamilyEntry = Tuple[Dict[int, ConeCharacterization], AreaModelValidation]


class DesignSpaceExplorer:
    """Runs the estimation + exploration phase of the flow for one kernel.

    The explorer builds its three analytical components itself: one
    :class:`~repro.synth.synthesizer.Synthesizer` for the reference
    syntheses (its ``runs`` and ``total_tool_runtime_s`` feed the session
    accounting), one Equation-1
    :class:`~repro.estimation.area_model.RegisterAreaModel` per depth
    family, and the :class:`~repro.estimation.throughput_model.ThroughputModel`
    every exploration costs its candidates with.

    ``family_store`` (duck-typed ``load(depth, windows)`` /
    ``save(depth, windows, family)``, see
    :class:`repro.api.store.CharacterizationStoreAdapter`) persists the
    per-depth-family characterizations across processes; the in-memory
    family cache remains the first-level cache in front of it.
    """

    def __init__(self, kernel: StencilKernel,
                 device: FpgaDevice = VIRTEX6_XC6VLX760,
                 data_format: DataFormat = DataFormat.FIXED16,
                 window_sides: Sequence[int] = (1, 2, 3, 4, 5, 6, 7, 8, 9),
                 max_depth: int = 5,
                 max_cones_per_depth: int = 16,
                 calibration_windows_per_depth: int = 2,
                 synthesize_all: bool = False,
                 onchip_port_elements_per_cycle: int = 16,
                 params: Optional[Mapping[str, float]] = None,
                 *,
                 family_store: Optional[Any] = None) -> None:
        self.kernel = kernel
        self.device = device
        self.data_format = data_format
        self.library: OperatorLibrary = default_library(data_format)
        self.window_sides = tuple(sorted(set(window_sides)))
        self.max_depth = max_depth
        self.max_cones_per_depth = max_cones_per_depth
        # Equation 1 interpolates alpha between at least two reference
        # syntheses per depth; fewer calibration windows cannot anchor the
        # model, so reject the setting instead of silently raising it.
        if calibration_windows_per_depth < 2:
            raise ValueError(
                f"calibration_windows_per_depth must be >= 2 (got "
                f"{calibration_windows_per_depth}): the Equation-1 area model "
                "needs at least two reference syntheses per cone depth to "
                "calibrate alpha")
        self.calibration_windows_per_depth = calibration_windows_per_depth
        self.synthesize_all = synthesize_all
        self.properties = validate_kernel(kernel)
        self._params = dict(params) if params else None
        self.family_store = family_store
        self.synthesizer = Synthesizer(device=device, library=self.library)
        readonly = sum(self.properties.components_per_field[name]
                       for name in self.properties.readonly_fields)
        self._readonly_components = readonly
        self.onchip_port_elements_per_cycle = onchip_port_elements_per_cycle
        self.throughput_model = ThroughputModel(
            device=device,
            data_format=data_format,
            readonly_components=readonly,
            onchip_port_elements_per_cycle=onchip_port_elements_per_cycle,
        )
        #: Average combinational delay used to estimate the latency of cones
        #: that are not synthesised (their pipeline depth is derived from the
        #: expression-DAG depth).
        self.mean_operator_delay_ns = 2.1
        # Characterisations depend only on the cone shape, not on the frame
        # size or the iteration count: the family cache shares the actual
        # characterisation (and its synthesis runs) of each (depth, window
        # family) across iteration counts; per-iteration shape tables are
        # reassembled from it on demand (cheap).
        self._family_cache: Dict[Tuple[int, Tuple[int, ...]],
                                 FamilyEntry] = {}
        # guards _family_cache against concurrent insert-vs-snapshot races
        # (accounting reads may come from other threads mid-exploration)
        self._cache_lock = threading.Lock()

    @cached_property
    def invariance(self) -> InvarianceReport:
        """The kernel's ISL verification (translation invariance, domain
        narrowness); run once per explorer."""
        return verify_kernel(self.kernel)

    @cached_property
    def constant_fault(self) -> Optional[ConstantFault]:
        """An operand of the kernel that folds to a constant no cone can
        be built with under this explorer's params (a zero divisor, the
        negative operand of a square root), or ``None``; checked once per
        explorer."""
        return constant_fault(self.kernel, self._params)

    # ------------------------------------------------------------------ #
    # phase 1: cone characterisation and area-model calibration

    def characterize_cones(self, total_iterations: int
                           ) -> Tuple[Dict[Tuple[int, int], ConeCharacterization],
                                      Dict[int, AreaModelValidation]]:
        """Characterise every cone shape of the space; calibrate Equation 1.

        Characterisation (including the reference syntheses) is cached per
        ``(depth, window family)``, so exploring the same kernel with a
        different total iteration count only pays for depth families it has
        not met before.  The families this call characterizes share one
        cone builder, so each element of their cones is expanded once and
        the synthesizer maps and schedules each DAG node once; the builder,
        its DAG and the DAG memo are dropped on return.
        """
        space = self._space(total_iterations)
        shapes = space.distinct_shapes()
        characterizations: Dict[Tuple[int, int], ConeCharacterization] = {}

        # group shapes by depth: Equation 1 runs along the window-size axis
        by_depth: Dict[int, List[int]] = {}
        for window, depth in shapes:
            by_depth.setdefault(depth, []).append(window)

        validations: Dict[int, AreaModelValidation] = {}
        cone_builder: Optional[ConeExpressionBuilder] = None

        for depth, windows in sorted(by_depth.items()):
            windows = tuple(sorted(windows))
            with self._cache_lock:
                family = self._family_cache.get((depth, windows))
            if family is None and self.family_store is not None:
                # second-level cache: a previous process may have paid for
                # this family already (corrupt/mismatched artifacts load as
                # None and fall through to recomputation)
                family = self.family_store.load(depth, windows)
                if family is not None:
                    with self._cache_lock:
                        family = self._family_cache.setdefault(
                            (depth, windows), family)
            if family is None:
                if cone_builder is None:
                    cone_builder = ConeExpressionBuilder(self.kernel,
                                                         self._params)
                family = self._characterize_family(cone_builder, depth,
                                                   windows)
                with self._cache_lock:
                    # another thread may have won the race; keep its entry
                    # so every caller shares one characterisation
                    family = self._family_cache.setdefault((depth, windows),
                                                           family)
                if self.family_store is not None:
                    # a racing duplicate save rewrites identical content
                    # atomically, so last-writer-wins is harmless
                    self.family_store.save(depth, windows, family)
            per_window, validation = family
            validations[depth] = validation
            for window in windows:
                characterizations[(window, depth)] = per_window[window]

        return characterizations, validations

    def _characterize_family(self, cone_builder: ConeExpressionBuilder,
                             depth: int, windows: Sequence[int]
                             ) -> Tuple[Dict[int, ConeCharacterization],
                                        AreaModelValidation]:
        """Characterise one depth family and calibrate its Equation-1 model."""
        period_ns = 1e9 / self.device.typical_clock_hz
        registers: Dict[int, int] = {}
        per_window: Dict[int, ConeCharacterization] = {}

        for window in windows:
            with obs_trace.span("cone.build", window=window, depth=depth):
                cone = cone_builder.build(window, depth)
            characterization = ConeCharacterization(
                shape=ConeShape(window, depth),
                register_count=cone.register_count,
                operation_count=cone.operation_count,
                critical_path_depth=cone.critical_path_depth,
            )
            registers[window * window] = cone.register_count
            per_window[window] = characterization

            calibration_slot = windows.index(window) < self.calibration_windows_per_depth
            if calibration_slot or self.synthesize_all:
                with obs_trace.span("synth.run", window=window, depth=depth):
                    report = self.synthesizer.synthesize(cone)
                characterization.actual_area_luts = report.area.luts
                characterization.latency_cycles = report.timing.latency_cycles
                characterization.synthesized = True
                characterization.tool_runtime_s = report.estimated_tool_runtime_s
            else:
                characterization.latency_cycles = max(1, math.ceil(
                    characterization.critical_path_depth
                    * self.mean_operator_delay_ns / period_ns))

        # calibrate the Equation-1 model on the first syntheses of this depth
        calibration = [
            CalibrationPoint(key=w * w,
                             register_count=per_window[w].register_count,
                             actual_area_luts=per_window[w].actual_area_luts or 0.0)
            for w in windows[:self.calibration_windows_per_depth]
        ]
        if len(calibration) >= 2:
            with obs_trace.span("area.calibrate", depth=depth,
                                windows=len(windows)):
                model = RegisterAreaModel(library=self.library)
                model.calibrate(calibration)
                estimates = {e.key: e.estimated_area_luts
                             for e in model.estimate_series(registers)}
        else:
            # a single window in the family: its synthesis result is used
            # directly, no incremental model is needed.
            estimates = {windows[0] ** 2:
                         per_window[windows[0]].actual_area_luts or 0.0}
        for window in windows:
            per_window[window].estimated_area_luts = estimates[window * window]

        actual = {w * w: per_window[w].actual_area_luts
                  for w in windows if per_window[w].actual_area_luts is not None}
        validation = validate_against_synthesis(actual, estimates, depth=depth)
        return per_window, validation

    # ------------------------------------------------------------------ #
    # phase 2: architecture space evaluation

    def explore(self, total_iterations: int, frame_width: int, frame_height: int,
                constraints: Optional[DseConstraints] = None,
                onchip_port_elements_per_cycle: Optional[int] = None,
                *, stream: Optional[bool] = None) -> ExplorationResult:
        """Run the full exploration and return design points plus the Pareto set.

        ``onchip_port_elements_per_cycle`` overrides the constructor default
        for this exploration only — like the frame geometry, it affects the
        throughput estimate, not the cone characterizations, so sweeps over
        it reuse all synthesis/calibration work.

        Every exploration runs one columnar pass over the space's cached
        cost table (:mod:`repro.dse.stream`), once, on the calling thread,
        and ``stream`` picks which design points it keeps: ``None`` (the
        default) streams spaces of at least ``STREAM_AUTO_THRESHOLD``
        candidates and explores smaller ones in memory; ``True``/``False``
        force either.  An in-memory exploration keeps every admitted
        design point.  A streamed one carries the identical Pareto
        frontier, but materializes *only* the frontier as design points
        (``result.design_points`` are the ``result.pareto`` members) and
        records the pushdown and chunk accounting under
        ``result.streaming``.
        """
        characterizations, validations = self.characterize_cones(total_iterations)
        space = self._space(total_iterations)
        if stream is None:
            stream = space.size() >= STREAM_AUTO_THRESHOLD  # O(1)
        evaluation = explore_stream(
            space, characterizations,
            self._throughput_model_for(onchip_port_elements_per_cycle),
            frame_width, frame_height, constraints,
            self.device.usable_capacity.luts,
            materialize="frontier" if stream else "admitted")
        streaming_meta: Optional[Dict[str, object]] = None
        if stream:
            streaming_meta = {
                "space_rows": evaluation.space_rows,
                "admitted_rows": evaluation.admitted_rows,
                "pruned_rows": evaluation.pruned_rows,
                "throughput_pruned_rows": evaluation.throughput_pruned_rows,
                "pruned_fraction": evaluation.pruned_fraction,
                "chunks_total": evaluation.chunks_total,
                "chunks_skipped": evaluation.chunks_skipped,
                "peak_chunk_rows": evaluation.peak_chunk_rows,
            }

        full_space_runs = len(characterizations)
        # Runs and tool runtime backing *this* exploration's shapes
        # (characterisations may be shared with other iteration counts; the
        # synthesizer's own counters are cumulative across them).
        runs_spent = sum(1 for c in characterizations.values() if c.synthesized)
        runs_avoided = full_space_runs - runs_spent
        runtime_spent = sum(c.tool_runtime_s
                            for c in characterizations.values())
        avoided_runtime = self._avoided_runtime(characterizations)

        return ExplorationResult(
            kernel_name=self.kernel.name,
            device_name=self.device.name,
            frame_width=frame_width,
            frame_height=frame_height,
            total_iterations=total_iterations,
            properties=self.properties,
            characterizations=characterizations,
            design_points=evaluation.design_points,
            pareto=evaluation.pareto,
            area_validations=validations,
            synthesis_runs=runs_spent,
            synthesis_runs_avoided=runs_avoided,
            tool_runtime_spent_s=runtime_spent,
            tool_runtime_avoided_s=avoided_runtime,
            streaming=streaming_meta,
        )

    def _throughput_model_for(self, onchip_port_elements_per_cycle:
                              Optional[int]) -> ThroughputModel:
        """The throughput model, rebuilt when an exploration overrides the
        on-chip port width."""
        if (onchip_port_elements_per_cycle is None
                or onchip_port_elements_per_cycle
                == self.onchip_port_elements_per_cycle):
            return self.throughput_model
        return ThroughputModel(
            device=self.device,
            data_format=self.data_format,
            readonly_components=self._readonly_components,
            onchip_port_elements_per_cycle=onchip_port_elements_per_cycle,
        )

    # ------------------------------------------------------------------ #
    # helpers

    def tool_runtime_avoided_total_s(self) -> float:
        """Synthesis tool runtime avoided across every cached
        characterization.

        Computed over the distinct characterized shapes (the family cache),
        so a shape shared by several iteration counts is counted once.
        """
        with self._cache_lock:
            families = list(self._family_cache.items())
        merged: Dict[Tuple[int, int], ConeCharacterization] = {}
        for (depth, _windows), (per_window, _) in families:
            for window, characterization in per_window.items():
                merged[(window, depth)] = characterization
        return self._avoided_runtime(merged)

    def _space(self, total_iterations: int) -> ArchitectureSpace:
        return ArchitectureSpace(
            kernel_name=self.kernel.name,
            total_iterations=total_iterations,
            radius=self.properties.radius,
            components=self.properties.total_state_components,
            window_sides=self.window_sides,
            max_depth=self.max_depth,
            max_cones_per_depth=self.max_cones_per_depth,
        )

    def _avoided_runtime(self, characterizations: Mapping[Tuple[int, int],
                                                          ConeCharacterization]) -> float:
        """Tool runtime a full-synthesis exploration would have cost extra."""
        avoided = 0.0
        for characterization in characterizations.values():
            if not characterization.synthesized:
                # the synthesiser's runtime model, fed with the estimated area
                avoided += tool_runtime_s(characterization.estimated_area_luts)
        return avoided
