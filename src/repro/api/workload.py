"""Declarative workload specifications.

A :class:`Workload` is the unit of work of the composable API: *what* to
compile (a registry algorithm, a C source, or an in-memory kernel), *where*
to run it (device, data format), and *how* to explore it (frame geometry,
iteration count, design-space knobs, constraints).  It is immutable and
hashable, so sessions can key caches on it, and every field is declarative —
building a workload never runs any stage of the flow beyond resolving the
kernel IR.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.api.results import FlowOptions
from repro.dse.constraints import DseConstraints
from repro.frontend.extractor import extract_kernel_from_c
from repro.frontend.kernel_ir import StencilKernel
from repro.ir.operators import DataFormat
from repro.synth.fpga_device import FpgaDevice, resolve_device

#: Single source of the flow's default knobs — Workload's field defaults
#: (and the CLI's argparse defaults) mirror FlowOptions' by construction,
#: so the surfaces cannot drift.
DEFAULT_OPTIONS = FlowOptions()
_DEFAULTS = DEFAULT_OPTIONS

#: The knobs shared 1:1 between FlowOptions and Workload.  options(),
#: characterization_key(), and (via the FlowOptions codec)
#: to_dict()/from_dict() are all derived from this list, so a new
#: FlowOptions field (same name on Workload, codec added in
#: FlowOptions.to_dict/from_dict) flows through every surface.
_OPTION_FIELDS = tuple(f.name for f in fields(FlowOptions))

#: Option fields that do NOT shape the cone-characterization space (they
#: only parameterize the per-exploration estimates); every other shared
#: knob participates in the characterization cache key, so a newly added
#: knob conservatively splits the cache until listed here.
_NON_SHAPE_FIELDS = frozenset({"frame_width", "frame_height", "iterations",
                               "constraints",
                               "onchip_port_elements_per_cycle",
                               "stream", "chunk_rows"})


@dataclass(frozen=True)
class Workload:
    """A fully declarative, hashable description of one flow invocation.

    Exactly one of ``algorithm`` (registry name), ``c_source``, or ``kernel``
    must be given.  ``kernel_fingerprint`` is derived automatically and is
    what equality, hashing, and the session characterization cache use, so
    two workloads built from structurally identical kernels compare equal.
    """

    algorithm: Optional[str] = None
    c_source: Optional[str] = None
    c_function_name: Optional[str] = None
    kernel: Optional[StencilKernel] = field(default=None, compare=False)
    #: Accepts a full device model or a part name of
    #: :data:`~repro.synth.fpga_device.DEVICE_CATALOG`
    #: (``device="xc6vlx760"``); names are resolved to the FpgaDevice at
    #: construction so keys/serialization see the full model.
    device: Union[FpgaDevice, str] = _DEFAULTS.device
    data_format: DataFormat = _DEFAULTS.data_format
    frame_width: int = _DEFAULTS.frame_width
    frame_height: int = _DEFAULTS.frame_height
    iterations: Optional[int] = None
    window_sides: Sequence[int] = tuple(_DEFAULTS.window_sides)
    max_depth: int = _DEFAULTS.max_depth
    max_cones_per_depth: int = _DEFAULTS.max_cones_per_depth
    calibration_windows_per_depth: int = _DEFAULTS.calibration_windows_per_depth
    synthesize_all: bool = _DEFAULTS.synthesize_all
    onchip_port_elements_per_cycle: int = _DEFAULTS.onchip_port_elements_per_cycle
    params: Optional[Tuple[Tuple[str, float], ...]] = None
    constraints: Optional[DseConstraints] = _DEFAULTS.constraints
    #: Out-of-core evaluation knobs (None = auto / engine default); they
    #: parameterize only the per-exploration evaluation, never the cone
    #: characterizations (listed in _NON_SHAPE_FIELDS).
    stream: Optional[bool] = _DEFAULTS.stream
    chunk_rows: Optional[int] = _DEFAULTS.chunk_rows
    kernel_fingerprint: str = field(default="", init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "device", resolve_device(self.device))
        sources = [s is not None
                   for s in (self.algorithm, self.c_source, self.kernel)]
        if sum(sources) != 1:
            raise ValueError(
                "a Workload needs exactly one of: algorithm (registry name), "
                "c_source, or kernel")
        # knobs are rejected here, not mid-run: a service submit builds the
        # Workload, so a bad knob is a 400, not a failed job
        if self.chunk_rows is not None:  # None: engine default
            _require_int("chunk_rows", self.chunk_rows)
        for knob in ("frame_width", "frame_height", "max_depth",
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
        # Always normalize: an already-tuple params value may still be
        # unsorted or hold non-float values, which would break eq/hash and
        # the characterization-cache key.
        object.__setattr__(self, "params", _normalize_params(self.params))
        resolved = self._resolve_kernel()
        object.__setattr__(self, "_resolved_kernel", resolved)
        if self.iterations is None:
            object.__setattr__(self, "iterations", self._default_iterations())
        _require_int("iterations", self.iterations)
        digest = hashlib.sha256(
            (resolved.fingerprint()
             + repr(self.params or ())).encode("utf-8")).hexdigest()[:16]
        object.__setattr__(self, "kernel_fingerprint", digest)

    # ------------------------------------------------------------------ #
    # construction helpers

    @classmethod
    def from_algorithm(cls, name: str, **overrides: Any) -> "Workload":
        """Build a workload from a registry algorithm name."""
        return cls(algorithm=name, **overrides)

    @classmethod
    def from_c(cls, source: str, function_name: Optional[str] = None,
               params: Optional[Mapping[str, float]] = None,
               **overrides: Any) -> "Workload":
        """Build a workload from a C source string."""
        return cls(c_source=source, c_function_name=function_name,
                   params=params, **overrides)

    @classmethod
    def from_kernel(cls, kernel: StencilKernel, **overrides: Any) -> "Workload":
        """Build a workload from an in-memory kernel IR."""
        return cls(kernel=kernel, **overrides)

    def replace(self, **changes: Any) -> "Workload":
        """Return a copy with the given fields changed (fingerprint is
        recomputed).

        Supplying a new kernel source (``algorithm``/``c_source``/``kernel``)
        replaces the previous one (the other source fields are cleared), and
        — unless ``iterations`` is passed too — resets the iteration count
        to the new source's default rather than carrying over the old
        resolved value.
        """
        sources = {"algorithm", "c_source", "kernel"}
        supplied = {name for name in sources & changes.keys()
                    if changes[name] is not None}
        if supplied:
            for other in sources - changes.keys():
                changes[other] = None
            # kernel-scoped companions must not leak onto the new source:
            # stale params would silently override the new kernel's
            # same-named defaults (and split the characterization cache)
            for companion in ("iterations", "params", "c_function_name"):
                if companion not in changes:
                    changes[companion] = None
        return replace(self, **changes)

    # ------------------------------------------------------------------ #
    # resolution

    def _resolve_kernel(self) -> StencilKernel:
        if self.kernel is not None:
            return self.kernel
        if self.algorithm is not None:
            from repro.algorithms import get_algorithm
            return get_algorithm(self.algorithm).kernel()
        return _extract_cached(self.c_source, self.c_function_name,
                               self.params)

    def _default_iterations(self) -> int:
        if self.algorithm is not None:
            from repro.algorithms import get_algorithm
            return get_algorithm(self.algorithm).default_iterations
        return 10

    def resolve_kernel(self) -> StencilKernel:
        """The kernel IR this workload compiles (resolved once, at build)."""
        return getattr(self, "_resolved_kernel")

    @property
    def name(self) -> str:
        """Kernel name — the human identifier of the workload."""
        return self.resolve_kernel().name

    def params_dict(self) -> Optional[Dict[str, float]]:
        return dict(self.params) if self.params else None

    def options(self) -> FlowOptions:
        """Project the exploration knobs onto a :class:`FlowOptions` (a
        result's ``options`` and the knobs' wire codec)."""
        return FlowOptions(**{name: getattr(self, name)
                              for name in _OPTION_FIELDS})

    def characterization_key(self) -> Tuple:
        """Cache key of the cone characterization this workload needs.

        Two workloads with the same key share cone shapes — and therefore
        synthesis/calibration work — regardless of frame geometry, iteration
        count, or constraints.
        """
        # The full (frozen, hashable) field values participate — notably the
        # complete device model, so two same-named device variants (a
        # what-if board sweep) never alias one explorer.
        return tuple([self.kernel_fingerprint]
                     + [getattr(self, name) for name in _OPTION_FIELDS
                        if name not in _NON_SHAPE_FIELDS])

    # ------------------------------------------------------------------ #
    # serialization

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (inline kernels are serialized in full).

        The shared exploration knobs are encoded by the one
        :meth:`FlowOptions.to_dict` codec; only the kernel-source fields are
        added here.
        """
        data = self.options().to_dict()
        data.update({
            "algorithm": self.algorithm,
            "c_source": self.c_source,
            "c_function_name": self.c_function_name,
            "kernel": None if self.kernel is None else self.kernel.to_dict(),
            "params": None if self.params is None else dict(self.params),
        })
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Workload":
        if not isinstance(data, Mapping):
            raise TypeError(f"workload must be a JSON object (got {data!r})")
        options = FlowOptions.from_dict(data)
        kernel = data.get("kernel")
        return cls(
            algorithm=data.get("algorithm"),
            c_source=data.get("c_source"),
            c_function_name=data.get("c_function_name"),
            kernel=None if kernel is None else StencilKernel.from_dict(kernel),
            params=_normalize_params(data.get("params")),
            **{name: getattr(options, name) for name in _OPTION_FIELDS},
        )


def _require_int(name: str, value: Any, minimum: int = 1) -> None:
    """Raise ``ValueError`` unless ``value`` is an ``int`` >= ``minimum``
    (a ``bool`` is not)."""
    if (isinstance(value, bool) or not isinstance(value, int)
            or value < minimum):
        expected = ("a positive integer" if minimum == 1
                    else f"an integer >= {minimum}")
        raise ValueError(f"{name} must be {expected} (got {value!r})")


@lru_cache(maxsize=64)
def _extract_cached(c_source: str, function_name: Optional[str],
                    params: Optional[Tuple[Tuple[str, float], ...]]
                    ) -> StencilKernel:
    """Memoized C-frontend extraction: replace()/from_dict of a C workload
    must not re-parse an unchanged source.  The shared kernel is treated as
    read-only, like every other resolved kernel."""
    return extract_kernel_from_c(c_source, function_name=function_name,
                                 scalar_params=dict(params) if params else None)


def _normalize_params(
        params: Optional[Union[Mapping[str, float],
                               Sequence[Tuple[str, float]]]]
        ) -> Optional[Tuple[Tuple[str, float], ...]]:
    """Normalize a parameter mapping to a sorted, hashable tuple of pairs."""
    if params is None:
        return None
    items = params.items() if isinstance(params, Mapping) else params
    return tuple(sorted((str(k), float(v)) for k, v in items))
