"""Pluggable backend registry: the flow's extension points.

Every component the flow used to hardwire — the synthesis backend standing in
for ISE/Vivado, the Equation-1 area estimator, the throughput model, and the
FPGA device catalog — is resolved here by *name*.  A :class:`Workload` names
its backends declaratively (``synthesizer="analytic"``,
``device="xc6vlx760"``); :func:`repro.api.pipeline.build_explorer` turns those
names into instances through this registry, so a new backend (a real Vivado
driver, an ML area model, another device family) plugs in without touching a
single ``repro`` module::

    from repro.api import register_backend, Session, Workload

    register_backend("synthesizer", "vivado", VivadoDriver)
    result = Session().run(
        Workload.from_algorithm("blur", synthesizer="vivado"))

Backends are registered under one of four *kinds*:

``synthesizer``
    Factory ``(device, library) ->`` :class:`SynthesizerBackend`.
``area``
    Factory ``(library) ->`` :class:`AreaEstimator` (the per-depth-family
    Equation-1 role).
``throughput``
    Factory ``(device, data_format, readonly_components,
    onchip_port_elements_per_cycle) ->`` :class:`ThroughputEstimator`.
``device``
    Factory ``() ->`` :class:`DeviceProvider`; the provider's devices become
    resolvable by part name through :func:`resolve_device`.

Factories are invoked with keyword arguments only, so the built-in classes
(:class:`repro.synth.Synthesizer`, :class:`repro.estimation.RegisterAreaModel`,
:class:`repro.estimation.ThroughputModel`) serve as their own factories.

Out-of-tree discovery follows the entry-point idiom without requiring
packaging metadata: the ``REPRO_BACKENDS`` environment variable names modules
(comma- or ``os.pathsep``-separated) that are imported on first registry
access; a module-level ``register_repro_backends()`` hook, when present, is
called after import.  Registering at module import time works too.
"""

from __future__ import annotations

import importlib
import os
import threading
import warnings
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
    runtime_checkable,
)

from repro.estimation.area_model import (
    AreaEstimate,
    CalibrationPoint,
    RegisterAreaModel,
)
from repro.estimation.throughput_model import (
    ArchitecturePerformance,
    ThroughputModel,
)
from repro.synth.fpga_device import DEVICE_CATALOG, FpgaDevice
from repro.synth.synthesizer import SynthesisReport, Synthesizer

#: Environment variable listing plugin modules to import before the first
#: registry lookup (comma- or os.pathsep-separated module paths).
DISCOVERY_ENV_VAR = "REPRO_BACKENDS"

#: The extension-point kinds the registry knows.
BACKEND_KINDS: Tuple[str, ...] = ("synthesizer", "area", "throughput",
                                  "device")


class BackendError(KeyError):
    """Raised for unknown backend kinds/names and duplicate registrations."""

    def __str__(self) -> str:  # KeyError repr-quotes its argument; don't
        return self.args[0] if self.args else ""


# ---------------------------------------------------------------------- #
# protocols


@runtime_checkable
class SynthesizerBackend(Protocol):
    """What the flow needs from a synthesis backend (the ISE/Vivado role).

    Besides synthesizing one cone, a backend keeps the two counters the
    session accounting folds into :class:`repro.api.SessionStats`.
    """

    #: Number of synthesis runs performed by this backend instance.
    runs: int
    #: Cumulative tool CPU time of those runs (seconds).
    total_tool_runtime_s: float

    def synthesize(self, cone: Any) -> SynthesisReport:
        """Synthesize one cone, a
        :class:`~repro.symbolic.cone_expression.ConeExpressions`.

        A backend that wants the cone's dataflow graph lowers it with
        :func:`~repro.ir.dfg.build_dfg_from_cone`.
        """
        ...


@runtime_checkable
class AreaEstimator(Protocol):
    """The Equation-1 role: area prediction for one depth family of cones."""

    def calibrate(self, points: Sequence[CalibrationPoint]) -> float:
        """Fit the model from two or more reference syntheses."""
        ...

    def estimate_series(self, register_counts: Mapping[int, int]
                        ) -> List[AreaEstimate]:
        """Estimate the area of every cone in the family."""
        ...


@runtime_checkable
class ThroughputEstimator(Protocol):
    """Frame-level performance estimation of one cone architecture."""

    def evaluate(self, architecture: Any,
                 cone_performance: Mapping[int, Any],
                 frame_width: int, frame_height: int
                 ) -> ArchitecturePerformance:
        ...


@runtime_checkable
class DeviceProvider(Protocol):
    """A source of FPGA device models, keyed by part name."""

    def devices(self) -> Mapping[str, FpgaDevice]:
        ...


class CatalogDeviceProvider:
    """A :class:`DeviceProvider` over a plain part-name -> device mapping."""

    def __init__(self, catalog: Optional[Mapping[str, FpgaDevice]] = None
                 ) -> None:
        self._catalog: Dict[str, FpgaDevice] = dict(catalog or {})

    def add(self, device: FpgaDevice) -> None:
        self._catalog[device.name] = device

    def devices(self) -> Mapping[str, FpgaDevice]:
        return dict(self._catalog)


# ---------------------------------------------------------------------- #
# the registry


_registry_lock = threading.RLock()
_backends: Dict[str, Dict[str, Callable[..., Any]]] = {
    kind: {} for kind in BACKEND_KINDS}
#: Device-provider instances, created once per registered factory.
_provider_instances: Dict[str, DeviceProvider] = {}
#: Serializes plugin discovery separately from _registry_lock: imports must
#: never run under the registry lock (Python's per-module import lock would
#: invert against it), but concurrent first lookups must still wait for the
#: plugins to finish registering.  Re-entrant, so a plugin whose import
#: calls back into the registry cannot self-deadlock.
_discovery_lock = threading.RLock()
_discovered = False


def _check_kind(kind: str) -> str:
    if kind not in BACKEND_KINDS:
        raise BackendError(
            f"unknown backend kind {kind!r}; kinds are "
            f"{', '.join(BACKEND_KINDS)}")
    return kind


def register_backend(kind: str, name: str, factory: Callable[..., Any],
                     replace: bool = False) -> None:
    """Register ``factory`` under ``(kind, name)``.

    ``name`` is matched case-insensitively by :func:`get_backend`.
    Re-registering an existing name raises unless ``replace`` is given (so a
    plugin cannot silently shadow a built-in).

    ``replace=True`` takes effect the next time an explorer is *built*: the
    persistent store invalidates by implementation signature automatically
    (:func:`backend_signature`), but a live :class:`~repro.api.Session`
    memoizes explorers/results per workload and keeps serving what the
    previous implementation computed — call :meth:`Session.evict` (or use a
    fresh session) after swapping an implementation mid-process.
    """
    _check_kind(kind)
    key = name.lower()
    with _registry_lock:
        if not replace and key in _backends[kind]:
            raise BackendError(
                f"{kind} backend {name!r} is already registered; pass "
                f"replace=True to override it")
        _backends[kind][key] = factory
        if kind == "device":
            _provider_instances.pop(key, None)


def unregister_backend(kind: str, name: str) -> None:
    """Remove a backend registration (no-op if absent); for tests/plugins."""
    _check_kind(kind)
    with _registry_lock:
        _backends[kind].pop(name.lower(), None)
        if kind == "device":
            _provider_instances.pop(name.lower(), None)


def get_backend(kind: str, name: str) -> Callable[..., Any]:
    """The factory registered under ``(kind, name)``.

    Runs :func:`discover_backends` first, so ``REPRO_BACKENDS`` plugins are
    visible to every lookup path.
    """
    _check_kind(kind)
    discover_backends()
    with _registry_lock:
        factory = _backends[kind].get(name.lower())
    if factory is None:
        raise BackendError(
            f"unknown {kind} backend {name!r}; registered: "
            f"{', '.join(sorted(_backends[kind])) or '(none)'}")
    return factory


def create_backend(kind: str, name: str, **kwargs: Any) -> Any:
    """Instantiate the backend ``(kind, name)`` with keyword context."""
    return get_backend(kind, name)(**kwargs)


def backend_signature(kind: str, name: str) -> str:
    """Name plus implementation identity of a registered backend.

    Persistent-store keys embed this, so swapping the implementation behind
    a name (``replace=True``, or a plugin upgrade moving the factory) makes
    old artifacts miss and recompute instead of serving stale results.
    """
    factory = get_backend(kind, name)
    module = getattr(factory, "__module__", type(factory).__module__)
    qualname = getattr(factory, "__qualname__", type(factory).__qualname__)
    return f"{name.lower()}@{module}.{qualname}"


def list_backends(kind: Optional[str] = None) -> Dict[str, List[str]]:
    """Registered backend names, per kind (or only the requested kind)."""
    discover_backends()
    with _registry_lock:
        kinds = (_check_kind(kind),) if kind is not None else BACKEND_KINDS
        return {k: sorted(_backends[k]) for k in kinds}


# ---------------------------------------------------------------------- #
# devices


def register_device(device: FpgaDevice) -> None:
    """Register one device model so workloads/CLI can name it.

    Devices added this way live in the ``custom`` :class:`DeviceProvider`
    and take precedence over same-named built-ins (see :func:`list_devices`);
    whole families are better served by registering a dedicated provider via
    ``register_backend("device", ...)``.
    """
    _custom_devices.add(device)


def _providers() -> List[DeviceProvider]:
    discover_backends()
    with _registry_lock:
        # registration order, not sorted: precedence is defined by it
        names = list(_backends["device"])
        providers = []
        for name in names:
            provider = _provider_instances.get(name)
            if provider is None:
                provider = _backends["device"][name]()
                _provider_instances[name] = provider
            providers.append(provider)
        return providers


def list_devices() -> Dict[str, FpgaDevice]:
    """Every resolvable device, merged across registered providers.

    Providers are merged in registration order with the *latest* winning a
    part-name collision, so :func:`register_device` (the ``custom`` provider
    registered after ``builtin``) and plugin providers can deliberately
    override a built-in device model.
    """
    merged: Dict[str, FpgaDevice] = {}
    for provider in _providers():
        for name, device in provider.devices().items():
            merged[name.upper()] = device
    return merged


def resolve_device(device: Union[str, FpgaDevice]) -> FpgaDevice:
    """Resolve a part name (case-insensitive) through the device providers.

    An :class:`FpgaDevice` instance passes through unchanged, so call sites
    accept both forms.
    """
    if isinstance(device, FpgaDevice):
        return device
    catalog = list_devices()
    resolved = catalog.get(device.upper())
    if resolved is None:
        raise BackendError(
            f"unknown device {device!r}; registered: "
            f"{', '.join(sorted(catalog))}")
    return resolved


# ---------------------------------------------------------------------- #
# discovery


def discover_backends(force: bool = False) -> List[str]:
    """Import the plugin modules named by ``REPRO_BACKENDS`` (once).

    Returns the module names imported by this call.  A module that fails to
    import (or whose ``register_repro_backends()`` hook raises) is skipped
    with a warning rather than breaking every registry lookup.
    """
    global _discovered
    # Everything happens under the discovery lock (never the registry
    # lock): a concurrent first lookup blocks here until the plugins have
    # registered, while register_backend() calls from plugin import/hook
    # code take _registry_lock without us holding it — so there is no
    # ordering against Python's per-module import lock to invert.
    # _discovered flips before the imports so a plugin calling back into
    # the registry re-enters and returns instead of recursing.
    with _discovery_lock:
        if _discovered and not force:
            return []
        _discovered = True
        spec = os.environ.get(DISCOVERY_ENV_VAR, "")
        imported: List[str] = []
        for chunk in spec.replace(os.pathsep, ",").split(","):
            module_name = chunk.strip()
            if not module_name:
                continue
            try:
                module = importlib.import_module(module_name)
                hook = getattr(module, "register_repro_backends", None)
                if callable(hook):
                    hook()
                imported.append(module_name)
            except Exception as error:  # a broken plugin must not brick
                warnings.warn(
                    f"{DISCOVERY_ENV_VAR} module {module_name!r} failed to "
                    f"load: {error}", RuntimeWarning, stacklevel=2)
    return imported


def reset_discovery() -> None:
    """Forget that discovery ran (so the next lookup re-reads the env var)."""
    global _discovered
    with _discovery_lock:
        _discovered = False


# ---------------------------------------------------------------------- #
# built-ins

#: Mutable catalog behind :func:`register_device`.
_custom_devices = CatalogDeviceProvider()

register_backend("synthesizer", "analytic", Synthesizer)
register_backend("area", "register-model", RegisterAreaModel)
register_backend("throughput", "analytic", ThroughputModel)
register_backend("device", "builtin",
                 lambda: CatalogDeviceProvider(DEVICE_CATALOG))
register_backend("device", "custom", lambda: _custom_devices)
