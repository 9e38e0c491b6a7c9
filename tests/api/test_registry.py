"""Tests for the pluggable backend registry (ISSUE 2 tentpole).

The acceptance-critical property: a backend registered through
``register_backend`` is exercised end-to-end by ``Session.run`` without
modifying any ``repro`` module.
"""

import textwrap

import pytest

from repro.api import (
    AreaEstimator,
    BackendError,
    CatalogDeviceProvider,
    DeviceProvider,
    Session,
    SynthesizerBackend,
    ThroughputEstimator,
    Workload,
    create_backend,
    get_backend,
    list_backends,
    list_devices,
    register_backend,
    register_device,
    resolve_device,
    unregister_backend,
)
from repro.api import registry as registry_module
from repro.estimation import RegisterAreaModel, ThroughputModel
from repro.synth import FpgaDevice, Synthesizer
from repro.synth.fpga_device import SPARTAN6_XC6SLX45, VIRTEX6_XC6VLX760

SMALL = dict(iterations=4, window_sides=(1, 2, 3), max_depth=2,
             max_cones_per_depth=3)


@pytest.fixture()
def scratch_backend():
    """Yield a registration helper that cleans up after the test."""
    registered = []

    def add(kind, name, factory, **kwargs):
        register_backend(kind, name, factory, **kwargs)
        registered.append((kind, name))

    yield add
    for kind, name in registered:
        unregister_backend(kind, name)


class TestRegistryBasics:
    def test_builtins_are_registered(self):
        backends = list_backends()
        assert "analytic" in backends["synthesizer"]
        assert "register-model" in backends["area"]
        assert "analytic" in backends["throughput"]
        assert "builtin" in backends["device"]

    def test_builtin_factories_are_the_concrete_classes(self):
        assert get_backend("synthesizer", "analytic") is Synthesizer
        assert get_backend("area", "register-model") is RegisterAreaModel
        assert get_backend("throughput", "analytic") is ThroughputModel

    def test_builtins_satisfy_the_protocols(self):
        synthesizer = create_backend("synthesizer", "analytic",
                                     device=VIRTEX6_XC6VLX760)
        assert isinstance(synthesizer, SynthesizerBackend)
        assert isinstance(create_backend("area", "register-model"),
                          AreaEstimator)
        assert isinstance(
            create_backend("throughput", "analytic",
                           device=VIRTEX6_XC6VLX760, readonly_components=0),
            ThroughputEstimator)
        assert isinstance(create_backend("device", "builtin"), DeviceProvider)

    def test_unknown_kind_and_name_raise(self):
        with pytest.raises(BackendError, match="unknown backend kind"):
            get_backend("compiler", "gcc")
        with pytest.raises(BackendError, match="unknown synthesizer backend"):
            get_backend("synthesizer", "vivado-2099")

    def test_lookup_is_case_insensitive(self, scratch_backend):
        scratch_backend("synthesizer", "MyTool", Synthesizer)
        assert get_backend("synthesizer", "mytool") is Synthesizer
        assert get_backend("synthesizer", "MYTOOL") is Synthesizer

    def test_duplicate_registration_requires_replace(self, scratch_backend):
        scratch_backend("synthesizer", "dup", Synthesizer)
        with pytest.raises(BackendError, match="already registered"):
            register_backend("synthesizer", "dup", Synthesizer)
        register_backend("synthesizer", "dup", Synthesizer, replace=True)

    def test_backend_error_message_is_unquoted(self):
        try:
            get_backend("synthesizer", "nope")
        except BackendError as error:
            assert str(error).startswith("unknown synthesizer backend")


class TestCustomBackendEndToEnd:
    def test_custom_synthesizer_runs_through_session(self, scratch_backend):
        """ISSUE 2 acceptance: a backend registered via register_backend is
        exercised end-to-end through Session.run, no repro module edited."""

        instances = []

        class RecordingSynthesizer(Synthesizer):
            def __init__(self, device, library):
                super().__init__(device, library)
                instances.append(self)

        scratch_backend("synthesizer", "recording", RecordingSynthesizer)
        workload = Workload.from_algorithm("blur", synthesizer="recording",
                                           **SMALL)
        result = Session().run(workload)
        assert result.pareto
        assert instances, "the registered factory was never invoked"
        assert sum(s.runs for s in instances) > 0
        # the explored characterizations really came from the custom backend
        assert any(c.synthesized
                   for c in result.exploration.characterizations.values())

    def test_a_synthesizer_backend_receives_the_cone(self, scratch_backend):
        """The migration path: a backend that wants a dataflow graph lowers
        the cone it is given."""
        from repro.ir.dfg import build_dfg_from_cone
        from repro.symbolic.cone_expression import ConeExpressions

        lowered = []

        class LoweringSynthesizer(Synthesizer):
            def synthesize(self, cone):
                assert isinstance(cone, ConeExpressions)
                lowered.append(build_dfg_from_cone(cone).name)
                return super().synthesize(cone)

        scratch_backend("synthesizer", "lowering", LoweringSynthesizer)
        workload = Workload.from_algorithm("blur", **SMALL)
        result = Session().run(workload.replace(synthesizer="lowering"))
        synthesized = sorted(
            key for key, c in result.exploration.characterizations.items()
            if c.synthesized)
        assert sorted(lowered) == sorted(f"blur_w{w}_d{d}"
                                         for w, d in synthesized)
        assert result.to_dict()["exploration"] \
            == Session().run(workload).to_dict()["exploration"]

    def test_custom_area_estimator_changes_estimates(self, scratch_backend):
        class InflatedAreaModel(RegisterAreaModel):
            def estimate_series(self, register_counts):
                import dataclasses
                return [dataclasses.replace(
                            estimate,
                            estimated_area_luts=estimate.estimated_area_luts
                            * 2.0)
                        for estimate in super().estimate_series(
                            register_counts)]

        scratch_backend("area", "inflated", InflatedAreaModel)
        baseline = Session().run(Workload.from_algorithm("blur", **SMALL))
        inflated = Session().run(Workload.from_algorithm(
            "blur", area_estimator="inflated", **SMALL))
        estimated = [(w, d) for (w, d), c
                     in baseline.exploration.characterizations.items()
                     if not c.synthesized]
        assert estimated
        for key in estimated:
            assert (inflated.exploration.characterizations[key].area_luts
                    > baseline.exploration.characterizations[key].area_luts)

    def test_backend_names_split_the_characterization_cache(
            self, scratch_backend):
        scratch_backend("synthesizer", "alt", Synthesizer)
        base = Workload.from_algorithm("blur", **SMALL)
        alt = base.replace(synthesizer="alt")
        assert base.characterization_key() != alt.characterization_key()

    def test_backend_names_survive_serialization(self):
        workload = Workload.from_algorithm("blur", **SMALL)
        payload = workload.to_dict()
        assert payload["synthesizer"] == "analytic"
        restored = Workload.from_dict(payload)
        assert restored.synthesizer == "analytic"
        assert restored == workload


class TestDeviceRegistry:
    def test_builtin_catalog_is_resolvable(self):
        devices = list_devices()
        # the four constants of synth/fpga_device are all registered
        for name in ("XC6VLX760", "XC6VLX240T", "XC2VP30", "XC6SLX45"):
            assert name in devices
        assert resolve_device("xc6vlx760") is VIRTEX6_XC6VLX760

    def test_instances_pass_through(self):
        assert resolve_device(SPARTAN6_XC6SLX45) is SPARTAN6_XC6SLX45

    def test_unknown_device_lists_available(self):
        with pytest.raises(BackendError, match="unknown device"):
            resolve_device("XC999")

    def test_workload_accepts_registered_device_names(self):
        workload = Workload.from_algorithm("blur", device="xc2vp30", **SMALL)
        assert isinstance(workload.device, FpgaDevice)
        assert workload.device.name == "XC2VP30"

    def test_register_device_makes_name_resolvable(self, scratch_backend):
        board = FpgaDevice(
            name="TEST9000", family="Test", slice_luts=1000, slice_ffs=2000,
            dsp_slices=4, bram_kbits=100, typical_clock_hz=1e8,
            offchip_bandwidth_bytes_per_s=1e9)
        register_device(board)
        try:
            assert resolve_device("test9000") is board
            workload = Workload.from_algorithm("blur", device="TEST9000",
                                               **SMALL)
            assert workload.device is board
        finally:
            # keep the shared custom catalog clean for other tests
            registry_module._custom_devices._catalog.pop("TEST9000", None)

    def test_register_device_overrides_builtin_model(self):
        """A later-registered device deliberately shadows a built-in part
        name (e.g. a corrected capacity model) instead of being silently
        ignored."""
        import dataclasses
        corrected = dataclasses.replace(VIRTEX6_XC6VLX760,
                                        slice_luts=475_239)
        register_device(corrected)
        try:
            assert resolve_device("XC6VLX760") is corrected
        finally:
            registry_module._custom_devices._catalog.pop("XC6VLX760", None)
        assert resolve_device("XC6VLX760") is VIRTEX6_XC6VLX760

    def test_custom_provider_via_register_backend(self, scratch_backend):
        board = FpgaDevice(
            name="FAMX1", family="FamX", slice_luts=5000, slice_ffs=10000,
            dsp_slices=8, bram_kbits=200, typical_clock_hz=2e8,
            offchip_bandwidth_bytes_per_s=2e9)
        scratch_backend("device", "famx",
                        lambda: CatalogDeviceProvider({board.name: board}))
        assert resolve_device("famx1") is board


class TestEnvDiscovery:
    def test_repro_backends_modules_are_imported(self, tmp_path, monkeypatch):
        plugin = tmp_path / "repro_test_plugin.py"
        plugin.write_text(textwrap.dedent("""\
            from repro.api import register_backend, unregister_backend
            from repro.synth import Synthesizer

            LOADED = []

            def register_repro_backends():
                unregister_backend("synthesizer", "env-plugin")
                register_backend("synthesizer", "env-plugin", Synthesizer)
                LOADED.append(True)
            """))
        monkeypatch.syspath_prepend(str(tmp_path))
        monkeypatch.setenv(registry_module.DISCOVERY_ENV_VAR,
                           "repro_test_plugin")
        registry_module.reset_discovery()
        try:
            assert get_backend("synthesizer", "env-plugin") is Synthesizer
        finally:
            unregister_backend("synthesizer", "env-plugin")
            registry_module.reset_discovery()

    def test_broken_plugin_warns_instead_of_crashing(self, monkeypatch):
        monkeypatch.setenv(registry_module.DISCOVERY_ENV_VAR,
                           "definitely_not_a_module_xyz")
        registry_module.reset_discovery()
        try:
            with pytest.warns(RuntimeWarning, match="failed to load"):
                imported = registry_module.discover_backends(force=True)
            assert imported == []
            # the registry keeps working
            assert get_backend("synthesizer", "analytic") is Synthesizer
        finally:
            registry_module.reset_discovery()
