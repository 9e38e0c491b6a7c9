"""Tests for the persistent artifact store (ISSUE 2 tentpole).

The acceptance-critical property: a second session (or CLI invocation)
pointed at the same store directory completes the same workload batch with
zero synthesizer invocations, observable via the ``SessionStats`` disk-hit
counters.  The robustness satellites live here too: corrupted/truncated
artifacts, schema-version mismatches, and concurrent writers must all fall
back to recomputation, never crash.
"""

import json
import os
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import ArtifactStore, Session, Workload
from repro.api import store as store_module
from repro.api.cli import main as cli_main

SMALL = dict(iterations=4, window_sides=(1, 2, 3), max_depth=2,
             max_cones_per_depth=3)


def blur(**overrides):
    keywords = dict(SMALL)
    keywords.update(overrides)
    return Workload.from_algorithm("blur", **keywords)


@pytest.fixture()
def store_dir(tmp_path):
    return str(tmp_path / "store")


class TestWarmResume:
    def test_second_session_runs_zero_synthesis(self, store_dir):
        """ISSUE 2 acceptance: same store dir, same batch, zero synthesis."""
        workloads = [blur(),
                     blur(frame_width=640, frame_height=480),
                     Workload.from_algorithm("jacobi", **SMALL)]
        cold = Session(store=store_dir)
        cold_results = cold.run_many(workloads)
        assert cold.stats.synthesis_runs > 0
        assert cold.stats.store_writes > 0

        warm = Session(store=store_dir)
        warm_results = warm.run_many(workloads)
        stats = warm.stats
        assert stats.synthesis_runs == 0
        assert stats.store_disk_hits == len(workloads)
        assert stats.store_disk_misses == 0
        assert stats.workloads_run == len(workloads)
        for cold_result, warm_result in zip(cold_results, warm_results):
            assert warm_result.pareto == cold_result.pareto

    def test_characterizations_resume_without_results(self, store_dir):
        """Dropping only the result artifacts still avoids all synthesis:
        the characterization families carry the expensive state."""
        workload = blur()
        Session(store=store_dir).run(workload)
        removed = ArtifactStore(store_dir).clear("result")
        assert removed == 1

        warm = Session(store=store_dir)
        result = warm.run(workload)
        assert result.pareto
        assert warm.stats.synthesis_runs == 0
        assert warm.stats.store_disk_hits > 0

    def test_warm_result_equals_cold_result(self, store_dir):
        workload = blur()
        cold = Session(store=store_dir).run(workload)
        warm = Session(store=store_dir).run(workload)
        assert warm.pareto == cold.pareto
        assert warm.exploration == cold.exploration

    def test_storeless_session_touches_no_disk_counters(self):
        session = Session()
        session.run(blur())
        stats = session.stats
        assert stats.store_disk_hits == 0
        assert stats.store_disk_misses == 0
        assert stats.store_writes == 0
        assert session.store is None

    def test_warm_hit_emits_cache_event(self, store_dir):
        workload = blur()
        Session(store=store_dir).run(workload)
        events = []
        session = Session(on_event=events.append, store=store_dir)
        session.run(workload)
        hits = [event for event in events if event.kind == "cache-hit"]
        assert hits and "persistent store" in hits[0].detail

    def test_memory_cache_stays_in_front_of_the_disk(self, store_dir):
        """A repeat run() in one session is an in-memory pipeline hit: no
        second disk read, no store_disk_hits inflation, no re-write."""
        session = Session(store=store_dir)
        workload = blur()
        first = session.run(workload)
        hits = session.stats.store_disk_hits
        writes = session.stats.store_writes
        second = session.run(workload)
        assert second.pareto == first.pareto
        assert session.stats.store_disk_hits == hits
        assert session.stats.store_writes == writes
        assert session.stats.characterization_cache_hits == 1

    def test_restored_result_is_promoted_to_memory(self, store_dir):
        """Repeat runs of a disk-restored workload hit memory, not disk."""
        workload = blur()
        Session(store=store_dir).run(workload)
        warm = Session(store=store_dir)
        first = warm.run(workload)
        second = warm.run(workload)
        third = warm.run(workload)
        assert warm.stats.store_disk_hits == 1
        assert first.pareto == second.pareto == third.pareto
        # each caller got an isolated wrapper over the shared entries
        second.design_points.clear()
        assert warm.run(workload).design_points

    def test_replacing_a_backend_invalidates_stored_artifacts(
            self, store_dir):
        """Swapping the implementation behind a backend name must recompute,
        not serve the old implementation's artifacts."""
        from repro.api import register_backend
        from repro.estimation import RegisterAreaModel

        workload = blur()
        Session(store=store_dir).run(workload)

        class SameNameModel(RegisterAreaModel):
            pass

        register_backend("area", "register-model", SameNameModel,
                         replace=True)
        try:
            swapped = Session(store=store_dir)
            swapped.run(workload)
            assert swapped.stats.synthesis_runs > 0
            assert swapped.stats.store_disk_hits == 0
        finally:
            register_backend("area", "register-model", RegisterAreaModel,
                             replace=True)
        # the original implementation still finds its own artifacts
        warm = Session(store=store_dir)
        warm.run(workload)
        assert warm.stats.synthesis_runs == 0

    def test_memory_served_result_not_filed_under_new_backend(
            self, store_dir):
        """A backend hot-swapped mid-session must not get the OLD
        implementation's memory-cached result written under ITS key."""
        from repro.api import register_backend
        from repro.estimation import RegisterAreaModel

        workload = blur()
        session = Session(store=store_dir)
        session.run(workload)

        class SwappedIn(RegisterAreaModel):
            pass

        register_backend("area", "register-model", SwappedIn, replace=True)
        try:
            session.run(workload)  # memory hit computed by the OLD backend
            # a fresh process with the new backend must MISS and recompute,
            # not be served the old implementation's numbers
            fresh = Session(store=store_dir)
            fresh.run(workload)
            assert fresh.stats.synthesis_runs > 0
        finally:
            register_backend("area", "register-model", RegisterAreaModel,
                             replace=True)

    def test_result_key_tracks_kernel_content(self, store_dir):
        """The result artifact is keyed by kernel fingerprint, not just the
        algorithm's registry name, so editing an algorithm definition can
        never serve a stale stored result."""
        workload = blur()
        key = Session._result_store_key(workload)
        assert workload.kernel_fingerprint in key
        # equal workloads from different construction paths share the key
        assert key == Session._result_store_key(blur())

    def test_generate_vhdl_reuses_stored_characterizations(self, store_dir):
        workload = blur()
        Session(store=store_dir).run(workload)
        warm = Session(store=store_dir)
        files = warm.generate_vhdl(workload)
        assert files
        assert warm.stats.synthesis_runs == 0

    def test_result_persisted_after_codegen_first_session(self, store_dir):
        """pareto first running as a codegen prerequisite must not leave the
        result artifact unwritten when run() later serves it from memory."""
        workload = blur()
        session = Session(store=store_dir)
        session.generate_vhdl(workload)
        session.run(workload)
        assert ArtifactStore(store_dir).describe()[
            "kinds"]["result"]["artifacts"] == 1
        fresh = Session(store=store_dir)
        fresh.run(workload)
        assert fresh.stats.store_disk_hits == 1
        assert fresh.stats.synthesis_runs == 0

    def test_unserializable_payload_degrades_to_noop(self, store_dir):
        """A payload json cannot encode (third-party backend leaking exotic
        scalars) must lose only the cache write, not the workload."""
        store = ArtifactStore(store_dir)
        assert store.put("result", "weird", {"x": object()}) is None
        assert store.writes == 0
        assert store.get("result", "weird") is None
        leftovers = [name for _root, _dirs, names in os.walk(store_dir)
                     for name in names if name.endswith(".tmp")]
        assert leftovers == []

    def test_stored_file_is_the_json_encoding_of_its_envelope(
            self, store_dir):
        store = ArtifactStore(store_dir)
        payload = {"pareto": [{"luts": 120, "fps": 61.5}], "name": "blur"}
        path = store.put("result", "exact", payload)
        envelope = {"schema": store_module.SCHEMA_VERSION, "kind": "result",
                    "key": "exact", "payload": payload}
        with open(path, "rb") as handle:
            assert handle.read() == json.dumps(envelope).encode()


class TestRobustness:
    def test_corrupted_artifacts_fall_back_to_recompute(self, store_dir):
        workload = blur()
        Session(store=store_dir).run(workload)
        store = ArtifactStore(store_dir)
        paths = store.artifact_paths()
        assert paths
        for path in paths:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("{not json at all")

        session = Session(store=store_dir)
        result = session.run(workload)
        assert result.pareto
        assert session.stats.synthesis_runs > 0
        assert session.stats.store_disk_hits == 0
        # the poisoned files were replaced by fresh artifacts
        second = Session(store=store_dir)
        second.run(workload)
        assert second.stats.synthesis_runs == 0

    def test_truncated_artifacts_fall_back_to_recompute(self, store_dir):
        workload = blur()
        Session(store=store_dir).run(workload)
        for path in ArtifactStore(store_dir).artifact_paths():
            with open(path, "r+", encoding="utf-8") as handle:
                handle.truncate(os.path.getsize(path) // 2)
        session = Session(store=store_dir)
        assert session.run(workload).pareto
        assert session.stats.synthesis_runs > 0

    def test_schema_version_mismatch_recomputes(self, store_dir, monkeypatch):
        workload = blur()
        Session(store=store_dir).run(workload)
        # rewrite every artifact as a future schema version
        store = ArtifactStore(store_dir)
        for path in store.artifact_paths():
            with open(path, "r", encoding="utf-8") as handle:
                envelope = json.load(handle)
            envelope["schema"] = store_module.SCHEMA_VERSION + 1
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(envelope, handle)

        session = Session(store=store_dir)
        result = session.run(workload)
        assert result.pareto
        assert session.stats.synthesis_runs > 0
        assert session.stats.store_disk_hits == 0

    def test_key_collision_is_detected(self, store_dir):
        store = ArtifactStore(store_dir)
        store.put("result", "key-a", {"value": 1})
        # simulate a (absurdly unlikely) digest collision by renaming the
        # artifact onto another key's address
        victim = store.path_for("result", "key-b")
        os.replace(store.path_for("result", "key-a"), victim)
        assert store.get("result", "key-b") is None
        assert store.corrupt == 1

    def test_unknown_backend_fails_with_full_accounting(self, store_dir):
        """An unregistered backend name on a store-backed session is
        counted and announced exactly like any other workload failure."""
        from repro.api import BackendError

        events = []
        session = Session(on_event=events.append, store=store_dir)
        bad = blur(synthesizer="not-a-backend")
        with pytest.raises(BackendError, match="unknown synthesizer"):
            session.run(bad)
        assert session.stats.workloads_failed == 1
        assert any(event.kind == "workload-failed" for event in events)

    def test_unwritable_store_degrades_to_noop(self, store_dir):
        workload = blur()
        os.makedirs(store_dir)
        os.chmod(store_dir, 0o500)  # read+execute, no write
        try:
            if os.access(store_dir, os.W_OK):
                pytest.skip("running as privileged user; chmod not effective")
            session = Session(store=store_dir)
            result = session.run(workload)
            assert result.pareto
            assert session.stats.store_writes == 0
        finally:
            os.chmod(store_dir, 0o700)

    def test_concurrent_run_many_writers_share_one_store(self, store_dir):
        workloads = [
            Workload.from_algorithm(name, frame_width=width, **SMALL)
            for name in ("blur", "jacobi", "heat", "erode")
            for width in (128, 256)
        ]
        # two user threads run half the batch each through one session
        cold = Session(store=store_dir)
        with ThreadPoolExecutor(max_workers=2) as pool:
            batches = list(pool.map(cold.run_many,
                                    [workloads[0::2], workloads[1::2]]))
        assert sum(len(results) for results in batches) == len(workloads)
        # every artifact on disk parses cleanly after the concurrent batch
        store = ArtifactStore(store_dir)
        for path in store.artifact_paths():
            with open(path, "r", encoding="utf-8") as handle:
                assert json.load(handle)["schema"] == \
                    store_module.SCHEMA_VERSION
        warm = Session(store=store_dir)
        warm.run_many(workloads)
        assert warm.stats.synthesis_runs == 0
        assert warm.stats.store_disk_hits == len(workloads)

    def test_two_sessions_sharing_one_store_object(self, store_dir):
        store = ArtifactStore(store_dir)
        first = Session(store=store)
        second = Session(store=store)
        first.run(blur())
        second.run(blur())
        assert second.stats.synthesis_runs == 0
        assert first.store is store and second.store is store


class TestStoreMaintenance:
    def test_describe_counts_and_bytes(self, store_dir):
        Session(store=store_dir).run(blur())
        description = ArtifactStore(store_dir).describe()
        assert description["artifacts"] > 0
        assert description["bytes"] > 0
        assert description["kinds"]["characterization"]["artifacts"] > 0
        assert description["kinds"]["result"]["artifacts"] == 1

    def test_clear_removes_everything(self, store_dir):
        Session(store=store_dir).run(blur())
        store = ArtifactStore(store_dir)
        assert store.clear() > 0
        assert store.describe()["artifacts"] == 0

    def test_clear_reclaims_other_schema_versions(self, store_dir):
        Session(store=store_dir).run(blur())
        legacy_dir = os.path.join(store_dir, "v0", "characterization")
        os.makedirs(legacy_dir)
        with open(os.path.join(legacy_dir, "old.json"), "w",
                  encoding="utf-8") as handle:
            handle.write("{}")
        store = ArtifactStore(store_dir)
        description = store.describe()
        assert description["stale_artifacts"] == 1
        removed = store.clear()
        assert not os.path.exists(os.path.join(legacy_dir, "old.json"))
        assert removed == description["artifacts"] + 1
        assert store.describe()["stale_artifacts"] == 0

    def test_clear_reclaims_orphaned_tmp_files(self, store_dir):
        """A writer killed between mkstemp and os.replace leaks a .tmp file;
        the maintenance sweep must see and reclaim it."""
        Session(store=store_dir).run(blur())
        store = ArtifactStore(store_dir)
        orphan = os.path.join(store_dir, f"v{store_module.SCHEMA_VERSION}",
                              "result", "tmpdead42.tmp")
        with open(orphan, "w", encoding="utf-8") as handle:
            handle.write('{"schema": 1, "kind": "result"')  # cut mid-write
        assert store.describe()["stale_artifacts"] == 1
        store.clear()
        assert not os.path.exists(orphan)
        assert store.describe()["stale_artifacts"] == 0

    def test_export_round_trips_payloads(self, store_dir):
        Session(store=store_dir).run(blur())
        payload = ArtifactStore(store_dir).export_payload()
        assert payload["schema"] == store_module.SCHEMA_VERSION
        assert payload["artifacts"]
        kinds = {entry["kind"] for entry in payload["artifacts"]}
        assert {"characterization", "result"} <= kinds

    def test_default_store_path_honors_env(self, monkeypatch):
        monkeypatch.setenv(store_module.CACHE_ENV_VAR, "/tmp/elsewhere")
        assert store_module.default_store_path() == "/tmp/elsewhere"
        monkeypatch.delenv(store_module.CACHE_ENV_VAR)
        assert store_module.default_store_path().endswith(
            os.path.join(".cache", "repro"))


class TestCliStore:
    def test_cli_sweep_reruns_with_zero_synthesis(self, store_dir, tmp_path,
                                                  capsys):
        arguments = ["sweep", "--algorithms", "blur", "--frames", "128x96",
                     "--iterations", "4", "--windows", "1,2,3",
                     "--max-depth", "2", "--store", store_dir, "--json"]
        assert cli_main(arguments) == 0
        cold = json.loads(capsys.readouterr().out)
        assert cold["session"]["synthesis_runs"] > 0

        assert cli_main(arguments) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["session"]["synthesis_runs"] == 0
        assert warm["session"]["store_disk_hits"] > 0
        assert warm["workloads"] == cold["workloads"]

    def test_cli_cache_stats_clear_export(self, store_dir, capsys):
        assert cli_main(["explore", "blur", "--frame", "128x96",
                         "--iterations", "4", "--windows", "1,2,3",
                         "--max-depth", "2", "--quiet",
                         "--store", store_dir]) == 0
        capsys.readouterr()

        assert cli_main(["cache", "stats", "--store", store_dir,
                         "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["artifacts"] > 0

        assert cli_main(["cache", "export", "--store", store_dir]) == 0
        exported = json.loads(capsys.readouterr().out)
        assert exported["artifacts"]

        assert cli_main(["cache", "clear", "--store", store_dir]) == 0
        assert "removed" in capsys.readouterr().out
        assert ArtifactStore(store_dir).describe()["artifacts"] == 0
