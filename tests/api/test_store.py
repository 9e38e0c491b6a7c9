"""Tests for the persistent artifact store (ISSUE 2 tentpole).

The acceptance-critical property: a second session (or CLI invocation)
pointed at the same store directory completes the same workload batch with
zero synthesizer invocations, observable via the ``SessionStats`` disk-hit
counters.  The robustness satellites live here too: corrupted/truncated
artifacts, schema-version mismatches, and concurrent writers must all fall
back to recomputation, never crash.
"""

import hashlib
import json
import os
import random
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import ArtifactStore, PipelineError, Session, Workload
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
        """A repeat run() in one session is a result-layer hit: no second
        disk read, no store_disk_hits inflation, no re-write, and no
        characterize stage (so no characterization hit either)."""
        events = []
        session = Session(store=store_dir, on_event=events.append)
        workload = blur()
        first = session.run(workload)
        hits = session.stats.store_disk_hits
        writes = session.stats.store_writes
        events.clear()
        second = session.run(workload)
        assert second.pareto == first.pareto
        assert session.stats.store_disk_hits == hits
        assert session.stats.store_writes == writes
        assert session.stats.characterization_cache_hits == 0
        assert [event.detail for event in events
                if event.kind == "cache-hit"] == [
            "session memory: full flow result"]

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

    def test_result_key_tracks_kernel_content(self, store_dir):
        """The result artifact is keyed by kernel fingerprint, not just the
        algorithm's registry name, so editing an algorithm definition can
        never serve a stale stored result."""
        workload = blur()
        key = Session._result_store_key(workload)
        assert workload.kernel_fingerprint in key
        # equal workloads from different construction paths share the key
        assert key == Session._result_store_key(blur())

    def test_codegen_after_a_restored_run_runs_only_codegen(self, store_dir):
        """generate_vhdl reads the result a store-served run() restored
        instead of recomputing the flow."""
        workload = blur()
        Session(store=store_dir).run(workload)
        events = []
        warm = Session(store=store_dir, on_event=events.append)
        warm.run(workload)
        assert warm.stats.store_disk_hits == 1
        events.clear()
        files = warm.generate_vhdl(workload)
        assert files == Session().generate_vhdl(workload)
        assert [event.stage for event in events
                if event.kind.startswith("stage-")] == ["codegen", "codegen"]
        assert warm.cached_keys == []  # no explorer was built

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
        """A payload json cannot encode (exotic scalars) must lose only the
        cache write, not the workload."""
        store = ArtifactStore(store_dir)
        assert store.put("result", "weird", {"x": object()}) is None
        assert store.writes == 0
        assert store.get("result", "weird") is None
        leftovers = [name for _root, _dirs, names in os.walk(store_dir)
                     for name in names if name.endswith(".tmp")]
        assert leftovers == []

    def test_stored_file_is_a_hashed_header_then_the_payload(
            self, store_dir):
        store = ArtifactStore(store_dir)
        payload = {"pareto": [{"luts": 120, "fps": 61.5}], "name": "blur"}
        path = store.put("result", "exact", payload)
        body = json.dumps(payload).encode()
        header = {"schema": store_module.SCHEMA_VERSION, "kind": "result",
                  "key": "exact", "sha256": hashlib.sha256(body).hexdigest()}
        with open(path, "rb") as handle:
            assert handle.read() == json.dumps(header).encode() + b"\n" + body


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
        # rewrite every artifact header as a future schema version
        store = ArtifactStore(store_dir)
        for path in store.artifact_paths():
            with open(path, "rb") as handle:
                header_line, _, body = handle.read().partition(b"\n")
            header = json.loads(header_line)
            header["schema"] = store_module.SCHEMA_VERSION + 1
            with open(path, "wb") as handle:
                handle.write(json.dumps(header).encode() + b"\n" + body)

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

    def test_a_failing_workload_fails_with_full_accounting(self, store_dir):
        """A workload failing inside ``run()`` on a store-backed session is
        counted and announced exactly like on an in-memory one."""
        events = []
        session = Session(on_event=events.append, store=store_dir)
        # builds, then fails in analyze: the lambda divisor folds to zero
        bad = Workload.from_algorithm("chamb", params={"lambda": 0.0},
                                      **SMALL)
        with pytest.raises(PipelineError, match="constant zero"):
            session.run(bad)
        assert session.stats.workloads_failed == 1
        assert any(event.kind == "workload-failed" for event in events)

    def test_a_stored_result_naming_another_backend_is_recomputed(
            self, store_dir):
        workload = blur()
        payload = Session().run(workload).to_dict()
        payload["options"]["synthesizer"] = "vivado"
        ArtifactStore(store_dir).put(
            "result", Session._result_store_key(workload), payload)
        session = Session(store=store_dir)
        result = session.run(workload)
        assert result.options.to_dict()["synthesizer"] == "analytic"
        assert session.stats.store_disk_hits == 0
        assert session.stats.synthesis_runs > 0

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
        # every artifact on disk passes its hash check after the
        # concurrent batch
        store = ArtifactStore(store_dir)
        assert (len(store.export_payload()["artifacts"])
                == len(store.artifact_paths()))
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


#: Replacement values of the tamper sweep (the value pool of the seeded
#: C-source and submit-body fuzzers).
TAMPER_VALUES = (None, "x", -1, 0, 1.5, True, [], {}, [1, "a"], {"a": 1},
                 10**12)


def json_leaves(node, path=()):
    """Path of every leaf (scalar, empty list or empty object) of ``node``."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    children = list(children)
    if not children:
        yield path
    for key, child in children:
        yield from json_leaves(child, path + (key,))


def result_digest(result):
    return json.dumps(result.to_dict(), sort_keys=True)


class TestTamperedArtifacts:
    """An artifact edited so that it still parses is recomputed, never
    served: the store checks each artifact's payload hash before decoding
    it."""

    def test_single_value_edits_never_change_the_result(self, store_dir):
        workload = blur(max_depth=3)
        reference = result_digest(Session().run(workload))
        Session(store=store_dir).run(workload)
        store = ArtifactStore(store_dir)
        (result_path,) = store.artifact_paths("result")
        pristine = {}
        for path in store.artifact_paths():
            with open(path, "rb") as handle:
                pristine[path] = handle.read()
        assert len(pristine) == 4  # the result and three depth families
        # every leaf of every JSON line of every artifact
        leaves = [(path, line, leaf)
                  for path, data in sorted(pristine.items())
                  for line, text in enumerate(data.split(b"\n"))
                  for leaf in json_leaves(json.loads(text))]

        rng = random.Random(19)
        bad = []
        for trial in range(300):
            for path, data in pristine.items():
                with open(path, "wb") as handle:
                    handle.write(data)
            path, line, leaf = rng.choice(leaves)
            value = rng.choice(TAMPER_VALUES)
            lines = pristine[path].split(b"\n")
            document = json.loads(lines[line])
            parent = document
            for key in leaf[:-1]:
                parent = parent[key]
            parent[leaf[-1]] = value
            lines[line] = json.dumps(document).encode()
            with open(path, "wb") as handle:
                handle.write(b"\n".join(lines))
            if path != result_path:
                # an intact result artifact would hide the edited family
                os.remove(result_path)
            edit = (trial, os.path.basename(path), leaf, value)
            try:
                result = Session(store=store_dir).run(workload)
            except Exception as error:  # noqa: BLE001 - reported below
                bad.append(edit + (repr(error),))
                continue
            if result_digest(result) != reference:
                bad.append(edit + ("different result",))
        assert bad == []


    def test_payload_edit_that_still_parses_is_corrupt(self, store_dir):
        store = ArtifactStore(store_dir)
        path = store.put("result", "key", {"area_luts": 120.0})
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(data.replace(b"120.0", b"121.0"))
        assert store.get("result", "key") is None
        assert store.counters()["corrupt"] == 1
        assert not os.path.exists(path)

    def test_export_skips_an_artifact_that_fails_its_hash(self, store_dir):
        store = ArtifactStore(store_dir)
        store.put("result", "kept", {"value": 1})
        edited = store.put("result", "edited", {"value": 2})
        with open(edited, "rb") as handle:
            data = handle.read()
        with open(edited, "wb") as handle:
            handle.write(data.replace(b'"value": 2', b'"value": 3'))
        assert store.export_payload()["artifacts"] == [
            {"schema": store_module.SCHEMA_VERSION, "kind": "result",
             "key": "kept", "payload": {"value": 1}}]

    def test_stored_result_carrying_stream_jobs_is_recomputed(
            self, store_dir):
        """A hash-valid result whose options name a chunk fan-out decodes
        as a miss, so the session recomputes instead of serving it."""
        workload = blur()
        reference = result_digest(Session().run(workload))
        Session(store=store_dir).run(workload)
        store = ArtifactStore(store_dir)
        (stored,) = [entry for entry in store.export_payload()["artifacts"]
                     if entry["kind"] == "result"]
        stored["payload"]["options"]["stream_jobs"] = 2
        store.put("result", stored["key"], stored["payload"])

        session = Session(store=store_dir)
        result = session.run(workload)
        assert result.options.to_dict()["stream_jobs"] is None
        assert result_digest(result) == reference
        assert session.stats.synthesis_runs == 0  # families still load

    def test_schema_1_artifacts_are_ignored_and_reclaimed(self, store_dir):
        workload = blur()
        Session(store=store_dir).run(workload)
        store = ArtifactStore(store_dir)
        # the same artifacts as a schema-1 store held them: one JSON
        # envelope per file, no payload hash
        for envelope in store.export_payload()["artifacts"]:
            directory = os.path.join(store_dir, "v1", envelope["kind"])
            os.makedirs(directory, exist_ok=True)
            with open(os.path.join(directory, store.digest(envelope["key"])
                                   + ".json"), "w", encoding="utf-8") as out:
                json.dump(dict(envelope, schema=1), out)
        removed = store.clear("result") + store.clear("characterization")
        assert store.describe()["stale_artifacts"] == removed > 0

        session = Session(store=store_dir)
        session.run(workload)
        assert session.stats.store_disk_hits == 0
        assert session.stats.synthesis_runs > 0
        store.clear()
        assert store.describe()["stale_artifacts"] == 0


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
