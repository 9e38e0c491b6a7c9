"""Thread-safety tests for session caches and store statistics.

ISSUE 5 satellites: racing ``Session.run`` callers on one cold
characterization key must synthesize exactly once (the service tier
shares one session across every request thread), and the
store-traffic/statistics counters must be atomic — no increment lost to a
read-modify-write race, however many threads report at once.
"""

import json
import sys
import threading

import pytest

from repro.api import ArtifactStore, Session, Workload
from repro.api import session as session_module

SMALL = dict(iterations=4, window_sides=(1, 2, 3), max_depth=2,
             max_cones_per_depth=3, frame_width=320, frame_height=240)


def workload(**overrides):
    return Workload.from_algorithm("blur", **{**SMALL, **overrides})


class TestColdKeyRace:
    def test_racing_threads_on_one_cold_key_synthesize_once(self):
        """16 threads hit one cold workload simultaneously: the per-key
        lock must let exactly one of them pay the synthesis."""
        baseline = Session()
        baseline.run(workload())
        single_run_synthesis = baseline.stats.synthesis_runs
        assert single_run_synthesis > 0

        session = Session()
        barrier = threading.Barrier(16)
        results, errors = [], []
        lock = threading.Lock()

        def race():
            barrier.wait()
            try:
                result = session.run(workload())
            except Exception as error:  # pragma: no cover - diagnostic
                with lock:
                    errors.append(error)
            else:
                with lock:
                    results.append(result)

        threads = [threading.Thread(target=race) for _ in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        assert len(results) == 16
        stats = session.stats
        assert stats.synthesis_runs == single_run_synthesis
        assert stats.characterization_cache_misses == 1
        assert stats.workloads_run == 16
        # every caller got an equivalent result over the shared artifacts
        first = results[0].exploration
        assert all(r.exploration.design_points == first.design_points
                   for r in results)

    def test_racing_threads_cold_store_write_once_each_artifact(self, tmp_path):
        """With a persistent store, racing cold threads must end with the
        result artifact on disk exactly once-readable and consistent."""
        session = Session(store=str(tmp_path))
        barrier = threading.Barrier(8)

        def race():
            barrier.wait()
            session.run(workload())

        threads = [threading.Thread(target=race) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        warm = Session(store=str(tmp_path))
        warm.run(workload())
        assert warm.stats.synthesis_runs == 0
        assert warm.stats.store_disk_hits >= 1


class TestResultLayerUnderThreads:
    def test_threads_sharing_a_small_result_layer(self, monkeypatch):
        """More threads than cores run, repeat and evict six workloads
        through a three-entry result layer, with a short switch interval
        so the interpreter interleaves them often: the layer never holds
        more than its bound, no run is lost, and every answer equals a
        direct run."""
        monkeypatch.setattr(session_module, "RESULT_CACHE_CAPACITY", 3)
        workloads = [workload(frame_width=64 + 16 * index)
                     for index in range(6)]

        def digest(result):
            return json.dumps(result.to_dict(), sort_keys=True)

        expected = [digest(result) for result in Session().run_many(workloads)]
        session = Session()
        sizes, mismatches = [], []

        def worker(offset):
            for step in range(12):
                index = (offset + step) % len(workloads)
                result = session.run(workloads[index])
                if digest(result) != expected[index]:
                    mismatches.append(index)
                if step % 5 == 4:
                    session.evict(workloads[index])
                sizes.append(session._results.stats()["entries"])

        threads = [threading.Thread(target=worker, args=(offset,))
                   for offset in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not mismatches
        assert max(sizes) <= 3
        assert session.stats.workloads_run == 8 * 12


class TestCounterAtomicity:
    def test_session_store_counters_never_lose_updates(self):
        """8 threads x 500 events per kind: the dedicated stats lock must
        land every single increment."""
        session = Session()
        barrier = threading.Barrier(8)

        def hammer():
            barrier.wait()
            for _ in range(500):
                session._record_store_event("hit")
                session._record_store_event("miss")
                session._record_store_event("write")

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        stats = session.stats
        assert stats.store_disk_hits == 8 * 500
        assert stats.store_disk_misses == 8 * 500
        assert stats.store_writes == 8 * 500

    def test_artifact_store_counters_exact_under_threads(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        barrier = threading.Barrier(8)

        def hammer(worker):
            barrier.wait()
            for index in range(50):
                key = f"worker-{worker}-key-{index}"
                assert store.get("result", key) is None      # one miss
                store.put("result", key, {"worker": worker})  # one write
                assert store.get("result", key) is not None   # one hit

        threads = [threading.Thread(target=hammer, args=(n,))
                   for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        counters = store.counters()
        assert counters["misses"] == 8 * 50
        assert counters["writes"] == 8 * 50
        assert counters["hits"] == 8 * 50
        assert counters["corrupt"] == 0

    def test_counters_snapshot_is_atomic_against_traffic(self, tmp_path):
        """Snapshots taken mid-hammer must always satisfy the invariant
        hits + misses == total gets issued so far (never torn reads)."""
        store = ArtifactStore(str(tmp_path))
        stop = threading.Event()
        violations = []

        def reader():
            while not stop.is_set():
                snapshot = store.counters()
                if snapshot["hits"] + snapshot["misses"] > 4000:
                    violations.append(snapshot)

        observer = threading.Thread(target=reader)
        observer.start()
        for index in range(4000):
            store.get("result", f"missing-{index % 7}")
        stop.set()
        observer.join()
        assert not violations

    def test_on_event_registration_races_with_emission(self):
        """Registering callbacks while events fire must neither crash nor
        drop the events the established callback sees."""
        session = Session()
        seen = []
        session.on_event(lambda event: seen.append(event.kind))
        stop = threading.Event()

        def register_forever():
            while not stop.is_set():
                session.on_event(lambda event: None)

        registrar = threading.Thread(target=register_forever)
        registrar.start()
        try:
            for _ in range(3):
                session.run(workload())
        finally:
            stop.set()
            registrar.join()
        assert seen.count("workload-finished") == 3
