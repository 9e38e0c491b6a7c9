"""Multi-process ``ArtifactStore`` stress tests (ISSUE 3 satellite).

Regression net over PR 2's atomic-write claim: N worker *processes*
hammering one store directory — racing writers on the same keys, racing
cold sessions, concurrent warm readers — must never produce a corrupted or
truncated artifact, and warm rereads must report correct
``store_disk_hits`` accounting.
"""

import os
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.api import ArtifactStore, Session, Workload
from repro.api import store as store_module

pytestmark = pytest.mark.slow

SMALL = dict(iterations=4, window_sides=(1, 2, 3), max_depth=2,
             max_cones_per_depth=3)

#: Shared keys every hammering worker writes/reads, plus a payload large
#: enough that a torn (non-atomic) write could not still parse as JSON.
KEYS = [f"stress-key-{index}" for index in range(6)]
PADDING = "x" * 8192


def expected_payload(key):
    return {"key": key, "checksum": sum(map(ord, key)), "padding": PADDING}


def hammer_worker(args):
    """One worker process: repeated put/get cycles over the shared keys.

    Every writer stores the same (deterministic) payload per key, so any
    read that returns a *different* payload — or bumps the store's corrupt
    counter — means a torn or interleaved write leaked through.
    """
    store_dir, rounds = args
    store = ArtifactStore(store_dir)
    mismatches = 0
    for _ in range(rounds):
        for key in KEYS:
            store.put("result", key, expected_payload(key))
            read = store.get("result", key)
            if read is not None and read != expected_payload(key):
                mismatches += 1
    return mismatches, store.corrupt


def cold_session_worker(args):
    """One worker process running a full workload against a shared store."""
    store_dir, payload = args
    session = Session(store=store_dir)
    result = session.run(Workload.from_dict(payload))
    stats = session.stats
    return (len(result.pareto), stats.synthesis_runs, stats.store_disk_hits,
            stats.store_disk_misses)


class TestConcurrentWriters:
    def test_racing_writers_never_corrupt_artifacts(self, tmp_path):
        store_dir = str(tmp_path / "store")
        with ProcessPoolExecutor(max_workers=4) as pool:
            outcomes = list(pool.map(hammer_worker,
                                     [(store_dir, 12)] * 4))
        for mismatches, corrupt in outcomes:
            assert mismatches == 0
            assert corrupt == 0
        # every artifact left on disk is complete and passes its hash check
        store = ArtifactStore(store_dir)
        envelopes = store.export_payload()["artifacts"]
        assert len(envelopes) == len(store.artifact_paths()) == len(KEYS)
        for envelope in envelopes:
            assert envelope["schema"] == store_module.SCHEMA_VERSION
            assert envelope["payload"] == expected_payload(
                envelope["key"])
        # no interrupted-write temp files survive a clean shutdown
        leftovers = [name for _dir, _subdirs, names in os.walk(store_dir)
                     for name in names if name.endswith(".tmp")]
        assert leftovers == []

    def test_reread_after_the_storm_counts_clean_hits(self, tmp_path):
        store_dir = str(tmp_path / "store")
        with ProcessPoolExecutor(max_workers=4) as pool:
            list(pool.map(hammer_worker, [(store_dir, 6)] * 4))
        store = ArtifactStore(store_dir)
        for key in KEYS:
            assert store.get("result", key) == expected_payload(key)
        assert store.hits == len(KEYS)
        assert store.misses == 0
        assert store.corrupt == 0


class TestConcurrentSessions:
    def test_racing_cold_sessions_leave_a_valid_store(self, tmp_path):
        """Several processes starting cold on one empty store directory at
        once: every artifact must land complete, and a fresh warm session
        must then resume with zero synthesis."""
        store_dir = str(tmp_path / "store")
        payload = Workload.from_algorithm("blur", **SMALL).to_dict()
        with ProcessPoolExecutor(max_workers=4) as pool:
            outcomes = list(pool.map(cold_session_worker,
                                     [(store_dir, payload)] * 4))
        assert all(pareto > 0 for pareto, _runs, _hits, _misses in outcomes)
        store = ArtifactStore(store_dir)
        assert (len(store.export_payload()["artifacts"])
                == len(store.artifact_paths()))

        warm = Session(store=store_dir)
        warm.run(Workload.from_dict(payload))
        assert warm.stats.synthesis_runs == 0
        assert warm.stats.store_disk_hits == 1
        assert warm.stats.store_disk_misses == 0

    def test_warm_readers_report_correct_disk_hits(self, tmp_path):
        """N processes rereading one stored workload: each must be served
        from disk (one result hit, zero synthesis, zero misses)."""
        store_dir = str(tmp_path / "store")
        workload = Workload.from_algorithm("blur", **SMALL)
        Session(store=store_dir).run(workload)

        with ProcessPoolExecutor(max_workers=4) as pool:
            outcomes = list(pool.map(cold_session_worker,
                                     [(store_dir, workload.to_dict())] * 4))
        for pareto, synthesis_runs, disk_hits, disk_misses in outcomes:
            assert pareto > 0
            assert synthesis_runs == 0
            assert disk_hits == 1
            assert disk_misses == 0

