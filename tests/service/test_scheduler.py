"""Scheduler tests: coalescing determinism, one-job dispatch, priorities.

16 concurrent identical submissions trigger exactly one exploration with
every served result digest-identical to a direct ``Session.run``; a mixed
4-device x 2-format burst serves results identical to per-workload
``Session.run``; and each job runs alone: it is delivered when its own run
ends, runs (and fails) once, and a later interactive job or a cancel
takes effect before the next pop.
"""

import hashlib
import json
import threading

import pytest

from repro.api import Session, Workload
from repro.api.registry import list_devices
from repro.ir.operators import DataFormat
from repro.service import (
    JobCancelledError,
    JobFailedError,
    ReproClient,
    ReproServer,
)

SMALL = dict(iterations=4, window_sides=(1, 2, 3), max_depth=2,
             max_cones_per_depth=3, frame_width=320, frame_height=240)


def workload(name="blur", **overrides):
    return Workload.from_algorithm(name, **{**SMALL, **overrides})


def digest(result):
    return hashlib.sha256(json.dumps(result.to_dict(),
                                     sort_keys=True).encode()).hexdigest()


@pytest.fixture()
def paused_server():
    """A server whose dispatcher has not started: submissions pile up
    deterministically, then ``start()`` releases the burst at once."""
    server = ReproServer(start=False)
    yield server
    server.close(drain=False)


class TestCoalescingDeterminism:
    def test_16_identical_submissions_one_exploration(self, paused_server):
        """N identical in-flight submits share one computation and every
        served result is digest-identical to a direct ``Session.run``."""
        reference = Session().run(workload())
        reference_digest = digest(reference)
        expected_runs = Session()
        expected_runs.run(workload())
        single_run_synthesis = expected_runs.stats.synthesis_runs

        client = ReproClient(paused_server)
        handles = []
        lock = threading.Lock()
        barrier = threading.Barrier(16)

        def submit():
            barrier.wait()
            handle = client.submit(workload(), priority="interactive")
            with lock:
                handles.append(handle)

        threads = [threading.Thread(target=submit) for _ in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        # all 16 landed before dispatch: exactly one queued computation
        assert sum(handle.coalesced for handle in handles) == 15
        queue_stats = paused_server.queue.stats_snapshot()
        assert queue_stats["submitted"] == 16
        assert queue_stats["coalesced"] == 15
        assert queue_stats["coalesce_hit_rate"] == pytest.approx(15 / 16)
        assert queue_stats["pending"] == 1

        paused_server.start()
        results = [handle.result(timeout=60) for handle in handles]
        assert all(digest(result) == reference_digest
                   for result in results)
        # one exploration: the shared session synthesized exactly as much
        # as a single direct run, and ran exactly one workload
        stats = paused_server.session.stats
        assert stats.synthesis_runs == single_run_synthesis
        assert stats.workloads_run == 1

    def test_duplicate_job_ids_share_identity(self, paused_server):
        client = ReproClient(paused_server)
        first = client.submit(workload())
        second = client.submit(workload())
        assert first.id == second.id
        assert not first.coalesced and second.coalesced


class TestBurstDispatch:
    def test_mixed_device_format_burst_matches_per_workload_runs(
            self, paused_server):
        """A 4-device x 2-format burst serves results byte-identical to
        per-workload ``Session.run`` calls."""
        devices = sorted(list_devices())[:4]
        assert len(devices) == 4
        burst = [workload(device=device, data_format=data_format)
                 for device in devices
                 for data_format in (DataFormat.FIXED16,
                                     DataFormat.FIXED32)]
        reference_digests = [digest(Session().run(each)) for each in burst]

        client = ReproClient(paused_server)
        handles = [client.submit(each) for each in burst]
        paused_server.start()
        results = [handle.result(timeout=120) for handle in handles]
        assert [digest(result) for result in results] == reference_digests
        assert paused_server.stats()["queue"]["completed"] == len(burst)

    def test_singleton_dispatches_still_complete(self):
        server = ReproServer()
        try:
            client = ReproClient(server)
            result = client.run(workload(), timeout=60)
            assert result.design_points
            assert server.stats()["queue"]["completed"] == 1
        finally:
            server.close()

    def test_each_job_is_delivered_before_the_next_one_starts(
            self, paused_server):
        events = []
        paused_server.on_event(
            lambda event: events.append((event.kind, event.workload))
            if event.kind in ("workload-started", "job-finished") else None)
        burst = [workload(frame_width=400 + 16 * i) for i in range(3)]
        client = ReproClient(paused_server)
        handles = [client.submit(each) for each in burst]
        paused_server.start()
        for handle in handles:
            handle.result(timeout=60)
        assert events == [(kind, each) for each in burst
                          for kind in ("workload-started", "job-finished")]


class TestPriorityScheduling:
    def test_interactive_job_and_cancel_take_effect_before_the_next_pop(
            self, paused_server):
        """While the first background job runs, an interactive submission
        jumps the rest of the queue and the third background job can still
        be cancelled: it never runs."""
        client = ReproClient(paused_server)
        sweep = [workload(frame_width=448 + 16 * i) for i in range(3)]
        background = [client.submit(each, priority="background")
                      for each in sweep]
        urgent_workload = workload(frame_width=496)
        urgent = []
        finished = []
        started = []

        def on_event(event):
            if event.kind == "workload-started":
                started.append(event.workload)
            elif event.kind == "job-finished":
                finished.append(event.detail)
            elif (event.kind == "job-started" and not urgent
                  and event.detail == background[0].id):
                urgent.append(client.submit(urgent_workload,
                                            priority="interactive"))
                background[2].cancel()

        paused_server.on_event(on_event)
        paused_server.start()
        for handle in background[:2] + urgent:
            handle.result(timeout=60)
        assert finished == [background[0].id, urgent[0].id,
                            background[1].id]
        assert background[2].status()["state"] == "cancelled"
        with pytest.raises(JobCancelledError):
            background[2].result(timeout=5)
        assert sweep[2] not in started
        assert paused_server.session.stats.workloads_run == 3

    def test_mixed_priority_burst_completes_in_priority_order(
            self, paused_server):
        finished = []
        paused_server.on_event(
            lambda event: finished.append(event.workload.frame_width)
            if event.kind == "job-finished" else None)
        client = ReproClient(paused_server)
        by_priority = {
            "background": [workload(frame_width=310 + i) for i in range(2)],
            "batch": [workload(frame_width=320 + i) for i in range(2)],
            "interactive": [workload(frame_width=330 + i)
                            for i in range(2)],
        }
        handles = {}
        for priority, workloads in by_priority.items():
            for each in workloads:
                handles[each.frame_width] = client.submit(each,
                                                          priority=priority)
        paused_server.start()
        for handle in handles.values():
            handle.result(timeout=120)
        expected = ([w.frame_width for w in by_priority["interactive"]]
                    + [w.frame_width for w in by_priority["batch"]]
                    + [w.frame_width for w in by_priority["background"]])
        assert finished == expected


class TestFailureAttribution:
    def test_poisoned_batch_member_fails_alone(self, paused_server):
        """A failing job fails alone, and runs and counts once."""
        failed = []
        paused_server.on_event(
            lambda event: failed.append(event.workload)
            if event.kind == "workload-failed" else None)
        client = ReproClient(paused_server)
        good = client.submit(workload(frame_width=352))
        # an unknown backend name resolves (and fails) only inside run()
        poisoned = workload(frame_width=368, synthesizer="no-such-backend")
        bad = client.submit(poisoned)
        also_good = client.submit(workload(frame_width=384))
        paused_server.start()
        assert good.result(timeout=60).design_points
        assert also_good.result(timeout=60).design_points
        with pytest.raises(JobFailedError, match="no-such-backend"):
            bad.result(timeout=60)
        assert bad.status()["state"] == "failed"
        stats = paused_server.stats()
        assert stats["queue"]["failed"] == 1
        assert stats["queue"]["completed"] == 2
        assert stats["session"]["workloads_failed"] == 1
        assert stats["session"]["workloads_run"] == 2
        assert failed == [poisoned]

    def test_failing_singleton_is_not_replayed(self):
        """A failing job must fail directly — not pay the broken pipeline
        a second time."""
        server = ReproServer()
        try:
            client = ReproClient(server)
            handle = client.submit(workload(synthesizer="no-such-backend"))
            with pytest.raises(JobFailedError, match="no-such-backend"):
                handle.result(timeout=60)
            # one failed run, not two (a replay would double the counter)
            assert server.session.stats.workloads_failed == 1
        finally:
            server.close(drain=False)
