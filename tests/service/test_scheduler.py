"""Scheduler tests: coalescing determinism, one-job dispatch, FIFO order.

16 concurrent identical submissions trigger exactly one exploration with
every served result digest-identical to a direct ``Session.run``; a mixed
4-device x 2-format burst serves results identical to per-workload
``Session.run``; and each job runs alone: it is delivered when its own run
ends, runs (and fails) once, and jobs finish in submission order.
"""

import hashlib
import json
import threading

import pytest

from repro.api import Session, Workload
from repro.ir.operators import DataFormat
from repro.synth.fpga_device import DEVICE_CATALOG
from repro.service import (
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
            handle = client.submit(workload())
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
        devices = sorted(DEVICE_CATALOG)[:4]
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


def finish_order(handles):
    """The handles' job ids, in the order their jobs finished."""
    return [handle.id for handle in sorted(
        handles, key=lambda handle: handle.status()["finished_at"])]


class TestFifoDispatch:
    def test_a_burst_finishes_in_submission_order(self, paused_server):
        client = ReproClient(paused_server)
        handles = [client.submit(workload(frame_width=width))
                   for width in (336, 304, 328, 312, 320, 296)]
        paused_server.start()
        for handle in handles:
            handle.result(timeout=120)
        assert finish_order(handles) == [handle.id for handle in handles]

    def test_a_job_filed_mid_run_queues_behind_the_backlog(
            self, paused_server):
        """While the first job runs, a new submission lines up behind the
        jobs already queued."""
        client = ReproClient(paused_server)
        backlog = [client.submit(workload(frame_width=448 + 16 * i))
                   for i in range(3)]
        late = []

        def on_event(event):
            if (event.kind == "job-started" and not late
                    and event.detail == backlog[0].id):
                late.append(client.submit(workload(frame_width=496)))

        paused_server.on_event(on_event)
        paused_server.start()
        backlog[0].result(timeout=60)  # the late job was filed as it ran
        handles = backlog + late
        for handle in handles:
            handle.result(timeout=60)
        assert finish_order(handles) == [handle.id for handle in handles]


class TestFailureAttribution:
    def test_poisoned_batch_member_fails_alone(self, paused_server):
        """A failing job fails alone, and runs and counts once."""
        failed = []
        paused_server.on_event(
            lambda event: failed.append(event.workload)
            if event.kind == "workload-failed" else None)
        client = ReproClient(paused_server)
        good = client.submit(workload(frame_width=352))
        # builds, then fails inside run(): the lambda divisor folds to zero
        poisoned = workload("chamb", frame_width=368,
                            params={"lambda": 0.0})
        bad = client.submit(poisoned)
        also_good = client.submit(workload(frame_width=384))
        paused_server.start()
        assert good.result(timeout=60).design_points
        assert also_good.result(timeout=60).design_points
        with pytest.raises(JobFailedError, match="constant zero"):
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
            handle = client.submit(workload("chamb",
                                            params={"lambda": 0.0}))
            with pytest.raises(JobFailedError, match="constant zero"):
                handle.result(timeout=60)
            # one failed run, not two (a replay would double the counter)
            assert server.session.stats.workloads_failed == 1
        finally:
            server.close(drain=False)
