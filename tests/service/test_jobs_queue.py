"""Unit tests for the service job records and the coalescing queue."""

import threading
import time

import pytest

from repro.api import Workload
from repro.service import (
    JOB_STATES,
    JobQueue,
    ServiceClosedError,
    UnknownJobError,
)


SMALL = dict(iterations=4, window_sides=(1, 2, 3), max_depth=2,
             max_cones_per_depth=3, frame_width=320, frame_height=240)


def workload(name="blur", **overrides):
    return Workload.from_algorithm(name, **{**SMALL, **overrides})


class TestCoalescing:
    def test_identical_workloads_share_one_job(self):
        queue = JobQueue()
        first, coalesced_first = queue.submit(workload())
        second, coalesced_second = queue.submit(workload())
        assert first is second
        assert not coalesced_first and coalesced_second
        assert first.coalesced == 1
        stats = queue.stats_snapshot()
        assert stats["submitted"] == 2 and stats["coalesced"] == 1
        assert stats["coalesce_hit_rate"] == pytest.approx(0.5)

    def test_distinct_workloads_do_not_coalesce(self):
        queue = JobQueue()
        a, _ = queue.submit(workload())
        b, coalesced = queue.submit(workload(frame_width=640))
        assert a is not b and not coalesced

    def test_coalescing_onto_a_running_job(self):
        queue = JobQueue()
        job, _ = queue.submit(workload())
        running = queue.next_job()
        assert running is job and job.state == "running"
        again, coalesced = queue.submit(workload())
        assert coalesced and again is job

    def test_terminal_jobs_do_not_coalesce(self):
        queue = JobQueue()
        job, _ = queue.submit(workload())
        assert queue.next_job() is job
        queue.finish(job, result="sentinel")
        fresh, coalesced = queue.submit(workload())
        assert fresh is not job and not coalesced


class TestFifoOrder:
    def test_jobs_dispatch_in_submission_order(self):
        queue = JobQueue()
        jobs = [queue.submit(workload(frame_width=100 * (i + 1)))[0]
                for i in range(4)]
        assert [queue.next_job() for _ in range(4)] == jobs

    def test_a_coalesced_submission_keeps_its_jobs_place(self):
        queue = JobQueue()
        first, _ = queue.submit(workload(frame_width=100))
        second, _ = queue.submit(workload(frame_width=200))
        again, coalesced = queue.submit(workload(frame_width=200))
        assert coalesced and again is second
        assert [queue.next_job(), queue.next_job()] == [first, second]
        assert queue.pending_count() == 0


class TestLifecycle:
    def test_unknown_job_raises(self):
        with pytest.raises(UnknownJobError):
            JobQueue().job("job-404")

    def test_a_job_never_expires(self):
        assert "timeout" not in JOB_STATES
        job, _ = JobQueue().submit(workload())
        for name in ("priority", "sequence", "timeout_s", "deadline",
                     "requesters"):
            assert not hasattr(job, name), name
        assert not hasattr(JobQueue, "cancel")

    def test_the_priority_classes_are_gone(self):
        import repro.service
        from repro.service import jobs

        for name in ("PRIORITY_CLASSES", "parse_priority", "priority_name"):
            assert not hasattr(repro.service, name), name
            assert not hasattr(jobs, name), name


class TestNextJob:
    def test_blocks_until_a_submission_arrives(self):
        queue = JobQueue()
        popped = []
        waiter = threading.Thread(target=lambda: popped.append(
            queue.next_job()), daemon=True)
        waiter.start()
        time.sleep(0.05)
        assert waiter.is_alive() and not popped
        job, _ = queue.submit(workload())
        waiter.join(timeout=5.0)
        assert not waiter.is_alive()
        assert popped == [job] and job.state == "running"


class TestShutdown:
    def test_closed_queue_rejects_submissions(self):
        queue = JobQueue()
        queue.close()
        with pytest.raises(ServiceClosedError):
            queue.submit(workload())

    def test_drain_after_close_empties_then_signals_exit(self):
        queue = JobQueue()
        job, _ = queue.submit(workload())
        queue.close()
        assert queue.next_job() is job
        queue.finish(job, result=None)
        assert queue.next_job() is None

    def test_close_cancel_pending_releases_waiters(self):
        queue = JobQueue()
        job, _ = queue.submit(workload())
        released = threading.Event()

        def wait():
            job.wait(5.0)
            released.set()

        waiter = threading.Thread(target=wait)
        waiter.start()
        queue.close(cancel_pending=True)
        assert released.wait(5.0)
        waiter.join()
        assert job.state == "cancelled"
        assert queue.next_job() is None
