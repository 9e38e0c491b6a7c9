"""Unit tests for the service job records and the coalescing queue."""

import threading
import time

import pytest

from repro.api import Workload
from repro.service import (
    JobQueue,
    PRIORITY_CLASSES,
    ServiceClosedError,
    UnknownJobError,
    parse_priority,
    priority_name,
)
from repro.service.jobs import JobTimeoutError


SMALL = dict(iterations=4, window_sides=(1, 2, 3), max_depth=2,
             max_cones_per_depth=3, frame_width=320, frame_height=240)


def workload(name="blur", **overrides):
    return Workload.from_algorithm(name, **{**SMALL, **overrides})


class TestPriorities:
    def test_names_map_to_numbers(self):
        assert parse_priority("interactive") < parse_priority("batch")
        assert parse_priority("batch") < parse_priority("background")
        assert parse_priority(None) == PRIORITY_CLASSES["batch"]
        assert parse_priority(" Interactive ") == 0
        assert parse_priority(2) == PRIORITY_CLASSES["background"]

    def test_round_trip_names(self):
        for name, number in PRIORITY_CLASSES.items():
            assert priority_name(parse_priority(name)) == name
            assert parse_priority(number) == number

    @pytest.mark.parametrize("bad", ["urgent", 7, -1, True, 1.5])
    def test_unknown_priorities_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_priority(bad)


class TestCoalescing:
    def test_identical_workloads_share_one_job(self):
        queue = JobQueue()
        first, coalesced_first = queue.submit(workload())
        second, coalesced_second = queue.submit(workload())
        assert first is second
        assert not coalesced_first and coalesced_second
        assert first.requesters == 2 and first.coalesced == 1
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


class TestPriorityOrder:
    def test_drain_is_priority_then_submission_order(self):
        queue = JobQueue()
        low, _ = queue.submit(workload(frame_width=100), "background")
        mid, _ = queue.submit(workload(frame_width=200), "batch")
        high, _ = queue.submit(workload(frame_width=300), "interactive")
        mid2, _ = queue.submit(workload(frame_width=400), "batch")
        assert [queue.next_job() for _ in range(4)] == [high, mid, mid2, low]

    def test_coalesced_resubmission_promotes_priority(self):
        queue = JobQueue()
        slow, _ = queue.submit(workload(frame_width=100), "background")
        other, _ = queue.submit(workload(frame_width=200), "batch")
        promoted, coalesced = queue.submit(workload(frame_width=100),
                                           "interactive")
        assert coalesced and promoted is slow
        assert queue.next_job() is slow


class TestCancellation:
    def test_last_requester_cancels_queued_job(self):
        queue = JobQueue()
        job, _ = queue.submit(workload())
        assert queue.cancel(job.id) is False
        assert job.state == "cancelled" and job.done()
        assert queue.pending_count() == 0

    def test_coalesced_job_survives_one_cancel(self):
        queue = JobQueue()
        job, _ = queue.submit(workload())
        queue.submit(workload())
        assert queue.cancel(job.id) is True
        assert job.state == "queued"
        assert queue.next_job() is job

    def test_running_job_cannot_be_cancelled(self):
        queue = JobQueue()
        job, _ = queue.submit(workload())
        queue.next_job()
        assert queue.cancel(job.id) is True
        assert job.state == "running"

    def test_unknown_job_raises(self):
        with pytest.raises(UnknownJobError):
            JobQueue().job("job-404")


class TestTimeouts:
    def test_expired_queued_job_is_never_dispatched(self):
        queue = JobQueue()
        doomed, _ = queue.submit(workload(frame_width=100), timeout_s=0.0)
        live, _ = queue.submit(workload(frame_width=200))
        time.sleep(0.01)
        assert queue.next_job() is live
        assert doomed.state == "timeout"
        assert isinstance(doomed.error, JobTimeoutError)
        assert queue.stats_snapshot()["timed_out"] == 1

    def test_negative_timeout_rejected(self):
        with pytest.raises(ValueError):
            JobQueue().submit(workload(), timeout_s=-1)

    def test_coalesced_tight_timeout_cannot_expire_patient_requesters(self):
        """One requester's small timeout_s must never time the shared job
        out for a requester that asked for no (or a longer) deadline."""
        queue = JobQueue()
        job, _ = queue.submit(workload())            # unbounded requester
        queue.submit(workload(), timeout_s=0.0)      # impatient follower
        assert job.deadline is None                  # stays unbounded
        time.sleep(0.01)
        assert queue.next_job() is job

    def test_coalescing_keeps_the_most_patient_deadline(self):
        queue = JobQueue()
        job, _ = queue.submit(workload(), timeout_s=0.0)
        queue.submit(workload(), timeout_s=60.0)     # extends the deadline
        assert job.timeout_s == 60.0
        assert queue.next_job() is job
        unbounded_job, _ = queue.submit(workload(frame_width=200),
                                        timeout_s=0.0)
        queue.submit(workload(frame_width=200))      # clears the deadline
        assert unbounded_job.deadline is None

    def test_a_waiting_dispatcher_skips_a_job_expired_on_arrival(self):
        queue = JobQueue()
        popped = []
        waiter = threading.Thread(target=lambda: popped.append(
            queue.next_job()), daemon=True)
        waiter.start()
        # wake the waiter with a job whose deadline is already over: it is
        # expired instead of dispatched, and the waiter sleeps on
        doomed, _ = queue.submit(workload(), timeout_s=0.0)
        assert doomed.wait(5.0) and doomed.state == "timeout"
        live, _ = queue.submit(workload(frame_width=200))
        waiter.join(timeout=5.0)
        assert not waiter.is_alive() and popped == [live]


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
