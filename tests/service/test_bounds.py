"""A long-lived server keeps bounded state, whatever the number of
distinct jobs.

A worker holds results in two places: its session's result layer (plus
the validation layer) and its queue's terminal job history.  Each is
bounded by a module constant; the tests shrink the constants so a handful
of tiny jobs crosses every bound.
"""

import hashlib
import json

import pytest

from repro.api import Session, Workload
from repro.api import session as session_module
from repro.service import ReproServer, UnknownJobError
from repro.service import queue as queue_module

RESULTS, VALIDATIONS, HISTORY = 3, 2, 4

TINY = dict(iterations=2, window_sides=(1, 2), max_depth=2,
            max_cones_per_depth=2, frame_height=24)


def workload(width, name="blur"):
    return Workload.from_algorithm(name, frame_width=width, **TINY)


def digest(result):
    return hashlib.sha256(json.dumps(result.to_dict(),
                                     sort_keys=True).encode()).hexdigest()


@pytest.fixture()
def small_bounds(monkeypatch):
    monkeypatch.setattr(session_module, "RESULT_CACHE_CAPACITY", RESULTS)
    monkeypatch.setattr(session_module, "VALIDATION_CACHE_CAPACITY",
                        VALIDATIONS)
    monkeypatch.setattr(queue_module, "HISTORY_LIMIT", HISTORY)


def layer_sizes(server):
    session = server.session
    terminal = [job for job in server.queue._jobs.values() if job.done()]
    return (session._results.stats()["entries"],
            session._validations.stats()["entries"], len(terminal))


def test_distinct_jobs_leave_every_layer_at_its_bound(small_bounds):
    with ReproServer() as server:
        for width in range(16, 16 + 4 * 10, 4):
            for kind in ("explore", "validate"):
                receipt = server.submit(workload(width), job=kind)
                server.result(receipt["job_id"], timeout=60)
                results, validations, terminal = layer_sizes(server)
                assert results <= RESULTS
                assert validations <= VALIDATIONS
                assert terminal <= HISTORY
        assert layer_sizes(server) == (RESULTS, VALIDATIONS, HISTORY)


def test_an_in_flight_job_is_never_forgotten(small_bounds):
    server = ReproServer(start=False)  # paused: the test dispatches
    queue = server.queue
    try:
        finished = [server.submit(workload(20 + 4 * index))["job_id"]
                    for index in range(HISTORY + 2)]
        waiting = server.submit(workload(16))["job_id"]
        for _ in finished:
            queue.finish(queue.next_job(), result=None)
        # the oldest terminal jobs are forgotten, the queued one is not
        with pytest.raises(UnknownJobError):
            server.status(finished[0])
        assert server.status(finished[-1])["state"] == "done"
        assert server.status(waiting)["state"] == "queued"
        server.start()
        result = server.result(waiting, timeout=60)
        assert digest(result) == digest(Session().run(workload(16)))
    finally:
        server.close(drain=False)


def test_an_evicted_result_is_answered_again(small_bounds):
    first = workload(16)
    with ReproServer() as server:
        answer = server.result(server.submit(first)["job_id"], timeout=60)
        for width in range(20, 20 + 4 * (HISTORY + RESULTS), 4):
            server.result(server.submit(workload(width))["job_id"],
                          timeout=60)
        assert server.session._results.get(first) is None
        again = server.result(server.submit(first)["job_id"], timeout=60)
    fresh = digest(Session().run(first))
    assert digest(answer) == digest(again) == fresh
