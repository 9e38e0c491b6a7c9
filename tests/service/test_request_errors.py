"""Bad ``GET /result`` waits and ``POST /shutdown`` bodies get a typed 400.

Each test files one job on a paused worker (``ReproServer(start=False)``),
or on a router over one, so the job stays queued: a refused request must
leave it queued and the server serving.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.api import Workload
from repro.fleet import FleetRouter
from repro.service import ReproServer

SMALL = dict(iterations=4, window_sides=(1, 2, 3), max_depth=2,
             max_cones_per_depth=3, frame_width=320, frame_height=240)


@pytest.fixture(params=["worker", "router"])
def queued(request):
    """``(service, url, job_id)``: a paused worker, or a router over one,
    serving HTTP with one queued job."""
    if request.param == "worker":
        service = ReproServer(start=False)
    else:
        service = FleetRouter.local(1, start=False,
                                    healthcheck_interval_s=0)
    host, port = service.serve_http("127.0.0.1", 0)
    url = f"http://{host}:{port}"
    job_id = service.submit(
        Workload.from_algorithm("blur", **SMALL))["job_id"]
    yield service, url, job_id
    service.close(drain=False)


def exchange(url, path, body=None):
    """One GET (or POST of ``body`` as JSON); returns ``(status, payload)``."""
    data = None if body is None else json.dumps(body).encode()
    request = urllib.request.Request(
        url + path, data=data, headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=10) as reply:
            return reply.status, json.loads(reply.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def assert_still_queued(service, url, job_id):
    assert exchange(url, "/healthz")[1]["state"] == "serving"
    assert service.status(job_id)["state"] == "queued"


@pytest.mark.parametrize("wait", ["nan", "inf", "-1", "abc"])
def test_a_bad_result_wait_is_a_400(queued, wait):
    service, url, job_id = queued
    status, payload = exchange(url, f"/result?id={job_id}&timeout={wait}")
    assert (status, payload["kind"]) == (400, "ValueError")
    assert_still_queued(service, url, job_id)


@pytest.mark.parametrize("wait", [float("nan"), float("inf"), -1.0])
def test_a_bad_in_process_wait_is_a_value_error(queued, wait):
    service, url, job_id = queued
    with pytest.raises(ValueError, match="timeout"):
        service.result(job_id, timeout=wait)
    assert_still_queued(service, url, job_id)


def test_a_zero_wait_on_a_queued_job_answers_pending(queued):
    service, url, job_id = queued
    status, payload = exchange(url, f"/result?id={job_id}&timeout=0")
    assert status == 200
    assert payload == {"job_id": job_id, "state": "queued", "pending": True}


@pytest.mark.parametrize("drain", ["false", [], 0, 1, None],
                         ids=["string", "list", "zero", "one", "null"])
def test_a_non_boolean_drain_is_a_400(queued, drain):
    service, url, job_id = queued
    status, payload = exchange(url, "/shutdown", {"drain": drain})
    assert (status, payload["kind"]) == (400, "ValueError")
    assert "drain" in payload["error"]
    assert_still_queued(service, url, job_id)


def test_post_cancel_is_a_404(queued):
    service, url, job_id = queued
    status, _payload = exchange(url, "/cancel", {"job_id": job_id})
    assert status == 404
    assert_still_queued(service, url, job_id)
