"""Bad ``POST /submit`` bodies get a typed 400, never a 500 or a hang.

Every request goes to a paused worker (``ReproServer(start=False)``) and to
a router over one (``FleetRouter.local(1, start=False)``), so no job runs:
each answer is decided while the body is parsed and the job is filed.  The
seeded fuzz at the end is the HTTP twin of
``tests/api/test_bad_c_source.py``.
"""

import json
import random
import socket
import urllib.error
import urllib.request
from collections import Counter

import pytest

from repro.api import Workload
from repro.dse.constraints import DseConstraints
from repro.fleet import FleetRouter
from repro.service import ReproServer

SMALL = dict(iterations=4, window_sides=(1, 2, 3), max_depth=2,
             max_cones_per_depth=3, frame_width=320, frame_height=240)
#: A valid workload payload whose constraints are an object to mutate.
WORKLOAD = Workload.from_algorithm(
    "blur", constraints=DseConstraints(min_frames_per_second=30.0),
    **SMALL).to_dict()
#: What a fuzz mutation may put in a field.
VALUES = (None, "x", -1, 0, 1.5, True, [], {}, [1, "a"], {"a": 1}, 10**12)
CASES = 300
SEED = 20261018


@pytest.fixture(scope="module", params=["worker", "router"])
def url(request):
    """The URL of a paused worker, or of a router over a paused worker."""
    if request.param == "worker":
        service = ReproServer(start=False)
    else:
        service = FleetRouter.local(1, start=False,
                                    healthcheck_interval_s=0)
    host, port = service.serve_http("127.0.0.1", 0)
    yield f"http://{host}:{port}"
    service.close(drain=False)


def post(url, body):
    """POST ``body`` as JSON to ``/submit``; returns ``(status, payload)``."""
    request = urllib.request.Request(
        url + "/submit", data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=10) as reply:
            return reply.status, json.loads(reply.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def submit_body(**workload_fields):
    return {"workload": dict(WORKLOAD, **workload_fields)}


BAD_BODIES = {
    # a workload or constraints that is not an object
    "workload-string": ({"workload": "blur"}, "TypeError", "workload"),
    "workload-list": ({"workload": [1, 2]}, "TypeError", "workload"),
    "workload-number": ({"workload": 5}, "TypeError", "workload"),
    "workload-null": ({"workload": None}, "TypeError", "workload"),
    "constraints-list": (submit_body(constraints=[1]), "TypeError",
                         "constraints"),
    "constraints-string": (submit_body(constraints="x"), "TypeError",
                           "constraints"),
    "constraints-number": (submit_body(constraints=1.5), "TypeError",
                           "constraints"),
    "constraints-bool": (submit_body(constraints=True), "TypeError",
                         "constraints"),
    # a bad knob fails when the Workload is built, not as a job
    "max-depth-zero": (submit_body(max_depth=0), "ValueError", "max_depth"),
    "frame-width-float": (submit_body(frame_width=1.5), "ValueError",
                          "frame_width"),
    "frame-width-bool": (submit_body(frame_width=True), "ValueError",
                         "frame_width"),
    "calibration-one": (submit_body(calibration_windows_per_depth=1),
                        "ValueError", "calibration_windows_per_depth"),
    "calibration-float": (submit_body(calibration_windows_per_depth=2.5),
                          "ValueError", "calibration_windows_per_depth"),
    "calibration-string": (submit_body(calibration_windows_per_depth="2"),
                           "ValueError", "calibration_windows_per_depth"),
    "synthesize-all-string": (submit_body(synthesize_all="yes"),
                              "ValueError", "synthesize_all"),
    "synthesize-all-int": (submit_body(synthesize_all=1), "ValueError",
                           "synthesize_all"),
    "stream-string": (submit_body(stream="yes"), "ValueError", "stream"),
    "stream-int": (submit_body(stream=1), "ValueError", "stream"),
    # a retired backend-name key accepts only the one value the flow runs
    "synthesizer-vivado": (submit_body(synthesizer="vivado"), "ValueError",
                           "synthesizer"),
    "throughput-estimator-int": (submit_body(throughput_estimator=7),
                                 "ValueError", "throughput_estimator"),
    # a key the server does not know is refused, never dropped
    "role": (dict(submit_body(), role="operator"), "ValueError", "'role'"),
    "priority": (dict(submit_body(), priority="batch"), "ValueError",
                 "'priority'"),
    "timeout_s": (dict(submit_body(), timeout_s=60.0), "ValueError",
                  "'timeout_s'"),
}


@pytest.mark.parametrize("body, kind, named", BAD_BODIES.values(),
                         ids=BAD_BODIES.keys())
def test_bad_body_is_a_400_naming_the_field(url, body, kind, named):
    status, payload = post(url, body)
    assert (status, payload["kind"]) == (400, kind)
    assert named in payload["error"]


def test_a_workload_without_the_retired_keys_is_filed(url):
    workload = {key: value for key, value in WORKLOAD.items()
                if key not in ("synthesizer", "area_estimator",
                               "throughput_estimator", "stream_jobs")}
    status, payload = post(url, {"workload": workload})
    assert status == 200, payload


def test_negative_content_length_is_a_400(url):
    host, port = url[len("http://"):].split(":")
    with socket.create_connection((host, int(port)), timeout=2) as conn:
        conn.sendall(b"POST /submit HTTP/1.1\r\nHost: repro\r\n"
                     b"Content-Type: application/json\r\n"
                     b"Content-Length: -1\r\n\r\n")
        # a keep-alive connection: the reply must come without a hang-up
        status_line = conn.makefile("rb").readline()
    assert status_line.split()[1] == b"400"


def mutate(rng):
    """A valid submit body with one field replaced by a drawn value, or
    with one unknown key added."""
    body = {"workload": json.loads(json.dumps(WORKLOAD)), "job": "explore"}
    targets = ([(body, key) for key in list(body)]
               + [(body["workload"], key) for key in WORKLOAD]
               + [(body["workload"]["constraints"], key)
                  for key in WORKLOAD["constraints"]]
               + [(body, None)])
    document, key = rng.choice(targets)
    document[key or "unknown_field"] = rng.choice(VALUES)
    return body


def test_mutated_submit_bodies_answer_200_or_400(url):
    rng = random.Random(SEED)
    outcomes = Counter()
    for _ in range(CASES):
        body = mutate(rng)
        status, payload = post(url, body)
        assert status in (200, 400), (
            f"{status} {payload.get('kind')}: {payload.get('error')}\n"
            f"{json.dumps(body)}")
        outcomes[status] += 1
    # the fuzz exercises both sides: refused and filed bodies
    assert outcomes[200] and outcomes[400]
