"""Server/transport tests: HTTP endpoint, client parity, lifecycle events,
caller waits and non-draining close, graceful shutdown, construction, CLI
submit."""

import hashlib
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api import Session, Workload
from repro.api.cli import main as cli_main
from repro.fleet import FleetRouter
from repro.service import (
    JobCancelledError,
    JobHandle,
    JobTimeoutError,
    ReproClient,
    ReproServer,
    ServiceClosedError,
    ServiceError,
    UnknownJobError,
)

SMALL = dict(iterations=4, window_sides=(1, 2, 3), max_depth=2,
             max_cones_per_depth=3, frame_width=320, frame_height=240)


def workload(name="blur", **overrides):
    return Workload.from_algorithm(name, **{**SMALL, **overrides})


def digest(result):
    return hashlib.sha256(json.dumps(result.to_dict(),
                                     sort_keys=True).encode()).hexdigest()


@pytest.fixture()
def http_server():
    server = ReproServer()
    host, port = server.serve_http("127.0.0.1", 0)
    yield server, f"http://{host}:{port}"
    server.close(drain=False)


class TestHttpTransport:
    def test_submit_result_round_trip_digest_identical(self, http_server):
        _server, url = http_server
        reference_digest = digest(Session().run(workload()))
        client = ReproClient(url)
        handle = client.submit(workload())
        result = handle.result(timeout=60)
        assert digest(result) == reference_digest
        assert handle.status()["state"] == "done"

    def test_http_coalescing_visible_in_receipts(self, http_server):
        server, url = http_server
        client = ReproClient(url)
        # submit twice back-to-back: the second either coalesces (still
        # in flight) or is served from the session cache — both must
        # yield identical digests and the same job semantics
        first = client.submit(workload())
        second = client.submit(workload())
        assert digest(first.result(timeout=60)) == digest(
            second.result(timeout=60))
        assert server.queue.stats_snapshot()["submitted"] == 2

    def test_healthz_stats_and_routes(self, http_server):
        _server, url = http_server
        client = ReproClient(url)
        health = client.healthz()
        assert health["ok"] and health["state"] == "serving"
        stats = client.stats()
        for key in ("state", "queue", "session", "store",
                    "stream", "uptime_s"):
            assert key in stats
        assert stats["store"] is None  # storeless server
        assert stats["stream"]["costs"]["capacity"] >= 1

    def test_unknown_job_and_unknown_route(self, http_server):
        _server, url = http_server
        client = ReproClient(url)
        with pytest.raises(UnknownJobError):
            client.status("job-404")
        request = urllib.request.Request(url + "/no-such-route")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        assert excinfo.value.code == 404

    def test_malformed_submit_is_a_400(self, http_server):
        _server, url = http_server
        request = urllib.request.Request(
            url + "/submit", data=b'{"workload": {"bogus": 1}}',
            method="POST", headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        assert excinfo.value.code == 400

    def test_bad_stream_knob_is_a_400_at_submit(self, http_server):
        server, url = http_server
        payload = dict(workload().to_dict(), stream_jobs=True)
        request = urllib.request.Request(
            url + "/submit", data=json.dumps({"workload": payload}).encode(),
            method="POST", headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        assert excinfo.value.code == 400
        assert "stream_jobs" in json.loads(excinfo.value.read())["error"]
        assert server.queue.stats_snapshot()["submitted"] == 0

    def test_unparsable_c_source_is_a_400_at_submit(self, http_server):
        from repro.algorithms import IGF_C_SOURCE

        server, url = http_server
        bad = IGF_C_SOURCE.replace("for (int y", "for (int y(", 1)
        payload = dict(workload().to_dict(), algorithm=None, c_source=bad)
        request = urllib.request.Request(
            url + "/submit", data=json.dumps({"workload": payload}).encode(),
            method="POST", headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        assert excinfo.value.code == 400
        assert json.loads(excinfo.value.read())["kind"] == "CParseError"
        assert server.queue.stats_snapshot()["submitted"] == 0

    def test_bad_url_scheme_rejected(self):
        with pytest.raises(ValueError):
            ReproClient("ftp://example.org")


class TestLifecycleEvents:
    def test_job_events_stream_through_session_protocol(self):
        events = []
        server = ReproServer(start=False,
                             on_event=lambda event: events.append(event))
        try:
            client = ReproClient(server)
            handle = client.submit(workload())
            client.submit(workload())  # coalesces
            server.start()
            handle.result(timeout=60)
            kinds = [event.kind for event in events]
            assert "job-queued" in kinds
            assert "job-coalesced" in kinds
            assert "job-started" in kinds
            assert "job-finished" in kinds
            # the session's own stage events ride the same callback
            assert "stage-finished" in kinds
            queued = next(e for e in events if e.kind == "job-queued")
            assert queued.detail == handle.id
        finally:
            server.close(drain=False)


class TestWaitsAndCancellation:
    def test_an_expired_wait_leaves_the_job_in_flight(self):
        server = ReproServer(start=False)  # nothing runs until start()
        try:
            client = ReproClient(server)
            handle = client.submit(workload())
            with pytest.raises(JobTimeoutError):
                handle.result(timeout=0.05)
            assert handle.status()["state"] == "queued"
            server.start()
            assert handle.result(timeout=60).design_points
        finally:
            server.close(drain=False)

    def test_close_without_drain_cancels_every_queued_job(self):
        server = ReproServer(start=False)
        client = ReproClient(server)
        handles = [client.submit(workload(frame_width=256 + 16 * i))
                   for i in range(3)]
        errors = []

        def wait(handle):
            try:
                handle.result(timeout=30)
            except Exception as error:
                errors.append(error)

        waiters = [threading.Thread(target=wait, args=(handle,))
                   for handle in handles]
        for waiter in waiters:
            waiter.start()
        server.close(drain=False)
        for waiter in waiters:
            waiter.join(timeout=30)
        assert len(errors) == 3
        assert all(isinstance(error, JobCancelledError) for error in errors)
        assert [handle.status()["state"] for handle in handles] \
            == ["cancelled"] * 3
        assert server.stats()["queue"]["cancelled"] == 3

    def test_the_cancel_verb_is_gone(self):
        for owner in (ReproServer, ReproClient, JobHandle, FleetRouter):
            assert not hasattr(owner, "cancel"), owner


class TestGracefulShutdown:
    def test_drain_completes_queued_work(self):
        server = ReproServer(start=False)
        client = ReproClient(server)
        handles = [client.submit(workload(frame_width=256 + 16 * i))
                   for i in range(3)]
        server.start()
        server.close(drain=True)
        for handle in handles:
            assert handle.result(timeout=5).design_points
        assert server.healthz()["state"] == "stopped"

    def test_submissions_rejected_while_draining(self):
        server = ReproServer()
        server.close(drain=True)
        with pytest.raises(ServiceClosedError):
            server.submit(workload())

    def test_http_shutdown_drains_and_stops_listener(self, http_server):
        server, url = http_server
        client = ReproClient(url)
        handle = client.submit(workload())
        assert client.shutdown(drain=True)["ok"]
        # the in-flight job still completes during the drain
        assert server.queue.job(handle.id).wait(30)
        server.close()
        with pytest.raises(ServiceError):
            ReproClient(url).healthz()

    def test_context_manager_closes(self):
        with ReproServer() as server:
            assert ReproClient(server).healthz()["ok"]
        assert server.healthz()["state"] == "stopped"


class TestConstruction:
    def test_cli_serve_builds_a_server_from_its_flags(self, monkeypatch):
        # drive cmd_serve on a thread (it blocks in server.wait()) and
        # capture the server it built once it is listening
        built = {}
        original_serve = ReproServer.serve_http

        def capture_serve(self, host, port):
            address = original_serve(self, host, port)
            built["server"] = self
            return address

        monkeypatch.setattr(ReproServer, "serve_http", capture_serve)
        thread = threading.Thread(
            target=cli_main,
            args=(["serve", "--port", "0", "--quiet", "--max-pending", "4",
                   "--worker-id", "worker-7"],),
            daemon=True)
        thread.start()
        deadline = time.monotonic() + 30
        while "server" not in built and time.monotonic() < deadline:
            time.sleep(0.02)
        assert "server" in built, "serve CLI never bound its port"
        try:
            stats = built["server"].stats()
            assert stats["queue"]["max_pending"] == 4
            assert stats["worker_id"] == "worker-7"
        finally:
            built["server"].initiate_shutdown(drain=False)
            thread.join(timeout=30)
        assert not thread.is_alive()

    def test_session_and_store_are_mutually_exclusive(self):
        with pytest.raises(ValueError):
            ReproServer(session=Session(), store="/tmp/somewhere",
                        start=False)


class TestCliSubmit:
    def test_cli_submit_against_live_server(self, http_server, capsys):
        _server, url = http_server
        status = cli_main([
            "submit", "blur", "--server", url, "--frame", "320x240",
            "--iterations", "4", "--windows", "1,2,3", "--max-depth", "2",
            "--max-cones", "3", "--json",
        ])
        assert status == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exploration"]["design_points"]

    def test_cli_submit_no_wait_prints_job_id(self, http_server, capsys):
        _server, url = http_server
        status = cli_main([
            "submit", "blur", "--server", url, "--frame", "320x240",
            "--iterations", "4", "--windows", "1,2,3", "--max-depth", "2",
            "--max-cones", "3", "--no-wait",
        ])
        assert status == 0
        assert capsys.readouterr().out.strip().startswith("job-")

    def test_cli_submit_unreachable_server_fails_cleanly(self, capsys):
        status = cli_main([
            "submit", "blur", "--server", "http://127.0.0.1:9",
            "--frame", "320x240", "--iterations", "4",
        ])
        assert status == 1
        assert "cannot reach" in capsys.readouterr().err
