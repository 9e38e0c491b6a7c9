"""One endpoint lifecycle, shared by a worker and a fleet router.

Both classes inherit the listener, ``/trace``, ``/metrics`` and the
shutdown sequence from :class:`repro.service.server.JobEndpoint`, so every
check here runs against a worker and against a one-worker router.  The
``serve`` and ``fleet`` commands share one foreground loop, checked by
sending SIGTERM to real processes.
"""

import importlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request

import pytest

import repro.service
from repro.api import Workload
from repro.fleet import FleetRouter
from repro.service import JobCancelledError, ReproServer, ServiceClosedError
from repro.service import server as server_module

SMALL = dict(iterations=2, window_sides=(1, 2), max_depth=2,
             max_cones_per_depth=2, frame_width=64, frame_height=48)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src")


#: How to build each endpoint, the name of its listener thread, and two
#: ``/metrics`` families it serves: the lifecycle's own ``uptime_s`` and
#: one of its class's counters.
ENDPOINTS = {
    "worker": (lambda: ReproServer(), "repro-service-http",
               ("repro_uptime_s", "repro_queue_submitted")),
    "router": (lambda: FleetRouter.local(1, healthcheck_interval_s=0),
               "repro-fleet-http",
               ("repro_fleet_uptime_s", "repro_fleet_router_routed")),
}


@pytest.fixture(params=sorted(ENDPOINTS))
def kind(request):
    return request.param


def wait_until_stopped(endpoint, timeout=10.0):
    deadline = time.monotonic() + timeout
    while endpoint.healthz()["state"] != "stopped":
        assert time.monotonic() < deadline, endpoint.healthz()
        time.sleep(0.01)


def listener_threads(kind):
    return [thread for thread in threading.enumerate()
            if thread.name == ENDPOINTS[kind][1]]


class TestLifecycle:
    def test_with_closes_it_and_a_second_close_is_a_no_op(self, kind):
        with ENDPOINTS[kind][0]() as endpoint:
            assert endpoint.healthz()["state"] == "serving"
        assert endpoint.healthz()["state"] == "stopped"
        endpoint.close()
        endpoint.close(drain=False)
        assert endpoint.healthz()["state"] == "stopped"
        assert endpoint.wait(0)

    def test_initiate_shutdown_returns_at_once_and_stops(self, kind):
        endpoint = ENDPOINTS[kind][0]()
        try:
            assert not endpoint.wait(0)
            started = time.monotonic()
            endpoint.initiate_shutdown()
            assert time.monotonic() - started < 1.0
            assert endpoint.wait(5)
            assert endpoint.healthz()["state"] in ("draining", "stopped")
            wait_until_stopped(endpoint)
        finally:
            endpoint.close(drain=False)

    def test_serve_http_binds_once_and_serves_trace_and_metrics(self,
                                                                kind):
        endpoint = ENDPOINTS[kind][0]()
        try:
            host, port = endpoint.serve_http("127.0.0.1", 0)
            assert endpoint.serve_http("127.0.0.1", 0) == (host, port)
            url = f"http://{host}:{port}"
            with urllib.request.urlopen(f"{url}/trace", timeout=10) as reply:
                assert reply.status == 200
                assert {"traces", "store"} <= set(json.load(reply))
            with urllib.request.urlopen(f"{url}/metrics",
                                        timeout=10) as reply:
                assert reply.status == 200
                text = reply.read().decode()
            for family in ENDPOINTS[kind][2]:
                assert f"\n{family} " in text, family
            assert endpoint.stats()["http_address"] == url
        finally:
            endpoint.close(drain=False)

    @pytest.mark.parametrize("shutdown", ["close", "initiate_shutdown"])
    def test_serve_http_after_a_shutdown_binds_nothing(self, kind,
                                                      shutdown):
        endpoint = ENDPOINTS[kind][0]()
        try:
            getattr(endpoint, shutdown)()
            wait_until_stopped(endpoint)
            before = listener_threads(kind)
            with pytest.raises(ServiceClosedError):
                endpoint.serve_http("127.0.0.1", 0)
            assert endpoint.stats()["http_address"] is None
            assert listener_threads(kind) == before
        finally:
            endpoint.close(drain=False)


class TestDrainBeforeStart:
    """A worker built with ``start=False`` holds its jobs queued until it
    starts; a draining shutdown runs them before the worker stops, and a
    cancelling one cancels them."""

    @staticmethod
    def paused_worker_with_a_job():
        server = ReproServer(start=False)
        receipt = server.submit(Workload.from_algorithm("blur", **SMALL))
        assert server.status(receipt["job_id"])["state"] == "queued"
        return server, receipt["job_id"]

    @pytest.mark.parametrize("shutdown", ["close", "initiate_shutdown"])
    def test_a_drain_runs_the_backlog_of_a_worker_never_started(
            self, shutdown):
        server, job_id = self.paused_worker_with_a_job()
        try:
            getattr(server, shutdown)()
            wait_until_stopped(server)
            assert server.status(job_id)["state"] == "done"
            assert server.result(job_id, timeout=0).pareto
        finally:
            server.close(drain=False)

    @pytest.mark.parametrize("shutdown", ["close", "initiate_shutdown"])
    def test_a_cancelling_shutdown_cancels_it(self, shutdown):
        server, job_id = self.paused_worker_with_a_job()
        try:
            getattr(server, shutdown)(drain=False)
            wait_until_stopped(server)
            assert server.status(job_id)["state"] == "cancelled"
            with pytest.raises(JobCancelledError):
                server.result(job_id, timeout=0)
        finally:
            server.close(drain=False)


class TestSigterm:
    @pytest.mark.parametrize("arguments, stopped", [
        (["serve", "--port", "0", "--quiet"], "repro service stopped"),
        (["fleet", "--workers", "1", "--port", "0"], "repro fleet stopped"),
    ], ids=["serve", "fleet"])
    def test_sigterm_drains_and_exits_zero(self, arguments, stopped):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", *arguments], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        # readline() has no timeout: a hung child is killed, ending it
        watchdog = threading.Timer(60, process.kill)
        watchdog.start()
        try:
            banner = process.stdout.readline()
            assert " listening on http://127.0.0.1:" in banner
            process.send_signal(signal.SIGTERM)
            _out, err = process.communicate(timeout=60)
        finally:
            watchdog.cancel()
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, err
        assert stopped in err


class TestRemovedNames:
    def test_the_scheduler_class_is_gone(self):
        assert not hasattr(repro.service, "Scheduler")
        assert "Scheduler" not in repro.service.__all__
        with pytest.raises(ImportError):
            importlib.import_module("repro.service.scheduler")
        assert not hasattr(ReproServer, "scheduler")

    def test_the_endpoint_helper_is_gone(self):
        assert not hasattr(server_module, "start_http_endpoint")

    def test_router_close_takes_no_close_workers(self):
        router = FleetRouter(healthcheck_interval_s=0, close_workers=False)
        try:
            with pytest.raises(TypeError, match="close_workers"):
                router.close(close_workers=False)
        finally:
            router.close()
