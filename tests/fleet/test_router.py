"""Fleet router tests: digest identity across fleet sizes and submission
orders, cross-worker store warming, failover replay, load shedding with
client retry recovery, aggregation, HTTP transport, CLI."""

import hashlib
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api import Session, Workload
from repro.fleet import FleetRouter
from repro.fleet import router as router_module
from repro.fleet.membership import build_member
from repro.service import (
    FleetOverloadedError,
    QueueFullError,
    ReproClient,
    ReproServer,
    UnknownJobError,
)

SMALL = dict(iterations=4, window_sides=(1, 2, 3), max_depth=2,
             max_cones_per_depth=3, frame_width=320, frame_height=240)

# chosen so the size-2 ring splits them across both workers (jacobi owns
# a worker-1 segment; the other three hash to worker-0)
NAMES = ["blur", "erode", "dilate", "jacobi"]


def workload(name="blur", **overrides):
    return Workload.from_algorithm(name, **{**SMALL, **overrides})


def digest(result):
    return hashlib.sha256(json.dumps(result.to_dict(),
                                     sort_keys=True).encode()).hexdigest()


@pytest.fixture(scope="module")
def reference_digests(tmp_path_factory):
    """Direct Session.run digests (and a warmed store all fleet tests
    reuse, so each workload synthesizes exactly once per module)."""
    store = tmp_path_factory.mktemp("fleet-store")
    session = Session(store=store)
    return store, {name: digest(session.run(workload(name)))
                   for name in NAMES}


class TestDigestIdentity:
    @pytest.mark.parametrize("size,order", [
        (1, NAMES),
        (2, list(reversed(NAMES))),
        (4, [NAMES[2], NAMES[0], NAMES[3], NAMES[1]]),
    ])
    def test_fleet_matches_direct_session_at_any_size_and_order(
            self, reference_digests, size, order):
        store, reference = reference_digests
        with FleetRouter.local(size, store=store,
                               healthcheck_interval_s=0) as fleet:
            client = ReproClient(fleet)
            handles = [(name, client.submit(workload(name)))
                       for name in order]
            for name, handle in handles:
                assert digest(handle.result(timeout=120)) \
                    == reference[name]

    def test_placement_is_deterministic_across_fleets(self, tmp_path):
        # two independent same-shape fleets place every key identically,
        # and on >1 worker (the ring genuinely spreads this key set)
        placements = []
        for _ in range(2):
            with FleetRouter.local(4, store=tmp_path,
                                   healthcheck_interval_s=0) as fleet:
                client = ReproClient(fleet)
                placements.append(
                    {name: client.submit(workload(name)).status()["worker"]
                     for name in NAMES})
        assert placements[0] == placements[1]
        assert len(set(placements[0].values())) > 1

    def test_same_key_lands_on_one_worker_and_coalesces(self, tmp_path):
        # paused workers: submissions queue deterministically
        with FleetRouter.local(2, store=tmp_path,
                               healthcheck_interval_s=0,
                               start=False) as fleet:
            client = ReproClient(fleet)
            first = client.submit(workload())
            second = client.submit(workload())
            assert not first.coalesced and second.coalesced
            assert fleet.status(first.id)["worker"] \
                == fleet.status(second.id)["worker"]
            for member in fleet.membership.all():
                member.server.start()
            assert digest(first.result(timeout=120)) \
                == digest(second.result(timeout=120))


class TestStoreWarming:
    def test_worker_b_serves_worker_a_synthesis_from_disk(self, tmp_path):
        target = workload("erode")
        # "worker A": a direct store-backed session synthesizes once
        warm_session = Session(store=tmp_path)
        reference = digest(warm_session.run(target))
        assert warm_session.stats.synthesis_runs > 0
        # "worker B": every fleet worker shares the same store; whichever
        # owns the key serves the characterization from disk
        with FleetRouter.local(2, store=tmp_path,
                               healthcheck_interval_s=0) as fleet:
            client = ReproClient(fleet)
            assert digest(client.run(target, timeout=120)) == reference
            stats = fleet.stats()
            assert stats["store_shared"] is True
            assert stats["aggregate"]["synthesis_runs"] == 0
            assert stats["aggregate"]["store_disk_hits"] >= 1
            owner = [entry for entry in stats["workers"].values()
                     if entry["jobs_routed"] == 1]
            assert len(owner) == 1
            assert owner[0]["stats"]["session"]["store_disk_hits"] >= 1
            assert owner[0]["stats"]["session"]["synthesis_runs"] == 0


class TestFailover:
    def test_killing_a_worker_mid_burst_loses_zero_jobs(
            self, reference_digests):
        store, reference = reference_digests
        with FleetRouter.local(2, store=store, healthcheck_interval_s=0,
                               start=False) as fleet:
            client = ReproClient(fleet)
            handles = {name: client.submit(workload(name))
                       for name in NAMES}
            by_worker = {}
            for name, handle in handles.items():
                by_worker.setdefault(
                    fleet.status(handle.id)["worker"], []).append(name)
            assert len(by_worker) == 2, (
                "test needs both workers owning jobs; placement census: "
                f"{by_worker}")
            victim = max(by_worker, key=lambda w: len(by_worker[w]))
            survivor = next(w for w in by_worker if w != victim)
            fleet.membership.get(survivor).server.start()
            # kill the victim with its jobs still queued
            fleet.membership.get(victim).server.close(drain=False)
            swept = fleet.check_workers()
            assert swept["newly_dead"] == [victim]
            # zero jobs lost: every result arrives, digest-identical
            for name, handle in handles.items():
                assert digest(handle.result(timeout=120)) \
                    == reference[name]
            stats = fleet.stats()
            assert stats["router"]["replays"] >= len(by_worker[victim])
            assert stats["membership"]["deaths"] == 1
            # only the victim's jobs moved: the survivor's jobs never
            # changed worker (the consistent-hash rebalance guarantee)
            for name in by_worker[survivor]:
                assert fleet.status(handles[name].id)["worker"] == survivor
            for name in by_worker[victim]:
                assert fleet.status(handles[name].id)["worker"] == survivor

    def test_result_waiter_replays_without_a_healthcheck_sweep(
            self, reference_digests):
        # no check_workers() call: the chunked result() wait itself
        # notices the death, probes, and replays
        store, reference = reference_digests
        with FleetRouter.local(2, store=store, healthcheck_interval_s=0,
                               start=False) as fleet:
            client = ReproClient(fleet)
            handle = client.submit(workload())
            victim = fleet.status(handle.id)["worker"]
            survivor = next(m.name for m in fleet.membership.all()
                            if m.name != victim)
            fleet.membership.get(survivor).server.start()
            fleet.membership.get(victim).server.close(drain=False)
            assert digest(handle.result(timeout=120)) \
                == reference["blur"]

    def test_all_workers_dead_sheds_with_retry_after(self, tmp_path):
        with FleetRouter.local(1, store=tmp_path,
                               healthcheck_interval_s=0) as fleet:
            fleet.membership.mark_dead("worker-0")
            with pytest.raises(QueueFullError) as caught:
                fleet.submit(workload())
            assert caught.value.retry_after_s > 0


class TestLoadShedding:
    def test_saturated_worker_sheds_and_client_retry_recovers(
            self, reference_digests):
        store, reference = reference_digests
        with FleetRouter.local(1, store=store, max_pending=1,
                               healthcheck_interval_s=0,
                               start=False) as fleet:
            blocker = ReproClient(fleet, retries=0).submit(workload())
            # the queue is full; a no-retry client sees the raw shed
            with pytest.raises(QueueFullError) as caught:
                ReproClient(fleet, retries=0).submit(workload("erode"))
            assert caught.value.retry_after_s > 0
            shed_before = fleet.stats()["aggregate"]["shed"]
            assert shed_before >= 1

            # a retrying client recovers once the worker drains
            retrying = ReproClient(fleet, retries=6,
                                   backoff_base_s=0.05,
                                   backoff_cap_s=0.2)
            unblock = threading.Timer(
                0.15, fleet.membership.get("worker-0").server.start)
            unblock.start()
            try:
                handle = retrying.submit(workload("erode"))
            finally:
                unblock.join()
            assert digest(handle.result(timeout=120)) \
                == reference["erode"]
            assert digest(blocker.result(timeout=120)) \
                == reference["blur"]

    def test_retry_budget_exhaustion_is_typed(self, tmp_path):
        with FleetRouter.local(1, store=tmp_path, max_pending=1,
                               healthcheck_interval_s=0,
                               start=False) as fleet:
            ReproClient(fleet, retries=0).submit(workload())
            impatient = ReproClient(fleet, retries=2,
                                    backoff_base_s=0.01,
                                    backoff_cap_s=0.02)
            with pytest.raises(FleetOverloadedError):
                impatient.submit(workload("erode"))
            # never started: drop the queued job instead of draining
            fleet.close(drain=False)


class TestJobSnapshots:
    def test_snapshots_carry_no_scheduling_fields(self, tmp_path):
        with FleetRouter.local(1, store=tmp_path,
                               healthcheck_interval_s=0,
                               start=False) as fleet:
            handle = ReproClient(fleet).submit(workload())
            status = fleet.status(handle.id)
            assert status["worker_status"]["state"] == "queued"
            for view in (status, status["worker_status"]):
                assert not {"priority", "timeout_s", "requesters"} & set(view)
            assert "cancelled" not in fleet.stats()["router"]
            fleet.close(drain=False)


class TestMemberSnapshots:
    """A member is in-process exactly when it has no URL, however it was
    specified."""

    def test_a_client_over_an_in_process_server_is_in_process(self):
        server = ReproServer(start=False)
        try:
            with FleetRouter([ReproClient(server)],
                             healthcheck_interval_s=0) as fleet:
                snapshot = fleet.membership.get("worker-0").snapshot()
        finally:
            server.close(drain=False)
        assert snapshot["url"] is None and snapshot["in_process"]

    def test_a_local_worker_is_in_process(self, tmp_path):
        with FleetRouter.local(1, store=tmp_path, healthcheck_interval_s=0,
                               start=False) as fleet:
            snapshot = fleet.membership.get("worker-0").snapshot()
            fleet.close(drain=False)
        assert snapshot["url"] is None and snapshot["in_process"]

    def test_a_url_member_is_remote(self):
        snapshot = build_member("http://127.0.0.1:9/", 0).snapshot()
        assert snapshot["url"] == "http://127.0.0.1:9"
        assert not snapshot["in_process"]


class TestHttpFleet:
    @pytest.fixture()
    def http_fleet(self, reference_digests):
        store, reference = reference_digests
        fleet = FleetRouter.local(2, store=store,
                                  healthcheck_interval_s=0)
        host, port = fleet.serve_http("127.0.0.1", 0)
        yield fleet, f"http://{host}:{port}", reference
        fleet.close(drain=False)

    def test_http_round_trip_digest_identical(self, http_fleet):
        _fleet, url, reference = http_fleet
        client = ReproClient(url)
        assert digest(client.run(workload(), timeout=120)) \
            == reference["blur"]

    def test_http_unparsable_c_source_is_a_400(self, http_fleet):
        from repro.algorithms import IGF_C_SOURCE

        _fleet, url, _reference = http_fleet
        bad = IGF_C_SOURCE.replace("for (int y", "for (int y(", 1)
        payload = dict(workload().to_dict(), algorithm=None, c_source=bad)
        request = urllib.request.Request(
            url + "/submit", data=json.dumps({"workload": payload}).encode(),
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(request, timeout=10)
        assert caught.value.code == 400
        assert json.loads(caught.value.read())["kind"] == "CParseError"

    def test_http_shed_carries_503_and_retry_after(self, tmp_path):
        with FleetRouter.local(1, store=tmp_path, max_pending=1,
                               healthcheck_interval_s=0,
                               start=False) as fleet:
            host, port = fleet.serve_http("127.0.0.1", 0)
            url = f"http://{host}:{port}"
            ReproClient(url, retries=0).submit(workload())
            body = json.dumps(
                {"workload": workload("erode").to_dict()}).encode()
            request = urllib.request.Request(
                url + "/submit", data=body,
                headers={"Content-Type": "application/json"})
            with pytest.raises(urllib.error.HTTPError) as caught:
                urllib.request.urlopen(request, timeout=10)
            assert caught.value.code == 503
            assert float(caught.value.headers["Retry-After"]) >= 1
            payload = json.loads(caught.value.read().decode())
            assert payload["kind"] == "QueueFullError"
            assert payload["retry_after_s"] > 0
            fleet.close(drain=False)

    def test_stats_and_healthz_and_metrics_aggregate(self, http_fleet):
        fleet, url, _reference = http_fleet
        ReproClient(url).run(workload(), timeout=120)
        stats = ReproClient(url).stats()
        assert stats["router"]["routed"] >= 1
        assert stats["membership"]["workers_alive"] == 2
        assert set(stats["workers"]) == {"worker-0", "worker-1"}
        assert stats["aggregate"]["completed"] >= 1
        assert stats["store_shared"] is True
        health = ReproClient(url).healthz()
        assert health["ok"] and health["workers_alive"] == 2
        text = ReproClient(url).metrics()
        # routed jobs are a lifetime total: typed counter, not gauge
        assert "# TYPE repro_fleet_router_routed counter" in text
        assert "repro_fleet_membership_workers_alive 2" in text
        # per-worker queue gauges flatten into the same exposition
        assert "repro_fleet_workers_worker_0_stats_queue_submitted" in text

    def test_worker_metrics_endpoint(self, http_fleet):
        fleet, _url, _reference = http_fleet
        worker = fleet.membership.get("worker-0")
        text = worker.client.metrics()
        assert "# TYPE repro_queue_submitted counter" in text
        assert "repro_uptime_s" in text


class TestJobTable:
    def test_uncollected_submissions_do_not_grow_the_table(
            self, monkeypatch):
        """The table is bounded in submission order whatever the state, so
        fire-and-forget submissions (``submit --no-wait``) cannot pile up
        as ``routed`` entries."""
        monkeypatch.setattr(router_module, "HISTORY_LIMIT", 4)
        with FleetRouter.local(1, healthcheck_interval_s=0) as fleet:
            receipts = [fleet.submit(workload(frame_width=64 + 8 * index))
                        for index in range(4 + 5)]
            assert len(fleet._jobs) == 4
            newest = fleet.result(receipts[-1]["job_id"], timeout=60)
            assert digest(newest) == digest(Session().run(
                workload(frame_width=64 + 8 * 8)))
            with pytest.raises(UnknownJobError):
                fleet.result(receipts[0]["job_id"], timeout=60)


class TestRegistration:
    def test_handshake_records_both_sides(self, tmp_path):
        with FleetRouter.local(2, store=tmp_path,
                               healthcheck_interval_s=0) as fleet:
            for member in fleet.membership.all():
                assert member.registration["ok"]
                assert member.registration["worker_id"] == member.name
                worker_stats = member.server.stats()
                assert worker_stats["fleet"]["member_name"] == member.name
            assert fleet.stats()["store_shared"] is True

    def test_worker_announce_joins_a_running_router(self, tmp_path):
        from repro.service import ReproServer
        with FleetRouter.local(1, store=tmp_path,
                               healthcheck_interval_s=0) as fleet:
            worker = ReproServer(store=tmp_path, worker_id="late-worker")
            try:
                host, port = worker.serve_http("127.0.0.1", 0)
                reply = fleet.register(
                    {"url": f"http://{host}:{port}",
                     "name": "late-worker"})
                assert reply["ok"] and reply["workers_total"] == 2
                assert "late-worker" in fleet.membership.ring
                assert fleet.membership.get(
                    "late-worker").registration["worker_id"] \
                    == "late-worker"
            finally:
                worker.close(drain=False)

    def test_a_worker_reannounced_at_a_new_url_is_routed_there(
            self, reference_digests):
        # a worker restarted with `serve --port 0 --worker-id w --announce`
        # comes back on another port; the router used to revive it at its
        # old, dead address
        from repro.service import ReproServer
        store, reference = reference_digests
        fleet = FleetRouter(healthcheck_interval_s=0, close_workers=False)
        first = ReproServer(store=store, worker_id="w")
        second = ReproServer(store=store, worker_id="w")
        try:
            old_url = "http://{}:{}".format(*first.serve_http("127.0.0.1", 0))
            assert fleet.register({"url": old_url, "name": "w"})["ok"]
            ring = list(fleet.membership.ring.members)
            # bound while the first still holds its port, so they differ
            new_url = "http://{}:{}".format(
                *second.serve_http("127.0.0.1", 0))
            first.close(drain=False)
            reply = fleet.register({"url": new_url + "/", "name": "w"})
            assert reply["ok"] and reply["workers_total"] == 1
            member = fleet.membership.get("w")
            assert member.url == new_url
            assert member.registration["worker_id"] == "w"
            assert list(fleet.membership.ring.members) == ring
            receipt = fleet.submit(workload("blur"))
            assert receipt["worker"] == "w"
            result = fleet.result(receipt["job_id"], timeout=60)
            assert digest(result) == reference["blur"]
            assert member.alive
        finally:
            fleet.close(drain=False)
            first.close(drain=False)
            second.close(drain=False)

    def test_a_url_announcement_naming_an_in_process_member_is_refused(
            self, tmp_path):
        with FleetRouter.local(1, store=tmp_path,
                               healthcheck_interval_s=0) as fleet:
            announcement = {"url": "http://127.0.0.1:9", "name": "worker-0"}
            with pytest.raises(ValueError, match="in-process"):
                fleet.register(announcement)
            host, port = fleet.serve_http("127.0.0.1", 0)
            request = urllib.request.Request(
                f"http://{host}:{port}/register",
                data=json.dumps(announcement).encode(),
                headers={"Content-Type": "application/json"})
            with pytest.raises(urllib.error.HTTPError) as caught:
                urllib.request.urlopen(request, timeout=10)
            assert caught.value.code == 400
            member = fleet.membership.get("worker-0")
            assert member.url is None and member.alive

    def test_registration_requires_a_url(self, tmp_path):
        with FleetRouter.local(1, store=tmp_path,
                               healthcheck_interval_s=0) as fleet:
            with pytest.raises(ValueError, match="url"):
                fleet.register({"name": "nameless"})


class TestConstructionAndCli:
    def test_router_fronts_a_server_object(self, tmp_path):
        from repro.service import ReproServer
        worker = ReproServer(store=tmp_path)
        router = FleetRouter([worker], healthcheck_interval_s=0)
        try:
            assert router.healthz()["ok"]
        finally:
            router.close(drain=False)

    def test_cli_fleet_and_submit_round_trip(self, reference_digests,
                                             capsys, monkeypatch):
        from repro.api.cli import main as cli_main
        from repro.api.results import FlowResult

        store, reference = reference_digests
        # drive cmd_fleet on a thread (it blocks in router.wait());
        # capture the ephemeral binding through serve_http
        bound = {}
        original_serve = FleetRouter.serve_http

        def capture_serve(self, host, port):
            address = original_serve(self, host, port)
            bound["url"] = "http://{}:{}".format(*address)
            return address

        monkeypatch.setattr(FleetRouter, "serve_http", capture_serve)
        thread = threading.Thread(
            target=cli_main,
            args=(["fleet", "--workers", "2", "--port", "0",
                   "--store", str(store),
                   "--healthcheck-interval", "0"],),
            daemon=True)
        thread.start()
        deadline = time.monotonic() + 30
        while "url" not in bound and time.monotonic() < deadline:
            time.sleep(0.02)
        assert "url" in bound, "fleet CLI never bound its port"
        capsys.readouterr()  # drop the CLI's startup banner
        try:
            code = cli_main([
                "submit", "blur", "--fleet", bound["url"],
                "--frame", "320x240", "--iterations", "4",
                "--windows", "1,2,3", "--max-depth", "2",
                "--max-cones", "3", "--json"])
            assert code == 0
            payload = json.loads(capsys.readouterr().out)
            assert digest(FlowResult.from_dict(payload)) \
                == reference["blur"]
        finally:
            ReproClient(bound["url"]).shutdown(drain=False)
            thread.join(timeout=30)
        assert not thread.is_alive()
