"""Propagation-edge tests: spans must stay connected across every hop —
HTTP (client -> server header), the service dispatch thread, and the full
fleet path (submit -> route -> job -> dispatch -> stages -> stream fold) —
while digests stay bit-identical with tracing on."""

import hashlib
import json
import time
import urllib.request

import pytest

from repro.api import Session, Workload
from repro.dse.explorer import DesignSpaceExplorer
from repro.dse.stream import explore_stream
from repro.fleet.router import FleetRouter
from repro.ir.operators import DataFormat
from repro.obs import trace
from repro.service import ReproClient, ReproServer, UnknownJobError

SMALL = dict(iterations=4, window_sides=(1, 2, 3), max_depth=2,
             max_cones_per_depth=3, frame_width=320, frame_height=240)


def workload(name="blur", **overrides):
    return Workload.from_algorithm(name, **{**SMALL, **overrides})


def digest(result):
    return hashlib.sha256(json.dumps(result.to_dict(),
                                     sort_keys=True).encode()).hexdigest()


def serialized_points(points):
    return json.dumps([p.to_dict() for p in points], sort_keys=True)


def wait_for_spans(trace_id, predicate, timeout=10.0):
    """Spans land asynchronously (job spans finish on the dispatcher
    thread); poll the global store until the predicate holds."""
    deadline = time.monotonic() + timeout
    spans = trace.global_store().get(trace_id) or []
    while not predicate(spans) and time.monotonic() < deadline:
        time.sleep(0.05)
        spans = trace.global_store().get(trace_id) or []
    return spans


@pytest.fixture()
def http_server():
    server = ReproServer()
    host, port = server.serve_http("127.0.0.1", 0)
    yield server, f"http://{host}:{port}"
    server.close(drain=False)


@pytest.fixture(scope="module")
def stream_inputs(igf_kernel):
    explorer = DesignSpaceExplorer(
        igf_kernel, data_format=DataFormat.FIXED16,
        window_sides=(1, 2, 3, 4), max_depth=3,
        max_cones_per_depth=6, synthesize_all=True)
    characterizations, _ = explorer.characterize_cones(6)
    space = explorer._space(6)
    usable = explorer.device.usable_capacity.luts
    return explorer, space, characterizations, usable


class TestHttpPropagation:
    def test_submit_joins_the_callers_trace_over_http(self, http_server):
        _server, url = http_server  # construction auto-enabled tracing
        client = ReproClient(url)
        with trace.span("cli.submit") as root:
            handle = client.submit(workload())
            handle.result(timeout=120)
        # the receipt's trace id IS the caller's: one connected trace
        assert handle.trace_id == root.trace_id
        spans = wait_for_spans(
            root.trace_id,
            lambda spans: {"service.job", "scheduler.dispatch"}
            <= {s["name"] for s in spans})
        names = {s["name"] for s in spans}
        assert {"cli.submit", "service.job", "scheduler.dispatch",
                "session.run"} <= names
        assert any(name.startswith("stage.") for name in names)
        assert all(s["trace_id"] == root.trace_id for s in spans)
        payload = client.trace(root.trace_id)  # GET /trace/<id>
        assert payload["trace_id"] == root.trace_id
        assert {s["span_id"] for s in payload["spans"]} \
            == {s["span_id"] for s in spans}

    def test_malformed_headers_degrade_to_fresh_roots_never_500(
            self, http_server):
        _server, url = http_server
        body = json.dumps({"workload": workload().to_dict()}).encode()
        seen = set()
        for bad in ("garbage", "a-b", "Z" * 32 + "-" + "Z" * 16,
                    "0" * 31 + "-" + "0" * 16):
            request = urllib.request.Request(
                url + "/submit", data=body,
                headers={"Content-Type": "application/json",
                         trace.TRACE_HEADER: bad})
            with urllib.request.urlopen(request, timeout=30) as response:
                assert response.status == 200
                receipt = json.loads(response.read().decode())
            # a fresh root trace, not the garbage id and not an error
            assert receipt["trace_id"]
            int(receipt["trace_id"], 16)
            seen.add(receipt["trace_id"])
        ReproClient(url).result(receipt["job_id"], timeout=120)

    def test_absent_header_still_yields_a_server_side_trace(
            self, http_server):
        _server, url = http_server
        assert not trace.context_payload()  # client context is empty
        handle = ReproClient(url).submit(workload())
        handle.result(timeout=120)
        assert handle.trace_id is not None
        spans = wait_for_spans(
            handle.trace_id,
            lambda spans: "service.job" in {s["name"] for s in spans})
        assert "service.job" in {s["name"] for s in spans}

    def test_each_queued_job_dispatches_in_its_own_trace(self):
        server = ReproServer(start=False)
        try:
            client = ReproClient(server)
            roots, handles = [], []
            for name in ("blur", "jacobi"):
                with trace.span(f"root.{name}") as root:
                    handles.append(client.submit(workload(name)))
                roots.append(root)
            server.start()
            for handle in handles:
                handle.result(timeout=120)
        finally:
            server.close(drain=False)
        required = {"service.job", "scheduler.dispatch", "session.run"}
        for root in roots:
            spans = wait_for_spans(
                root.trace_id,
                lambda spans: required <= {s["name"] for s in spans})
            names = [s["name"] for s in spans]
            assert required <= set(names)
            assert names.count("scheduler.dispatch") == 1
            assert names.count("session.run") == 1

    def test_trace_index_and_unknown_trace(self, http_server):
        _server, url = http_server
        client = ReproClient(url)
        handle = client.submit(workload())
        handle.result(timeout=120)
        wait_for_spans(handle.trace_id, lambda spans: bool(spans))
        index = client.trace()
        assert handle.trace_id in {entry["trace_id"]
                                   for entry in index["traces"]}
        assert index["store"]["spans_added"] > 0
        with pytest.raises(UnknownJobError, match="unknown trace"):
            client.trace("f" * 32)


class TestWorkerHandoff:
    def test_run_many_workloads_join_the_trace(self):
        trace.enable()
        session = Session()
        with trace.span("root") as root:
            session.run_many([workload("blur"), workload("jacobi")])
        spans = trace.global_store().get(root.trace_id)
        names = [s["name"] for s in spans]
        assert "session.run_many" in names
        assert names.count("session.run") == 2
        run_many = next(s for s in spans
                        if s["name"] == "session.run_many")
        runs = [s for s in spans if s["name"] == "session.run"]
        assert all(s["parent_id"] == run_many["span_id"] for s in runs)

    def test_the_fold_joins_the_caller_trace_without_shard_spans(
            self, stream_inputs):
        explorer, space, characterizations, usable = stream_inputs
        trace.enable()
        with trace.span("root") as root:
            explore_stream(space, characterizations,
                           explorer.throughput_model, 128, 96,
                           usable_luts=usable, chunk_rows=2)
        spans = trace.global_store().get(root.trace_id)
        explore = next(s for s in spans if s["name"] == "stream.explore")
        assert explore["parent_id"] == root.span_id
        assert not [s for s in spans
                    if s["parent_id"] == explore["span_id"]]

    def test_digests_are_bit_identical_with_tracing_on(
            self, stream_inputs):
        explorer, space, characterizations, usable = stream_inputs
        untraced = explore_stream(space, characterizations,
                                  explorer.throughput_model, 128, 96,
                                  usable_luts=usable, chunk_rows=2)
        trace.enable()
        with trace.span("root"):
            traced = explore_stream(space, characterizations,
                                    explorer.throughput_model, 128, 96,
                                    usable_luts=usable, chunk_rows=2)
        assert serialized_points(traced.pareto) \
            == serialized_points(untraced.pareto)
        assert traced.admitted_rows == untraced.admitted_rows


class TestFleetTrace:
    def test_one_fleet_submit_yields_one_connected_trace(self):
        reference = digest(Session().run(workload(stream=True)))
        with FleetRouter.local(2, healthcheck_interval_s=0) as fleet:
            client = ReproClient(fleet)
            with trace.span("cli.submit") as root:
                handle = client.submit(workload(stream=True))
                result = handle.result(timeout=120)
            assert digest(result) == reference
            assert handle.trace_id == root.trace_id
            required = {"cli.submit", "fleet.route", "service.job",
                        "scheduler.dispatch", "session.run",
                        "stream.explore"}
            spans = wait_for_spans(
                root.trace_id,
                lambda spans: required <= {s["name"] for s in spans})
            payload = fleet.trace(root.trace_id)
            spans = payload["spans"]
            names = {s["name"] for s in spans}
            assert required <= names
            assert any(name.startswith("stage.") for name in names)
            # one trace id throughout, and every non-root span's parent
            # is present: the tree is fully connected
            assert all(s["trace_id"] == root.trace_id for s in spans)
            ids = {s["span_id"] for s in spans}
            roots = [s for s in spans if s["parent_id"] is None]
            assert [s["name"] for s in roots] == ["cli.submit"]
            assert all(s["parent_id"] in ids for s in spans
                       if s["parent_id"] is not None)
