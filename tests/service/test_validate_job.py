"""End-to-end tests for the ``validate`` job class: in-process and HTTP
submission, result typing and JSON round-trip, kind-aware coalescing, job-kind
parsing, fleet routing, and the CLI ``validate`` verb."""

import json

import pytest

from repro.api import Session, ValidationResult, Workload
from repro.api.cli import main as cli_main
from repro.fleet import FleetRouter
from repro.service import ReproClient, ReproServer, parse_job_kind

SMALL = dict(iterations=4, window_sides=(1, 2, 3), max_depth=2,
             max_cones_per_depth=3, frame_width=96, frame_height=64)


def workload(name="blur", **overrides):
    return Workload.from_algorithm(name, **{**SMALL, **overrides})


@pytest.fixture()
def http_server():
    server = ReproServer()
    host, port = server.serve_http("127.0.0.1", 0)
    yield server, f"http://{host}:{port}"
    server.close(drain=False)


class TestJobKindParsing:
    def test_default_is_explore(self):
        assert parse_job_kind(None) == "explore"

    def test_normalises_case_and_whitespace(self):
        assert parse_job_kind("  Validate ") == "validate"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown job kind"):
            parse_job_kind("fuzz")

    def test_non_string_kind_rejected(self):
        with pytest.raises(ValueError, match="invalid job kind"):
            parse_job_kind(7)


class TestInProcessValidateJob:
    def test_submit_returns_validation_result(self):
        server = ReproServer()
        try:
            client = ReproClient(server)
            handle = client.submit(workload(), job="validate")
            result = handle.result(timeout=60)
            assert isinstance(result, ValidationResult)
            assert result.passed
            assert result.max_abs_error == 0.0
            assert handle.status()["kind"] == "validate"
        finally:
            server.close(drain=False)

    def test_matches_direct_session_validate(self):
        reference = Session().validate(workload())
        server = ReproServer()
        try:
            result = ReproClient(server).submit(
                workload(), job="validate").result(timeout=60)
            assert result == reference
        finally:
            server.close(drain=False)

    def test_explore_job_unaffected(self):
        server = ReproServer()
        try:
            result = ReproClient(server).submit(
                workload(), job="explore").result(timeout=60)
            assert not isinstance(result, ValidationResult)
            assert result.exploration.design_points
        finally:
            server.close(drain=False)


class TestEmptyInterior:
    """A frame at most twice the border band (``radius * iterations``)
    has no interior, so a validation of it compares no pixel and fails."""

    EMPTY = ["--frame", "16x16", "--iterations", "10"]

    @pytest.mark.parametrize("width, height", [(16, 16), (20, 64),
                                               (64, 20)])
    def test_session_validate_fails_without_an_interior(self, width,
                                                        height):
        result = Session().validate(Workload.from_algorithm(
            "blur", frame_width=width, frame_height=height, iterations=10))
        assert result.interior_pixels == 0
        assert result.max_abs_error == 0.0
        assert result.passed is False
        assert "no interior pixel compared" in result.summary()

    def test_a_one_pixel_interior_is_compared(self):
        result = Session().validate(Workload.from_algorithm(
            "blur", frame_width=21, frame_height=21, iterations=10))
        assert result.interior_pixels == 1
        assert result.passed

    def test_cli_validate_exits_1_without_an_interior(self, capsys):
        assert cli_main(["validate", "blur", "--quiet"] + self.EMPTY) == 1
        assert "FAIL" in capsys.readouterr().out


class TestWindowSide:
    def test_only_none_selects_the_default_window(self):
        assert Session().validate(workload()).window_side == 3

    @pytest.mark.parametrize("bad", [0, 2.7, True, "2"])
    def test_a_bad_window_side_is_refused(self, bad):
        with pytest.raises(ValueError, match="window_side"):
            Session().validate(workload(), window_side=bad)


class TestKindAwareCoalescing:
    def test_identical_validate_jobs_coalesce(self):
        server = ReproServer(start=False)  # hold dispatch so both queue
        try:
            client = ReproClient(server)
            first = client.submit(workload(), job="validate")
            second = client.submit(workload(), job="validate")
            assert second.status()["coalesced"]
            server.start()
            assert first.result(timeout=60) == second.result(timeout=60)
            assert server.queue.stats_snapshot()["coalesced"] == 1
        finally:
            server.close(drain=False)

    def test_validate_never_coalesces_with_explore(self):
        server = ReproServer(start=False)
        try:
            client = ReproClient(server)
            explore = client.submit(workload(), job="explore")
            validate = client.submit(workload(), job="validate")
            assert not validate.status()["coalesced"]
            server.start()
            assert isinstance(validate.result(timeout=60), ValidationResult)
            assert not isinstance(explore.result(timeout=60),
                                  ValidationResult)
            assert server.queue.stats_snapshot()["coalesced"] == 0
        finally:
            server.close(drain=False)


class TestHttpValidateJob:
    def test_http_round_trip_equals_in_process(self, http_server):
        _server, url = http_server
        reference = Session().validate(workload())
        handle = ReproClient(url).submit(workload(), job="validate")
        result = handle.result(timeout=60)
        assert isinstance(result, ValidationResult)
        # from_dict(to_dict()) over the wire must reconstruct the exact
        # evidence the server-side session produced
        assert result == reference
        assert handle.status()["kind"] == "validate"

    def test_json_round_trip_is_lossless(self, http_server):
        _server, url = http_server
        result = ReproClient(url).submit(
            workload(), job="validate").result(timeout=60)
        rebuilt = ValidationResult.from_dict(
            json.loads(json.dumps(result.to_dict())))
        assert rebuilt == result

    def test_bad_job_kind_is_a_400(self, http_server):
        _server, url = http_server
        with pytest.raises(Exception) as excinfo:
            ReproClient(url).submit(workload(), job="fuzz")
        assert "unknown job kind" in str(excinfo.value)


class TestFleetValidateJob:
    def test_fleet_routes_validate_job(self):
        with FleetRouter.local(2, healthcheck_interval_s=0) as fleet:
            client = ReproClient(fleet)
            handle = client.submit(workload(), job="validate")
            result = handle.result(timeout=120)
            assert isinstance(result, ValidationResult)
            assert result.passed
            assert handle.status()["kind"] == "validate"


class TestCliValidate:
    ARGS = ["--frame", "96x64", "--iterations", "4", "--windows", "1,2,3",
            "--max-depth", "2", "--max-cones", "3"]

    def test_validate_verb_prints_pass_summary(self, capsys):
        status = cli_main(["validate", "blur", "--quiet"] + self.ARGS)
        assert status == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_validate_verb_json_payload(self, capsys):
        status = cli_main(["validate", "blur", "--json", "--quiet"]
                          + self.ARGS)
        assert status == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["max_abs_error"] == 0.0
        assert ValidationResult.from_dict(payload).passed

    def test_validate_window_zero_exits_2(self, capsys):
        status = cli_main(["validate", "blur", "--quiet", "--window", "0"]
                          + self.ARGS)
        assert status == 2
        assert "window_side" in capsys.readouterr().err

    def test_submit_job_validate_against_live_server(self, http_server,
                                                     capsys):
        _server, url = http_server
        status = cli_main(["submit", "blur", "--server", url,
                           "--job", "validate"] + self.ARGS)
        assert status == 0
        assert "PASS" in capsys.readouterr().out
