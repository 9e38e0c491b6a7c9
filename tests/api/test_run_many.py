"""``Session.run_many``: the one batch path.

A batch runs through ``Session.run`` in input order on the calling thread.
Its results come back in input order, byte-identical to per-workload
``Session.run`` results whatever the submission order.  A failing workload
stops nothing: the rest of the batch runs and is cached, and the earliest
failure is re-raised after the last workload.
"""

import dataclasses
import importlib
import json
import random
import threading

import pytest

from repro.api import (
    FlowOptions,
    PipelineError,
    Session,
    Workload,
)
from repro.api.cli import build_parser
from repro.api.cli import main as cli_main
from repro.codegen.vhdl_writer import VhdlWriter
from repro.dse import engine
from repro.dse.engine import StreamingFrontier
from repro.dse.explorer import DesignSpaceExplorer
from repro.dse.stream import StreamingExploration, explore_stream
from repro.estimation.throughput_model import ThroughputModel
from repro.frontend.dsl import stencil_kernel
from repro.fleet import FleetRouter
from repro.ir.operators import DataFormat
from repro.service import JobQueue, ReproClient, ReproServer

SMALL = dict(iterations=4, window_sides=(1, 2, 3), max_depth=2,
             max_cones_per_depth=3)


def zero_divisor(**overrides):
    """A workload that builds, then fails in the analyze stage: Chambolle's
    ``lambda`` divisor folds to the constant zero."""
    return Workload.from_algorithm("chamb", params={"lambda": 0.0},
                                   **{**SMALL, **overrides})

SWEEP = ["sweep", "--algorithms", "blur", "--frames", "128x96",
         "--iterations", "4", "--windows", "1,2,3", "--max-depth", "2",
         "--json"]


def mixed_batch():
    """blur/jacobi/chambolle workloads, including shared-key frame pairs."""
    return [
        Workload.from_algorithm("blur", **SMALL),
        Workload.from_algorithm("blur", frame_width=640, frame_height=480,
                                **SMALL),
        Workload.from_algorithm("jacobi", **SMALL),
        Workload.from_algorithm("chamb", **SMALL),
        Workload.from_algorithm("chamb", frame_width=640, frame_height=480,
                                **SMALL),
    ]


def serialized(result):
    return json.dumps(result.to_dict(), sort_keys=True)


class TestBatchResults:
    def test_results_equal_per_workload_runs_in_input_order(self):
        batch = mixed_batch()
        expected = [serialized(Session().run(workload)) for workload in batch]
        results = Session().run_many(batch)
        assert [serialized(result) for result in results] == expected

    def test_shuffled_submission_changes_nothing_per_workload(self):
        batch = mixed_batch()
        baseline = {workload: serialized(result) for workload, result
                    in zip(batch, Session().run_many(batch))}
        shuffled = list(batch)
        random.Random(42).shuffle(shuffled)
        results = Session().run_many(shuffled)
        for workload, result in zip(shuffled, results):
            assert serialized(result) == baseline[workload]

    def test_empty_batch_runs_nothing(self):
        session = Session()
        assert session.run_many([]) == []
        assert session.stats.workloads_run == 0

    def test_workloads_run_in_input_order_on_the_calling_thread(self):
        batch = mixed_batch()
        started = []

        def record(event):
            if event.kind == "workload-started":
                started.append((event.workload, threading.get_ident()))

        Session(on_event=record).run_many(batch)
        assert [workload for workload, _ in started] == batch
        assert {ident for _, ident in started} == {threading.get_ident()}

    def test_stats_and_events_can_be_read_during_a_batch(self):
        batch = mixed_batch()
        session = Session()
        runs_seen = []

        def poll(event):
            if event.kind == "workload-finished":
                runs_seen.append(session.stats.workloads_run)

        session.on_event(poll)
        session.run_many(batch)
        assert runs_seen == list(range(1, len(batch) + 1))

    def test_every_finished_workload_reports_its_elapsed_time(self):
        events = []
        Session(on_event=events.append).run_many(mixed_batch())
        finished = [event for event in events
                    if event.kind == "workload-finished"]
        assert len(finished) == 5
        assert all(event.elapsed_s is not None and event.elapsed_s >= 0
                   for event in finished)


class TestBatchCaching:
    """A batch shares the session's caches: nothing it computed, and no
    kernel it characterized, is synthesized again."""

    def test_rerun_of_a_computed_batch_synthesizes_nothing(self):
        batch = mixed_batch()
        events = []
        session = Session(on_event=events.append)
        first = session.run_many(batch)
        runs = session.stats.synthesis_runs
        events.clear()
        rerun = session.run_many(batch)
        assert session.stats.synthesis_runs == runs
        assert ([serialized(result) for result in rerun]
                == [serialized(result) for result in first])
        assert {event.workload for event in events
                if event.kind == "cache-hit"} == set(batch)

    def test_new_frames_over_characterized_kernels_synthesize_nothing(self):
        batch = [Workload.from_algorithm("blur", **SMALL),
                 Workload.from_algorithm("jacobi", **SMALL)]
        session = Session()
        session.run_many(batch)
        runs = session.stats.synthesis_runs
        shifted = [workload.replace(frame_width=200, frame_height=150)
                   for workload in batch]
        results = session.run_many(shifted)
        assert all(result.pareto for result in results)
        assert session.stats.synthesis_runs == runs
        assert ([serialized(result) for result in results]
                == [serialized(Session().run(workload))
                    for workload in shifted])


class TestFailureContract:
    def test_failure_is_raised_after_the_whole_batch(self):
        """``bad`` fails, ``good2`` still runs, and the error surfaces only
        after it — with ``good2`` then a session-cache hit."""
        good = Workload.from_algorithm("blur", **SMALL)
        bad = zero_divisor()
        good2 = Workload.from_algorithm("jacobi", **SMALL)
        events = []
        session = Session(on_event=events.append)
        with pytest.raises(PipelineError, match="constant zero"):
            session.run_many([good, bad, good2])
        assert [(event.kind, event.workload) for event in events
                if event.kind in ("workload-finished", "workload-failed")] \
            == [("workload-finished", good), ("workload-failed", bad),
                ("workload-finished", good2)]
        stats = session.stats
        assert stats.workloads_run == 2 and stats.workloads_failed == 1
        runs = stats.synthesis_runs
        events.clear()
        rerun = session.run(good2)
        assert session.stats.synthesis_runs == runs
        assert any(event.kind == "cache-hit" for event in events)
        assert serialized(rerun) == serialized(Session().run(good2))

    def test_the_earliest_failure_is_the_one_raised(self):
        def define(k):
            f = k.field("f")
            k.update(f, f(10, 0) + f(-10, 0))

        zero_lambda = zero_divisor()
        # fails too, later and otherwise: its kernel is not domain-narrow
        later = Workload.from_kernel(stencil_kernel("wide", define), **SMALL)
        good = Workload.from_algorithm("heat", **SMALL)
        session = Session()
        with pytest.raises(PipelineError, match="divides by lambda"):
            session.run_many([good, zero_lambda, later])
        assert session.stats.workloads_failed == 2
        assert session.stats.workloads_run == 1

    def test_a_failing_first_workload_is_announced_and_stops_nothing(self):
        bad = zero_divisor()
        good = Workload.from_algorithm("jacobi", **SMALL)
        events = []
        session = Session(on_event=events.append)
        with pytest.raises(PipelineError, match="constant zero"):
            session.run_many([bad, good])
        stats = session.stats
        assert stats.workloads_failed == 1 and stats.workloads_run == 1
        assert stats.synthesis_runs > 0  # the survivor kept its accounting
        failed = [event for event in events
                  if event.kind == "workload-failed"]
        assert [event.workload for event in failed] == [bad]
        assert "constant zero" in failed[0].detail


class TestRemovedStrategyKnobs:
    """The executor strategies, the service's batching knobs, the profiler
    flag, the fleet's admission and ring knobs, the exploration fan-out
    with the fold's test-only knobs, the legacy ``HlsFlow`` entry point,
    the backend registry with its backend-name knobs and the explorer's
    factory arguments, the partial-run and re-run arguments of the
    session, the ``Pipeline`` class, codegen's fractional-bits knob, the
    job-history knobs, the job priority classes and dispatch deadlines,
    the exploration's chunk size and the VHDL writer's clock and library
    are gone, loudly."""

    def test_run_many_takes_no_strategy_arguments(self):
        batch = [Workload.from_algorithm("blur", **SMALL)]
        with pytest.raises(TypeError):
            Session().run_many(batch, executor="threads")
        with pytest.raises(TypeError):
            Session().run_many(batch, max_workers=2)

    def test_the_backend_registry_is_gone(self):
        with pytest.raises(ImportError):
            from repro import register_backend  # noqa: F401
        with pytest.raises(ModuleNotFoundError):
            import repro.api.registry  # noqa: F401

    def test_cli_executor_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(SWEEP + ["--executor", "serial"])
        assert exit_info.value.code == 2
        assert "--executor" in capsys.readouterr().err

    @pytest.mark.parametrize("arguments", [
        ["explore", "blur", "--executor", "threads"],
        ["serve", "--executor", "threads"],
        ["fleet", "--executor", "threads"],
        ["serve", "--jobs", "2"],
        ["fleet", "--jobs", "2"],
        ["serve", "--max-batch", "4"],
        ["serve", "--batch-window", "0.05"],
        ["fleet", "--max-batch", "4"],
        ["fleet", "--batch-window", "0.05"],
        ["explore", "blur", "--profile"],
        ["sweep", "--profile"],
        ["serve", "--backend", "local"],
        ["fleet", "--replicas", "8"],
        ["fleet", "--default-role", "guest"],
        ["submit", "blur", "--role", "operator"],
        ["explore", "blur", "--jobs", "2"],
        ["sweep", "--jobs", "2"],
        ["submit", "blur", "--priority", "interactive"],
        ["explore", "blur", "--chunk-rows", "4096"],
        ["codegen", "blur", "--chunk-rows", "4096"],
        ["validate", "blur", "--chunk-rows", "4096"],
        ["submit", "blur", "--chunk-rows", "4096"],
        ["sweep", "--chunk-rows", "4096"],
    ], ids=["explore-executor", "serve-executor", "fleet-executor",
            "serve-jobs", "fleet-jobs", "serve-max-batch",
            "serve-batch-window", "fleet-max-batch", "fleet-batch-window",
            "explore-profile", "sweep-profile", "serve-backend",
            "fleet-replicas", "fleet-default-role", "submit-role",
            "explore-jobs", "sweep-jobs", "submit-priority",
            "explore-chunk-rows", "codegen-chunk-rows", "validate-chunk-rows",
            "submit-chunk-rows", "sweep-chunk-rows"])
    def test_strategy_flags_are_unknown_to_the_parser(self, capsys,
                                                      arguments):
        # parse only: serve and fleet would otherwise start listening
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(arguments)
        assert exit_info.value.code == 2
        flag = next(each for each in arguments if each.startswith("--"))
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("keyword, call", [
        ("stream_executor", lambda: Session(stream_executor="threads")),
        ("stream_executor", lambda: Session().explorer_for(
            Workload.from_algorithm("blur", **SMALL)).explore(
                4, 128, 96, stream_executor="threads")),
        ("executor", lambda: explore_stream(
            None, {}, None, 128, 96, executor="threads")),
        ("executor", lambda: ReproServer(executor="threads", start=False)),
        ("max_workers", lambda: ReproServer(max_workers=2, start=False)),
        ("max_batch", lambda: ReproServer(max_batch=4, start=False)),
        ("batch_window_s", lambda: ReproServer(batch_window_s=0.05,
                                               start=False)),
        ("policy", lambda: FleetRouter((), policy=object())),
        ("max_inflight", lambda: FleetRouter((), max_inflight=1)),
        ("failure_threshold", lambda: FleetRouter((), failure_threshold=2)),
        ("replicas", lambda: FleetRouter((), replicas=8)),
        ("policy", lambda: FleetRouter.local(1, policy=object())),
        ("role", lambda: ReproClient(ReproServer(start=False)).submit(
            Workload.from_algorithm("blur", **SMALL), role="operator")),
        ("stream_jobs", lambda: Workload.from_algorithm(
            "blur", stream_jobs=2, **SMALL)),
        ("stream_jobs", lambda: FlowOptions(stream_jobs=2)),
        ("stream_jobs", lambda: Session().explorer_for(
            Workload.from_algorithm("blur", **SMALL)).explore(
                4, 128, 96, stream_jobs=2)),
        ("jobs", lambda: explore_stream(None, {}, None, 128, 96, jobs=2)),
        ("chunk_order", lambda: explore_stream(
            None, {}, None, 128, 96, chunk_order=[0])),
        ("use_mask_cache", lambda: explore_stream(
            None, {}, None, 128, 96, use_mask_cache=False)),
        ("synthesizer", lambda: Workload.from_algorithm(
            "blur", synthesizer="analytic", **SMALL)),
        ("area_estimator", lambda: Workload.from_algorithm(
            "blur", area_estimator="register-model", **SMALL)),
        ("throughput_estimator", lambda: FlowOptions(
            throughput_estimator="analytic")),
        ("throughput_model_factory", lambda: DesignSpaceExplorer(
            Workload.from_algorithm("blur", **SMALL).resolve_kernel(),
            throughput_model_factory=ThroughputModel)),
        ("until", lambda: Session().run(
            Workload.from_algorithm("blur", **SMALL), until="explore")),
        ("fractional_bits", lambda: Session().generate_vhdl(
            Workload.from_algorithm("blur", **SMALL), fractional_bits=12)),
        ("history_limit", lambda: ReproServer(history_limit=5,
                                              start=False)),
        ("history_limit", lambda: JobQueue(history_limit=5)),
        ("history_limit", lambda: FleetRouter((), history_limit=5)),
        ("priority", lambda: JobQueue().submit(
            Workload.from_algorithm("blur", **SMALL), priority="batch")),
        ("timeout_s", lambda: JobQueue().submit(
            Workload.from_algorithm("blur", **SMALL), timeout_s=1.0)),
        ("priority", lambda: ReproServer(start=False).submit(
            Workload.from_algorithm("blur", **SMALL), priority="batch")),
        ("timeout_s", lambda: ReproServer(start=False).submit(
            Workload.from_algorithm("blur", **SMALL), timeout_s=1.0)),
        ("priority", lambda: FleetRouter(
            (), healthcheck_interval_s=0).submit(
                Workload.from_algorithm("blur", **SMALL), priority="batch")),
        ("timeout_s", lambda: FleetRouter(
            (), healthcheck_interval_s=0).submit(
                Workload.from_algorithm("blur", **SMALL), timeout_s=1.0)),
        ("priority", lambda: ReproClient(ReproServer(start=False)).submit(
            Workload.from_algorithm("blur", **SMALL), priority="batch")),
        ("timeout_s", lambda: ReproClient(ReproServer(start=False)).submit(
            Workload.from_algorithm("blur", **SMALL), timeout_s=1.0)),
        ("priority", lambda: ReproClient(ReproServer(start=False)).run(
            Workload.from_algorithm("blur", **SMALL), priority="batch",
            timeout=0)),
        ("chunk_rows", lambda: Workload.from_algorithm(
            "blur", chunk_rows=4096, **SMALL)),
        ("chunk_rows", lambda: FlowOptions(chunk_rows=4096)),
        ("chunk_rows", lambda: Session().explorer_for(
            Workload.from_algorithm("blur", **SMALL)).explore(
                4, 128, 96, chunk_rows=4096)),
        ("fractional_bits", lambda: VhdlWriter(DataFormat.FIXED16,
                                               fractional_bits=12)),
        ("clock_period_ns", lambda: VhdlWriter(DataFormat.FIXED16,
                                               clock_period_ns=10.0)),
        ("library", lambda: VhdlWriter(DataFormat.FIXED16, library=None)),
    ], ids=["Session", "explore", "explore_stream",
            "ReproServer-executor", "ReproServer-max_workers",
            "ReproServer-max_batch", "ReproServer-batch_window_s",
            "FleetRouter-policy",
            "FleetRouter-max_inflight", "FleetRouter-failure_threshold",
            "FleetRouter-replicas", "FleetRouter.local-policy",
            "ReproClient.submit-role", "Workload-stream_jobs",
            "FlowOptions-stream_jobs", "explore-stream_jobs",
            "explore_stream-jobs", "explore_stream-chunk_order",
            "explore_stream-use_mask_cache", "Workload-synthesizer",
            "Workload-area_estimator", "FlowOptions-throughput_estimator",
            "DesignSpaceExplorer-throughput_model_factory",
            "Session.run-until", "Session.generate_vhdl-fractional_bits",
            "ReproServer-history_limit", "JobQueue-history_limit",
            "FleetRouter-history_limit", "JobQueue.submit-priority",
            "JobQueue.submit-timeout_s", "ReproServer.submit-priority",
            "ReproServer.submit-timeout_s", "FleetRouter.submit-priority",
            "FleetRouter.submit-timeout_s", "ReproClient.submit-priority",
            "ReproClient.submit-timeout_s", "ReproClient.run-priority",
            "Workload-chunk_rows", "FlowOptions-chunk_rows",
            "explore-chunk_rows", "VhdlWriter-fractional_bits",
            "VhdlWriter-clock_period_ns", "VhdlWriter-library"])
    def test_strategy_keywords_raise_type_error(self, keyword, call):
        with pytest.raises(TypeError, match=keyword):
            call()

    def test_workload_dict_with_stream_jobs_is_a_value_error(self):
        payload = Workload.from_algorithm("blur", **SMALL).to_dict()
        assert payload["stream_jobs"] is None  # the pinned wire key
        payload["stream_jobs"] = 2
        with pytest.raises(ValueError, match="stream_jobs"):
            Workload.from_dict(payload)

    def test_fan_out_names_are_gone(self):
        assert not hasattr(StreamingFrontier, "merge")
        assert "jobs" not in {field.name
                              for field in dataclasses.fields(
                                  StreamingExploration)}
        assert not hasattr(engine, "fold_shard")
        assert not hasattr(Workload, "from_options")

    def test_the_legacy_entry_point_is_gone(self):
        with pytest.raises(ImportError):
            from repro import HlsFlow  # noqa: F401
        with pytest.raises(ImportError):
            import repro.flow.hls_flow  # noqa: F401

    def test_the_session_keeps_no_pipelines(self):
        assert not hasattr(Session, "pipeline")
        assert not hasattr(Session, "_observer_for")

    @pytest.mark.parametrize("module", ["repro", "repro.api",
                                        "repro.api.pipeline"])
    def test_the_pipeline_class_is_gone(self, module):
        assert not hasattr(importlib.import_module(module), "Pipeline")

    def test_client_takes_one_url_not_a_list(self):
        with pytest.raises(ValueError, match="URL"):
            ReproClient(["http://127.0.0.1:1"])

    def test_scheduler_stats_name_no_strategy(self):
        server = ReproServer(start=False)
        try:
            stats = server.stats()
        finally:
            server.close(drain=False)
        assert "scheduler" not in stats
        knobs = {"executor", "max_workers", "max_batch", "batch_window_s"}
        assert not knobs & set(stats["queue"])


class TestCliJobs:
    def test_sweep_reruns_warm_from_the_store(self, tmp_path, capsys):
        arguments = ["sweep", "--algorithms", "blur,jacobi", "--frames",
                     "128x96", "--iterations", "4", "--windows", "1,2,3",
                     "--max-depth", "2", "--store",
                     str(tmp_path / "store"), "--json"]
        assert cli_main(arguments) == 0
        cold = json.loads(capsys.readouterr().out)
        assert cold["session"]["synthesis_runs"] > 0
        assert cli_main(arguments) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["session"]["synthesis_runs"] == 0
        assert warm["workloads"] == cold["workloads"]

