"""Tests for the session: the one runner of the flow's stages, and its
caching, batching, and events.

The headline property: batching workloads through one session must not run
the synthesizer more often than the number of unique ``(kernel, window,
depth)`` cone shapes.
"""

import copy
import pickle
import threading

import pytest

from repro.api import STAGE_NAMES, PipelineError, Session, Workload
from repro.api import pipeline as pipeline_module
from repro.api import session as session_module
from repro.dse import engine as engine_module
from repro.dse import explorer as explorer_module
from repro.dse.constraints import DseConstraints
from repro.frontend.dsl import stencil_kernel
from repro.frontend.semantic import validate_kernel
from repro.obs import trace
from repro.symbolic.executor import ConstantFoldError
from repro.symbolic.invariance import verify_kernel


SMALL = dict(iterations=4, window_sides=(1, 2, 3), max_depth=2,
             max_cones_per_depth=3)


def unique_shape_count(session):
    """Distinct (kernel, window, depth) shapes characterized by a session."""
    total = 0
    for key in session.cached_keys:
        explorer = session._explorers[key]
        for per_window, _ in explorer._family_cache.values():
            total += len(per_window)
    return total


def stage_events(events):
    """``(kind, stage)`` of each stage event, in order."""
    return [(event.kind, event.stage) for event in events
            if event.kind in ("stage-started", "stage-finished")]


def wide_kernel_workload():
    """A workload whose kernel is outside the ISL class (not narrow)."""
    def define(k):
        f = k.field("f")
        k.update(f, f(10, 0) + f(-10, 0))

    return Workload.from_kernel(stencil_kernel("wide", define), **SMALL)


def late_square_root(k):
    """``f`` folds to -1 after one iteration; the next takes its root."""
    f, g = k.field("f"), k.field("g")
    k.update(f, f(0, 0) * 0.0 - 1.0)
    k.update(g, g(0, 0) + k.sqrt(f(0, 0)))


def late_zero_divisor(k):
    """``f`` folds to 0 after one iteration; the next divides by it."""
    f, g = k.field("f"), k.field("g")
    k.update(f, f(0, 0) * 0.0)
    k.update(g, g(0, 0) / (f(0, 0) + 1.0) + g(1, 0) / f(0, 0))


class TestStages:
    """The session runs the flow's stages itself."""

    def test_a_cold_run_runs_each_stage_once_in_order(self):
        assert STAGE_NAMES == ("frontend", "analyze", "characterize",
                               "explore", "pareto", "codegen")
        events = []
        session = Session(on_event=events.append)
        result = session.run(Workload.from_algorithm("blur", **SMALL))
        assert result.pareto
        assert stage_events(events) == [
            (kind, stage) for stage in STAGE_NAMES[:5]
            for kind in ("stage-started", "stage-finished")]
        finished = [event for event in events
                    if event.kind == "stage-finished"]
        assert all(event.elapsed_s >= 0 for event in finished)

    def test_a_traced_run_has_one_span_per_stage_under_session_run(self):
        spans = []
        with trace.capture(spans):
            Session().run(Workload.from_algorithm("blur", **SMALL))
        by_id = {span["span_id"]: span for span in spans}
        (run,) = [span for span in spans if span["name"] == "session.run"]
        for stage in STAGE_NAMES[:5]:
            (found,) = [span for span in spans
                        if span["name"] == f"stage.{stage}"]
            assert by_id[found["parent_id"]] is run
            assert found["attributes"]["workload"] == "blur"
        assert not [span for span in spans
                    if span["name"] == "stage.codegen"]

    def test_a_second_run_runs_no_stage(self):
        events = []
        session = Session(on_event=events.append)
        workload = Workload.from_algorithm("blur", **SMALL)
        first = session.run(workload)
        events.clear()
        second = session.run(workload)
        assert stage_events(events) == []
        assert second.pareto == first.pareto

    @pytest.mark.parametrize("stage", STAGE_NAMES[:3])
    def test_a_callback_reentering_during_a_locked_stage_does_not_deadlock(
            self, stage):
        """Events of the stages run under the key lock reach callbacks
        after its release, so a callback may run a workload of the same
        key."""
        session = Session()
        workload = Workload.from_algorithm("blur", **SMALL)
        sibling = workload.replace(frame_width=256)
        nested = []

        def callback(event):
            if (event.kind == "stage-started" and event.stage == stage
                    and not nested):
                nested.append(None)
                nested.append(session.run(sibling))

        session.on_event(callback)
        outcome = []
        runner = threading.Thread(
            target=lambda: outcome.append(session.run(workload)),
            daemon=True)
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive(), "re-entrant callback deadlocked"
        assert outcome and outcome[0].pareto
        assert nested[1].exploration.frame_width == 256

    def test_codegen_on_a_cold_session_runs_every_stage(self):
        events = []
        session = Session(on_event=events.append)
        files = session.generate_vhdl(Workload.from_algorithm("blur",
                                                              **SMALL))
        assert "isl_fixed_pkg.vhd" in files
        assert any(name.endswith("_top.vhd") for name in files)
        assert [stage for kind, stage in stage_events(events)
                if kind == "stage-finished"] == list(STAGE_NAMES)

    @pytest.mark.parametrize("build, reason", [
        (wide_kernel_workload, "narrow|outside the ISL class"),
        (lambda: Workload.from_algorithm("chamb", params={"lambda": 0.0},
                                         **SMALL),
         "divides by lambda, which folds to the constant zero"),
    ], ids=["non-isl-kernel", "zero-divisor"])
    def test_a_kernel_the_flow_cannot_compile_fails_in_analyze(
            self, build, reason):
        events = []
        session = Session(on_event=events.append)
        with pytest.raises(PipelineError, match=reason):
            session.run(build())
        assert stage_events(events) == [
            ("stage-started", "frontend"), ("stage-finished", "frontend"),
            ("stage-started", "analyze")]
        assert session.stats.synthesis_runs == 0
        assert session.stats.workloads_failed == 1

    @pytest.mark.parametrize("define, reason", [
        (late_square_root,
         r"kernel 'late': cone \(window 1, depth 2\), iteration 2 takes the "
         r"square root of f\[\+0,\+0\], which folds to the negative "
         r"constant -1\.0$"),
        (late_zero_divisor,
         r"kernel 'late': cone \(window 1, depth 2\), iteration 2 divides "
         r"by f\[\+0,\+0\], which folds to the constant zero$"),
    ], ids=["negative-root", "zero-divisor"])
    def test_a_fault_after_an_earlier_iteration_fails_in_characterize(
            self, define, reason):
        # one iteration alone folds nothing: analyze passes, and the first
        # depth-2 cone meets the constant
        events = []
        session = Session(on_event=events.append)
        late = Workload.from_kernel(stencil_kernel("late", define), **SMALL)
        assert session.explorer_for(late).constant_fault is None
        with pytest.raises(PipelineError, match=reason) as caught:
            session.run(late)
        error = caught.value.__cause__
        assert isinstance(error, ConstantFoldError)
        assert (error.cone, error.iteration) == ((1, 2), 2)
        assert stage_events(events)[-1] == ("stage-started", "characterize")
        assert session.stats.workloads_failed == 1
        # the session stays usable
        good = Workload.from_algorithm("blur", **SMALL)
        assert session.run(good).pareto
        assert session.stats.workloads_run == 1

    def test_the_analysis_facts_are_the_explorers(self):
        session = Session()
        workload = Workload.from_algorithm("blur", **SMALL)
        explorer = session.explorer_for(workload)
        # the analysis alone: a read of the explorer's facts synthesizes
        # nothing
        assert explorer.invariance.is_isl
        assert explorer.constant_fault is None
        assert explorer.synthesizer.runs == 0
        result = session.run(workload)
        assert result.properties is explorer.properties
        assert result.invariance is explorer.invariance

    def test_codegen_and_validate_call_their_module_bindings(
            self, monkeypatch):
        """Codegen reaches VHDL generation and DFG lowering, and validate
        the simulation, through the module attributes a tracer wraps."""
        calls = []

        def spy(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        spy(pipeline_module, "generate_vhdl_files")
        spy(pipeline_module, "build_dfg_from_cone")
        spy(session_module, "validate_workload")
        session = Session()
        workload = Workload.from_algorithm("blur", frame_width=64,
                                           frame_height=48, **SMALL)
        session.run(workload)
        assert calls == []
        session.generate_vhdl(workload)
        assert calls[0] == "generate_vhdl_files"
        assert calls.count("generate_vhdl_files") == 1
        assert "build_dfg_from_cone" in calls
        del calls[:]
        session.validate(workload)
        assert calls == ["validate_workload"]


class TestCharacterizationSharing:
    def test_same_kernel_two_frame_sizes_characterizes_once(self):
        session = Session()
        small = Workload.from_algorithm("blur", frame_width=640,
                                        frame_height=480, **SMALL)
        large = Workload.from_algorithm("blur", frame_width=1024,
                                        frame_height=768, **SMALL)
        first = session.run(small)
        runs_after_first = session.stats.synthesis_runs
        second = session.run(large)
        assert session.stats.synthesis_runs == runs_after_first
        assert session.stats.characterization_cache_hits >= 1
        assert first.exploration.frame_width == 640
        assert second.exploration.frame_width == 1024

    def test_batch_never_exceeds_unique_cone_shapes(self):
        """ISSUE 1 acceptance: >= 3 algorithms x 2 frame sizes."""
        session = Session()
        workloads = [
            Workload.from_algorithm(name, frame_width=width,
                                    frame_height=height, **SMALL)
            for name in ("blur", "jacobi", "heat")
            for width, height in ((640, 480), (1024, 768))
        ]
        results = session.run_many(workloads)
        assert len(results) == 6
        stats = session.stats
        assert stats.workloads_run == 6
        assert stats.synthesis_runs <= unique_shape_count(session)
        # 3 unique kernels, each hit once more for its second frame size
        assert stats.characterization_cache_misses == 3
        assert stats.characterization_cache_hits >= 3

    def test_port_width_sweep_shares_characterizations(self):
        """onchip_port_elements_per_cycle only shapes throughput estimates;
        sweeping it must reuse all synthesis work and change performance."""
        session = Session()
        narrow = Workload.from_algorithm("blur", **SMALL)
        wide = narrow.replace(onchip_port_elements_per_cycle=64)
        first = session.run(narrow)
        runs = session.stats.synthesis_runs
        second = session.run(wide)
        assert session.stats.synthesis_runs == runs
        assert session.stats.characterization_cache_hits == 1
        fps_narrow = first.best_fitting_point().frames_per_second
        fps_wide = second.best_fitting_point().frames_per_second
        assert fps_wide > fps_narrow

    def test_reentrant_event_callback_does_not_deadlock(self):
        """A callback re-entering the session from a characterize-stage or
        cache-hit event must not deadlock on the key lock."""
        session = Session()
        workload = Workload.from_algorithm("blur", **SMALL)
        reentered = []

        def callback(event):
            if event.kind == "workload-finished" or event.kind == "cache-hit":
                reentered.append(session.generate_vhdl(workload))

        session.on_event(callback)
        session.run(workload)
        session.run(workload)  # second run emits a (deferred) cache-hit
        assert reentered and all(reentered)

    def test_iteration_counts_share_depth_family_characterizations(self):
        """Changing only `iterations` re-uses every already-characterized
        (depth, window family) — no extra synthesis, honest accounting."""
        session = Session()
        ten = Workload.from_algorithm("blur", iterations=4, **
                                      {k: v for k, v in SMALL.items()
                                       if k != "iterations"})
        eight = ten.replace(iterations=3)
        first = session.run(ten)
        runs_after_first = session.stats.synthesis_runs
        second = session.run(eight)
        assert session.stats.synthesis_runs == runs_after_first
        assert second.exploration.synthesis_runs <= runs_after_first
        assert first.exploration.total_iterations == 4
        assert second.exploration.total_iterations == 3

    def test_evict_releases_pipelines_but_keeps_accounting(self):
        session = Session()
        workload = Workload.from_algorithm("blur", **SMALL)
        session.run(workload)
        runs = session.stats.synthesis_runs
        assert runs > 0
        session.evict(workload)          # drop one pipeline
        session.evict()                  # drop everything
        assert session.cached_keys == []
        assert session.stats.synthesis_runs == runs
        # the session still works after a full eviction
        result = session.run(workload)
        assert result.pareto

    @pytest.mark.parametrize("scope", ["workload", "all"])
    def test_evict_releases_validation_evidence(self, monkeypatch, scope):
        calls = []
        real = session_module.validate_workload

        def counting(workload, **knobs):
            calls.append(knobs)
            return real(workload, **knobs)

        monkeypatch.setattr(session_module, "validate_workload", counting)
        events = []
        session = Session(on_event=events.append)
        workload = Workload.from_algorithm("blur", frame_width=64,
                                           frame_height=48, **SMALL)
        session.validate(workload)
        session.validate(workload, window_side=2)
        session.evict(workload.replace(frame_width=96))  # someone else
        session.validate(workload)
        assert len(calls) == 2
        assert [e.kind for e in events].count("cache-hit") == 1
        events.clear()
        session.evict(workload if scope == "workload" else None)
        session.validate(workload)
        session.validate(workload, window_side=2)
        assert len(calls) == 4
        assert "cache-hit" not in [e.kind for e in events]

    def test_partial_reuse_across_iteration_counts_counts_as_miss(self):
        """A deeper run that only partially reuses cached depth families
        must not be announced as a full characterization cache hit."""
        session = Session()
        shallow = Workload.from_algorithm("blur", iterations=2,
                                          window_sides=(1, 2, 3), max_depth=5)
        session.run(shallow)
        runs_before = session.stats.synthesis_runs
        session.run(shallow.replace(iterations=10))  # needs depths 3..5 too
        stats = session.stats
        assert stats.synthesis_runs > runs_before
        assert stats.characterization_cache_hits == 0
        assert stats.characterization_cache_misses == 2

    def test_what_if_workloads_on_one_key_analyze_the_kernel_once(
            self, monkeypatch):
        """The explorer, shared by every workload of a characterization
        key, owns the kernel analysis: a what-if sequence (each result
        evicted, as an interactive session does) validates and verifies
        the kernel once."""
        calls = []

        def counting(check):
            def wrapper(kernel):
                calls.append(check.__name__)
                return check(kernel)
            return wrapper

        for module in (pipeline_module, explorer_module):
            for check in (validate_kernel, verify_kernel):
                monkeypatch.setattr(module, check.__name__,
                                    counting(check), raising=False)
        session = Session()
        base = Workload.from_algorithm("chamb", **SMALL)
        for width in (128, 256, 320, 640):
            session.run(base.replace(frame_width=width))
            session.evict(base.replace(frame_width=width))
        assert sorted(calls) == ["validate_kernel", "verify_kernel"]

    def test_two_kernels_on_one_device_do_not_share(self):
        session = Session()
        blur = Workload.from_algorithm("blur", **SMALL)
        jacobi = Workload.from_algorithm("jacobi", **SMALL)
        session.run_many([blur, jacobi])
        assert len(session.cached_keys) == 2

    def test_stats_can_be_polled_during_a_threaded_batch(self):
        """Reading stats (e.g. from an event callback) must not race the
        characterization of in-flight workloads: two user threads run
        batches through one shared session."""
        from concurrent.futures import ThreadPoolExecutor

        session = Session()
        session.on_event(lambda event: session.stats)
        workloads = [
            Workload.from_algorithm(name, frame_width=width, **SMALL)
            for name in ("blur", "jacobi", "heat", "erode")
            for width in (128, 256)
        ]
        with ThreadPoolExecutor(max_workers=2) as pool:
            batches = list(pool.map(session.run_many,
                                    [workloads[0::2], workloads[1::2]]))
        assert sum(len(results) for results in batches) == 8
        assert session.stats.synthesis_runs > 0

    def test_sequential_and_threaded_batches_agree(self):
        """One batch, and the same workloads split into batches run by two
        user threads over one shared session, give equal results."""
        from concurrent.futures import ThreadPoolExecutor

        workloads = [
            Workload.from_algorithm("blur", **SMALL),
            Workload.from_algorithm("blur", frame_width=640,
                                    frame_height=480, **SMALL),
            Workload.from_algorithm("jacobi", **SMALL),
        ]
        sequential = Session().run_many(workloads)
        shared = Session()
        with ThreadPoolExecutor(max_workers=2) as pool:
            first, second = pool.map(shared.run_many,
                                     [workloads[0::2], workloads[1::2]])
        threaded = [first[0], second[0], first[1]]
        for a, b in zip(sequential, threaded):
            assert a.pareto == b.pareto
            assert a.exploration.synthesis_runs == b.exploration.synthesis_runs

    def test_explorer_for_returns_cached_instance(self):
        session = Session()
        workload = Workload.from_algorithm("blur", **SMALL)
        assert session.explorer_for(workload) is session.explorer_for(workload)

    def test_codegen_after_run_runs_only_the_codegen_stage(self):
        events = []
        session = Session(on_event=events.append)
        workload = Workload.from_algorithm("blur", **SMALL)
        session.run(workload)
        events.clear()
        files = session.generate_vhdl(workload)
        assert files == Session().generate_vhdl(workload)
        assert [(event.kind, event.stage) for event in events] == [
            ("stage-started", "codegen"), ("stage-finished", "codegen")]

    def test_concurrent_codegen_does_not_duplicate_synthesis(self):
        from concurrent.futures import ThreadPoolExecutor

        session = Session()
        workload = Workload.from_algorithm("blur", **SMALL)
        with ThreadPoolExecutor(max_workers=2) as pool:
            outputs = list(pool.map(
                lambda _: session.generate_vhdl(workload), range(2)))
        assert outputs[0] == outputs[1]
        lone = Session()
        lone.generate_vhdl(workload)
        assert session.stats.synthesis_runs == lone.stats.synthesis_runs

    def test_auxiliary_lookups_do_not_inflate_cache_hits(self):
        session = Session()
        workload = Workload.from_algorithm("blur", **SMALL)
        # an explorer_for BEFORE the first run must not turn that first,
        # fully-paid run into a "cache hit"
        session.explorer_for(workload)
        session.run(workload)
        session.explorer_for(workload)
        session.generate_vhdl(workload)
        assert session.stats.characterization_cache_hits == 0
        assert session.stats.characterization_cache_misses == 1


class TestEventsAndStats:
    def test_run_emits_lifecycle_events(self):
        events = []
        session = Session(on_event=events.append)
        session.run(Workload.from_algorithm("blur", **SMALL))
        kinds = [event.kind for event in events]
        assert kinds[0] == "workload-started"
        assert kinds[-1] == "workload-finished"
        assert "stage-started" in kinds and "stage-finished" in kinds
        finished = [e for e in events if e.kind == "workload-finished"]
        assert finished[0].elapsed_s is not None

    def test_a_callback_free_session_builds_no_event(self, monkeypatch):
        """Without a callback, ``run`` and ``validate`` build no event and
        read no trace ids, computed or served from the caches; a callback
        registered later receives every event again."""
        built = []
        real_event, real_ids = session_module.SessionEvent, trace.current_ids

        def recording_event(*args, **kwargs):
            built.append(args[0])
            return real_event(*args, **kwargs)

        def recording_ids():
            built.append("trace ids")
            return real_ids()

        monkeypatch.setattr(session_module, "SessionEvent", recording_event)
        monkeypatch.setattr(trace, "current_ids", recording_ids)
        session = Session()
        workload = Workload.from_algorithm("blur", **SMALL)
        for _ in range(2):  # computed, then served from the caches
            session.run(workload)
            session.validate(workload)
        assert built == []
        received = []
        session.on_event(received.append)
        session.run(workload)
        session.validate(workload)
        assert [kind for kind in built if kind != "trace ids"] == [
            event.kind for event in received]
        assert built.count("trace ids") == len(received) == 6

    def test_traced_events_carry_the_span_they_were_raised_in(self):
        """Stage events raised under the key lock and delivered after it
        still carry the ``session.run`` span they were raised in, and the
        workload events of ``validate`` its ``session.validate`` span."""
        events, spans = [], []
        session = Session(on_event=events.append)
        workload = Workload.from_algorithm("blur", **SMALL)
        with trace.capture(spans):
            session.run(workload)
            session.validate(workload)
        by_id = {span["span_id"]: span for span in spans}
        assert len(events) == 14
        assert [by_id[event.span_id]["name"] for event in events] == (
            ["session.run"] * 12 + ["session.validate"] * 2)
        assert all(event.trace_id == by_id[event.span_id]["trace_id"]
                   for event in events)
        assert stage_events(events) == [
            (kind, stage) for stage in STAGE_NAMES[:5]
            for kind in ("stage-started", "stage-finished")]

    def test_failed_workload_counted_and_reported(self):
        events = []
        session = Session(on_event=events.append)
        # builds, then fails in analyze: the lambda divisor folds to zero
        bad = Workload.from_algorithm("chamb", params={"lambda": 0.0},
                                      **SMALL)
        with pytest.raises(PipelineError, match="constant zero"):
            session.run(bad)
        assert session.stats.workloads_failed == 1
        assert any(event.kind == "workload-failed" for event in events)

    def test_stats_track_tool_runtime(self):
        session = Session()
        session.run(Workload.from_algorithm("blur", **SMALL))
        stats = session.stats
        assert stats.synthesis_runs > 0
        assert stats.tool_runtime_spent_s > 0
        assert stats.tool_runtime_avoided_s > 0
        assert stats.workload_time_s > 0
        payload = stats.to_dict()
        assert payload["synthesis_runs"] == stats.synthesis_runs

    def test_mutating_a_result_does_not_corrupt_the_cache(self):
        session = Session()
        workload = Workload.from_algorithm("blur", **SMALL)
        first = session.run(workload)
        count = len(first.design_points)
        first.design_points.clear()
        first.exploration.pareto.clear()
        second = session.run(workload)
        assert len(second.design_points) == count
        assert second.pareto
        # codegen still finds a point after the caller gutted their copy
        assert session.generate_vhdl(workload)

    def test_tight_constraints_yield_empty_points_not_crash(self):
        session = Session()
        workload = Workload.from_algorithm(
            "blur", constraints=DseConstraints(max_area_luts=1.0), **SMALL)
        result = session.run(workload)
        assert result.design_points == []
        assert result.smallest_point() is None
        assert result.best_fitting_point() is None


class TestDeferredPoints:
    """A computed result builds its design points off the Pareto front
    once, on the first read of ``design_points`` by any caller."""

    def test_concurrent_first_reads_share_one_build(self, monkeypatch):
        session = Session()
        workload = Workload.from_algorithm("blur", **SMALL)
        front = len(session.run(workload).pareto)
        handed, lock = [], threading.Lock()
        real = engine_module.build_points

        def counting(*args, **kwargs):
            with lock:
                handed.append(len(kwargs["counts"]))
            return real(*args, **kwargs)

        monkeypatch.setattr(engine_module, "build_points", counting)
        barrier = threading.Barrier(8)
        lists = [None] * 8

        def run_and_read(slot):
            result = session.run(workload)
            barrier.wait()
            lists[slot] = result.design_points

        threads = [threading.Thread(target=run_and_read, args=(slot,))
                   for slot in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(points == lists[0] for points in lists)
        assert len({id(points) for points in lists}) == 8
        assert sum(handed) == len(lists[0]) - front > 0

    @pytest.mark.parametrize("duplicate", [
        lambda result: pickle.loads(pickle.dumps(result)), copy.deepcopy],
        ids=["pickle", "deepcopy"])
    def test_an_unread_result_duplicates_like_a_read_one(self, duplicate):
        session = Session()
        workload = Workload.from_algorithm("blur", **SMALL)
        unread = session.run(workload)
        assert isinstance(vars(unread.exploration)["design_points"],
                          engine_module.PointsBuilder)
        restored = duplicate(unread)
        read = session.run(workload)
        assert read.design_points
        assert restored == read
        assert restored.to_dict() == read.to_dict()
        assert all(any(member is point for point in restored.design_points)
                   for member in restored.pareto)
        assert unread == read
