"""Tests for session-level caching, batching, and events.

The headline property (satellite of ISSUE 1, acceptance criterion): batching
workloads through one session must not run the synthesizer more often than
the number of unique ``(kernel, window, depth)`` cone shapes.
"""

import pytest

from repro.api import PipelineError, Session, Workload
from repro.api import session as session_module
from repro.dse.constraints import DseConstraints


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

    def test_mutating_an_early_stage_artifact_does_not_corrupt_cache(self):
        session = Session()
        workload = Workload.from_algorithm("blur", **SMALL)
        exploration = session.run(workload, until="explore")
        count = len(exploration.design_points)
        exploration.design_points.clear()
        result = session.run(workload)
        assert len(result.design_points) == count

    def test_run_until_early_stage_skips_characterization(self):
        session = Session()
        workload = Workload.from_algorithm("blur", **SMALL)
        analysis = session.run(workload, until="analyze")
        assert analysis["invariance"].is_isl
        stats = session.stats
        assert stats.synthesis_runs == 0
        assert stats.characterization_cache_misses == 0

    def test_default_session_is_process_wide(self):
        from repro.api import default_session
        assert default_session() is default_session()

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

    def test_pipeline_is_cached_so_codegen_reuses_run_artifacts(self):
        session = Session()
        workload = Workload.from_algorithm("blur", **SMALL)
        session.run(workload)
        pipeline = session.pipeline(workload)
        assert pipeline.has_run("explore")
        explore_time_before = pipeline.timings["explore"]
        files = session.generate_vhdl(workload)
        assert files
        # codegen reused the cached pipeline; explore did not run again
        assert session.pipeline(workload) is pipeline
        assert pipeline.timings["explore"] == explore_time_before

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
        assert result.fastest_point() is None
        assert result.smallest_point() is None
        assert result.best_fitting_point() is None
