"""Tests for the chunked exploration fold.

The headline property: whatever the chunk size {1 row, group-sized, the
whole space}, ``explore_stream`` produces the identical admitted rows
and Pareto frontier — same global rows, byte-identical serialized design
points — as the per-point scalar oracle (``scalar_oracle``); its
``pruned_rows`` additionally counts the rows a min-fps floor rejected.
"""

import json
import threading

import numpy as np
import pytest

from scalar_oracle import scalar_exploration

import repro.dse.stream as stream_module
from repro.dse.constraints import DseConstraints
from repro.dse.engine import StreamingFrontier
from repro.dse.explorer import DesignSpaceExplorer, ExplorationResult
from repro.dse.stream import (
    MASK_CACHE_CAPACITY,
    SpaceChunk,
    clear_stream_caches,
    explore_stream,
    plan_chunks,
    reset_stream_stats,
    stream_stats,
)
from repro.estimation.throughput_model import ThroughputModel
from repro.ir.operators import DataFormat
from repro.obs import metrics as obs_metrics
from repro.service.metrics import render_prometheus


def small_explorer(kernel, **overrides):
    keywords = dict(data_format=DataFormat.FIXED16,
                    window_sides=(1, 2, 3, 4), max_depth=3,
                    max_cones_per_depth=6, synthesize_all=True)
    keywords.update(overrides)
    return DesignSpaceExplorer(kernel, **keywords)


def serialized_points(points):
    return json.dumps([p.to_dict() for p in points], sort_keys=True)


@pytest.fixture(autouse=True)
def fresh_mask_cache():
    clear_stream_caches()
    yield
    clear_stream_caches()


@pytest.fixture
def evaluation_inputs(igf_kernel):
    explorer = small_explorer(igf_kernel)
    characterizations, _ = explorer.characterize_cones(6)
    space = explorer._space(6)
    usable = explorer.device.usable_capacity.luts
    return explorer, space, characterizations, usable


def constraint_grid(baseline):
    areas = sorted(baseline.area_luts.tolist())
    return [
        None,
        DseConstraints(device_only=True),
        DseConstraints(max_area_luts=areas[len(areas) // 2],
                       min_frames_per_second=1.0, device_only=True),
    ]


class TestDigestIdentity:
    def test_identical_to_scalar_across_chunk_sizes(self, evaluation_inputs):
        explorer, space, characterizations, usable = evaluation_inputs
        baseline = scalar_exploration(space, characterizations,
                                      explorer.throughput_model, 128, 96)
        group_rows = space.max_cones_per_depth
        for constraints in constraint_grid(baseline):
            oracle = scalar_exploration(
                space, characterizations, explorer.throughput_model,
                128, 96, constraints, usable)
            oracle_rows = oracle.pareto_row_index
            oracle_digest = serialized_points(oracle.pareto)
            for chunk_rows in (1, group_rows, space.size()):
                streamed = explore_stream(
                    space, characterizations, explorer.throughput_model,
                    128, 96, constraints, usable, chunk_rows=chunk_rows)
                assert np.array_equal(streamed.pareto_row_index, oracle_rows)
                assert serialized_points(streamed.pareto) == oracle_digest
                assert (streamed.pruned_rows
                        - streamed.throughput_pruned_rows
                        == oracle.area_pruned_rows)
                assert streamed.admitted_rows == oracle.admitted_rows

    def test_admitted_rows_identical_to_scalar_at_any_chunking(
            self, evaluation_inputs):
        """In-memory explorations are the same fold keeping every admitted
        row: the design points match the scalar loop's in enumeration
        order, and the frontier members are the same objects."""
        explorer, space, characterizations, usable = evaluation_inputs
        baseline = scalar_exploration(space, characterizations,
                                      explorer.throughput_model, 128, 96)
        for constraints in constraint_grid(baseline):
            oracle = scalar_exploration(
                space, characterizations, explorer.throughput_model,
                128, 96, constraints, usable)
            expected = serialized_points(oracle.design_points)
            for chunk_rows in (1, 4, space.size()):
                streamed = explore_stream(
                    space, characterizations, explorer.throughput_model,
                    128, 96, constraints, usable, chunk_rows=chunk_rows,
                    materialize="admitted")
                assert serialized_points(streamed.design_points) == expected
                assert (serialized_points(streamed.pareto)
                        == serialized_points(oracle.pareto))
                members = {id(point) for point in streamed.design_points}
                assert all(id(point) in members for point in streamed.pareto)

    def test_peak_chunk_never_exceeds_the_bound(self, evaluation_inputs):
        explorer, space, characterizations, usable = evaluation_inputs
        streamed = explore_stream(space, characterizations,
                                  explorer.throughput_model, 128, 96,
                                  usable_luts=usable, chunk_rows=4)
        assert 0 < streamed.peak_chunk_rows <= 4
        assert streamed.chunks_total == len(plan_chunks(space, 4))


class TestConstraintPushdown:
    def test_pruned_rows_match_the_oracle_and_skip_materialization(
            self, evaluation_inputs):
        explorer, space, characterizations, usable = evaluation_inputs
        baseline = scalar_exploration(space, characterizations,
                                      explorer.throughput_model, 128, 96)
        cutoff = float(np.median(baseline.area_luts))
        constraints = DseConstraints(max_area_luts=cutoff)
        oracle = scalar_exploration(space, characterizations,
                                    explorer.throughput_model, 128, 96,
                                    constraints, usable)
        streamed = explore_stream(space, characterizations,
                                  explorer.throughput_model, 128, 96,
                                  constraints, usable, chunk_rows=2)
        assert streamed.pruned_rows == oracle.area_pruned_rows > 0
        # whole chunks beyond the admitted prefix were never materialized
        assert streamed.chunks_skipped > 0
        assert (streamed.admitted_rows + streamed.pruned_rows
                == baseline.admitted_rows)

    def test_unreachable_fps_floor_prunes_everything_before_costing(
            self, evaluation_inputs):
        explorer, space, characterizations, usable = evaluation_inputs
        constraints = DseConstraints(min_frames_per_second=1e12)
        # the suffix probe runs where a group's prefix spans several chunks
        streamed = explore_stream(space, characterizations,
                                  explorer.throughput_model, 128, 96,
                                  constraints, usable, chunk_rows=2)
        assert streamed.pruned_rows == space.size()
        assert streamed.throughput_pruned_rows == space.size()
        assert streamed.admitted_rows == 0
        assert streamed.pareto == []
        # nothing survived the suffix probe, so no chunk was ever costed
        assert streamed.chunks_skipped == streamed.chunks_total
        assert streamed.peak_chunk_rows == 0


class TestThroughputPushdown:
    """The min-fps suffix probe admits exactly what per-point filtering
    admits (differential on 3 constraint sets)."""

    def fps_floors(self, baseline):
        fps = np.sort(1.0 / baseline.seconds_per_frame)
        return [float(fps[fps.size // 4]), float(np.median(fps)),
                float(fps[(9 * fps.size) // 10])]

    def test_admits_exactly_the_post_cost_filter_rows(
            self, evaluation_inputs):
        explorer, space, characterizations, usable = evaluation_inputs
        baseline = scalar_exploration(space, characterizations,
                                      explorer.throughput_model, 128, 96)
        area_cap = float(np.median(baseline.area_luts))
        for floor in self.fps_floors(baseline):
            for extra in ({}, {"max_area_luts": area_cap,
                               "device_only": True}):
                constraints = DseConstraints(min_frames_per_second=floor,
                                             **extra)
                no_fps = scalar_exploration(
                    space, characterizations, explorer.throughput_model,
                    128, 96, DseConstraints(**extra), usable)
                oracle = scalar_exploration(
                    space, characterizations, explorer.throughput_model,
                    128, 96, constraints, usable)
                for chunk_rows in (2, 4096):  # probed / filtered in-chunk
                    streamed = explore_stream(
                        space, characterizations, explorer.throughput_model,
                        128, 96, constraints, usable, chunk_rows=chunk_rows)
                    assert streamed.admitted_rows == oracle.admitted_rows
                    assert np.array_equal(streamed.pareto_row_index,
                                          oracle.pareto_row_index)
                    assert (serialized_points(streamed.pareto)
                            == serialized_points(oracle.pareto))
                    # exactly the rows the floor rejects count as pruned
                    assert (streamed.throughput_pruned_rows
                            == no_fps.admitted_rows - oracle.admitted_rows)
                    assert (streamed.admitted_rows + streamed.pruned_rows
                            == space.size())

    def test_fps_floor_raises_pruned_rows_over_the_oracle(
            self, evaluation_inputs):
        explorer, space, characterizations, usable = evaluation_inputs
        baseline = scalar_exploration(space, characterizations,
                                      explorer.throughput_model, 128, 96)
        constraints = DseConstraints(
            min_frames_per_second=self.fps_floors(baseline)[1])
        oracle = scalar_exploration(space, characterizations,
                                    explorer.throughput_model, 128, 96,
                                    constraints, usable)
        streamed = explore_stream(space, characterizations,
                                  explorer.throughput_model, 128, 96,
                                  constraints, usable)
        assert streamed.throughput_pruned_rows > 0
        assert streamed.pruned_rows > oracle.area_pruned_rows == 0
        assert stream_stats()["throughput_pruned_rows"] > 0

    def test_non_monotone_model_falls_back_to_costing_the_prefix(
            self, evaluation_inputs):
        class NegativeInterval(ThroughputModel):
            """Batch-capable, but the monotonicity argument is void."""

            def execution_interval_cycles(self, architecture, depth,
                                          performance):
                return -super().execution_interval_cycles(
                    architecture, depth, performance)

        explorer, space, characterizations, usable = evaluation_inputs
        model = NegativeInterval(device=explorer.device,
                                 data_format=explorer.data_format)
        constraints = DseConstraints(min_frames_per_second=1.0)
        oracle = scalar_exploration(space, characterizations, model,
                                    128, 96, constraints, usable)
        streamed = explore_stream(space, characterizations, model,
                                  128, 96, constraints, usable,
                                  chunk_rows=3)
        assert streamed.chunks_skipped == 0  # probe declined: all costed
        assert streamed.admitted_rows == oracle.admitted_rows
        assert (serialized_points(streamed.pareto)
                == serialized_points(oracle.pareto))

    def test_fps_floor_change_still_reuses_cached_masks(
            self, evaluation_inputs):
        explorer, space, characterizations, usable = evaluation_inputs
        baseline = scalar_exploration(space, characterizations,
                                      explorer.throughput_model, 128, 96)
        floors = self.fps_floors(baseline)
        first = explore_stream(
            space, characterizations, explorer.throughput_model, 128, 96,
            DseConstraints(min_frames_per_second=floors[0]), usable)
        second = explore_stream(
            space, characterizations, explorer.throughput_model, 128, 96,
            DseConstraints(min_frames_per_second=floors[2]), usable)
        assert not first.mask_cache_hit
        assert second.mask_cache_hit  # the floor is not in the mask key
        oracle = scalar_exploration(
            space, characterizations, explorer.throughput_model, 128, 96,
            DseConstraints(min_frames_per_second=floors[2]), usable)
        assert (serialized_points(second.pareto)
                == serialized_points(oracle.pareto))


class TestSerialFold:
    def test_the_fold_runs_once_on_the_calling_thread(
            self, evaluation_inputs, monkeypatch):
        real_fold = stream_module.fold_chunks
        folded_on = []

        def recording_fold(*args, **kwargs):
            folded_on.append(threading.current_thread().name)
            return real_fold(*args, **kwargs)

        monkeypatch.setattr(stream_module, "fold_chunks", recording_fold)
        explorer, space, characterizations, usable = evaluation_inputs
        explore_stream(space, characterizations, explorer.throughput_model,
                       128, 96, usable_luts=usable, chunk_rows=2)
        assert folded_on == [threading.current_thread().name]

    def test_one_exploration_is_one_run_and_one_fold_observation(
            self, evaluation_inputs):
        explorer, space, characterizations, usable = evaluation_inputs
        histogram = obs_metrics.registry().histogram(
            "repro_stream_chunk_fold_seconds")
        observed = histogram.count
        reset_stream_stats()
        streamed = explore_stream(space, characterizations,
                                  explorer.throughput_model, 128, 96,
                                  usable_luts=usable, chunk_rows=2)
        stats = stream_stats()
        assert stats["runs"] == 1
        assert (stats["chunks_materialized"]
                == streamed.chunks_total - streamed.chunks_skipped > 0)
        assert histogram.count == observed + 1

    def test_stream_stats_name_no_fan_out_counters(self):
        assert set(stream_stats()) == {
            "hits", "misses", "evictions", "entries", "capacity", "runs",
            "chunks_materialized", "throughput_pruned_rows"}
        text = render_prometheus({"stream": stream_stats()})
        assert "# TYPE repro_stream_runs counter" in text
        assert "parallel" not in text and "duplicate" not in text


class TestMaskCache:
    def test_frame_change_reuses_masks(self, evaluation_inputs):
        explorer, space, characterizations, usable = evaluation_inputs
        constraints = DseConstraints(device_only=True)
        first = explore_stream(space, characterizations,
                               explorer.throughput_model, 128, 96,
                               constraints, usable)
        second = explore_stream(space, characterizations,
                                explorer.throughput_model, 640, 480,
                                constraints, usable)
        assert not first.mask_cache_hit
        assert second.mask_cache_hit
        stats = stream_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        # the reused run is still digest-identical to its own oracle
        oracle = scalar_exploration(space, characterizations,
                                    explorer.throughput_model, 640, 480,
                                    constraints, usable)
        assert (serialized_points(second.pareto)
                == serialized_points(oracle.pareto))

    def test_area_constraint_change_recomputes(self, evaluation_inputs):
        explorer, space, characterizations, usable = evaluation_inputs
        explore_stream(space, characterizations, explorer.throughput_model,
                       128, 96, DseConstraints(device_only=True), usable)
        tightened = explore_stream(
            space, characterizations, explorer.throughput_model, 128, 96,
            DseConstraints(device_only=True, max_area_luts=50_000.0), usable)
        assert not tightened.mask_cache_hit


class TestMaskCacheBound:
    """The mask cache is a bounded LRU: each distinct area cap is its own
    entry, and the least recently used entry is evicted first."""

    @staticmethod
    def explore_capped(inputs, cap):
        explorer, space, characterizations, usable = inputs
        return explore_stream(space, characterizations,
                              explorer.throughput_model, 128, 96,
                              DseConstraints(max_area_luts=cap), usable)

    @staticmethod
    def caps(n):
        return [1000.0 * (i + 1) for i in range(n)]

    def test_capacity_is_enforced_with_lru_eviction(self, evaluation_inputs):
        caps = self.caps(MASK_CACHE_CAPACITY + 2)
        for cap in caps:
            assert not self.explore_capped(evaluation_inputs,
                                           cap).mask_cache_hit
        stats = stream_stats()
        assert stats["entries"] == stats["capacity"] == MASK_CACHE_CAPACITY
        assert stats["evictions"] == 2
        # the newest entry is still cached; the oldest was evicted
        assert self.explore_capped(evaluation_inputs, caps[-1]).mask_cache_hit
        assert not self.explore_capped(evaluation_inputs,
                                       caps[0]).mask_cache_hit

    def test_recent_use_protects_an_entry(self, evaluation_inputs):
        caps = self.caps(MASK_CACHE_CAPACITY + 1)
        for cap in caps[:MASK_CACHE_CAPACITY]:
            self.explore_capped(evaluation_inputs, cap)
        # refresh the oldest entry, then overflow: the second-oldest goes
        assert self.explore_capped(evaluation_inputs, caps[0]).mask_cache_hit
        self.explore_capped(evaluation_inputs, caps[-1])
        assert self.explore_capped(evaluation_inputs, caps[0]).mask_cache_hit
        assert not self.explore_capped(evaluation_inputs,
                                       caps[1]).mask_cache_hit

    def test_reset_keeps_masks_but_clear_drops_them(self, evaluation_inputs):
        self.explore_capped(evaluation_inputs, 5000.0)
        reset_stream_stats()
        stats = stream_stats()
        assert (stats["hits"], stats["misses"], stats["evictions"],
                stats["runs"]) == (0, 0, 0, 0)
        assert stats["entries"] == 1
        assert self.explore_capped(evaluation_inputs, 5000.0).mask_cache_hit
        clear_stream_caches()
        stats = stream_stats()
        assert (stats["entries"], stats["hits"], stats["runs"]) == (0, 0, 0)
        assert not self.explore_capped(evaluation_inputs,
                                       5000.0).mask_cache_hit


class TestChunkPlanning:
    def test_chunks_cover_the_space_exactly_once(self, evaluation_inputs):
        _, space, _, _ = evaluation_inputs
        for chunk_rows in (1, 4, 1000):
            chunks = plan_chunks(space, chunk_rows)
            rows = sorted(row
                          for chunk in chunks
                          for row in range(chunk.base_row + chunk.count_start,
                                           chunk.base_row + chunk.count_stop))
            assert rows == list(range(space.size()))
            assert all(chunk.rows <= chunk_rows for chunk in chunks)

    def test_counts_are_dtype_tightened(self):
        chunk = SpaceChunk(window=1, window_index=0, split=(1,),
                           split_index=0, base_row=0, count_start=2,
                           count_stop=5)
        counts = chunk.counts()
        assert counts.dtype == np.int32
        assert counts.tolist() == [3, 4, 5]

    def test_invalid_arguments_rejected(self, evaluation_inputs):
        _, space, _, _ = evaluation_inputs
        with pytest.raises(ValueError, match="chunk_rows"):
            plan_chunks(space, 0)


class TestExplorerIntegration:
    def test_stream_true_matches_in_memory_pareto(self, igf_kernel):
        explorer = small_explorer(igf_kernel)
        streamed = explorer.explore(6, 128, 96, stream=True, chunk_rows=4)
        in_memory = explorer.explore(6, 128, 96)
        assert (serialized_points(streamed.pareto)
                == serialized_points(in_memory.pareto))
        assert streamed.streaming is not None
        assert streamed.streaming["chunk_rows"] == 4
        assert in_memory.streaming is None
        # streamed results materialize only the frontier
        assert streamed.design_points == streamed.pareto
        payload = streamed.to_dict()
        assert all(isinstance(entry, int) for entry in payload["pareto"])

    def test_streaming_metadata_keys(self, igf_kernel):
        streamed = small_explorer(igf_kernel).explore(6, 128, 96,
                                                      stream=True)
        assert set(streamed.streaming) == {
            "chunk_rows", "space_rows", "admitted_rows", "pruned_rows",
            "throughput_pruned_rows", "pruned_fraction", "chunks_total",
            "chunks_skipped", "peak_chunk_rows", "frontier_peak",
            "mask_cache_hit"}

    def test_streaming_result_round_trips_through_json(self, igf_kernel):
        explorer = small_explorer(igf_kernel)
        streamed = explorer.explore(6, 128, 96, stream=True)
        restored = ExplorationResult.from_dict(
            json.loads(json.dumps(streamed.to_dict())))
        assert restored.streaming == streamed.streaming
        assert (serialized_points(restored.pareto)
                == serialized_points(streamed.pareto))

    def test_auto_select_streams_above_the_threshold(self, igf_kernel,
                                                     monkeypatch):
        import repro.dse.explorer as explorer_module
        explorer = small_explorer(igf_kernel)
        monkeypatch.setattr(explorer_module, "STREAM_AUTO_THRESHOLD", 10)
        auto = explorer.explore(6, 128, 96)
        assert auto.streaming is not None
        monkeypatch.setattr(explorer_module, "STREAM_AUTO_THRESHOLD",
                            10**9)
        in_memory = explorer.explore(6, 128, 96)
        assert in_memory.streaming is None
        assert (serialized_points(auto.pareto)
                == serialized_points(in_memory.pareto))

    def test_in_memory_explorations_are_counted_and_reuse_masks(
            self, igf_kernel):
        """An in-memory exploration runs the same fold, so it shows in
        ``stream_stats()`` and a frame change re-uses its cached masks."""
        explorer = small_explorer(igf_kernel)
        explorer.characterize_cones(6)
        reset_stream_stats()
        first = explorer.explore(6, 128, 96)
        second = explorer.explore(6, 640, 480)
        assert first.streaming is None and second.streaming is None
        stats = stream_stats()
        assert stats["runs"] == 2
        assert stats["misses"] == 1 and stats["hits"] == 1
        assert stats["chunks_materialized"] > 0


class TestFrontierStateBound:
    def test_state_is_bounded_by_the_frontier_not_the_space(
            self, evaluation_inputs):
        explorer, space, characterizations, usable = evaluation_inputs
        streamed = explore_stream(space, characterizations,
                                  explorer.throughput_model, 128, 96,
                                  usable_luts=usable, chunk_rows=1)
        assert streamed.frontier_peak < space.size()
        assert streamed.frontier_peak >= len(streamed.pareto)

    def test_incremental_updates_accept_empty_chunks(self):
        frontier = StreamingFrontier()
        frontier.update(np.empty(0), np.empty(0),
                        np.empty(0, dtype=np.int64))
        assert len(frontier) == 0
