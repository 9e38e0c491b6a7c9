"""Tests for ``explore_stream``: the one pass over the cost table and the
cache behind it.

The headline property: in either materialize mode, whatever the chunk
size {1 row, group-sized, the whole space} and however far the count axis
runs past the cost table, ``explore_stream`` produces the identical
admitted rows and Pareto frontier — same global rows, byte-identical
serialized design points — as the per-point scalar oracle
(``scalar_oracle``); its ``pruned_rows`` additionally counts the rows a
min-fps floor rejected.
"""

import dataclasses
import functools
import json
import pickle
import random
import re
import threading

import numpy as np
import pytest

from scalar_oracle import NegativeInterval, SlowPorts, scalar_exploration

import repro.dse.engine as engine_module
import repro.dse.stream as stream_module
from repro.algorithms import get_algorithm
from repro.api import Session, Workload
from repro.architecture.enumeration import ArchitectureSpace
from repro.dse.constraints import DseConstraints
from repro.dse.design_point import DesignPoint
from repro.dse.explorer import DesignSpaceExplorer, ExplorationResult
from repro.dse.pareto import FINITE_OBJECTIVES_ERROR
from repro.dse.stream import (
    COST_CACHE_CAPACITY,
    clear_stream_caches,
    explore_stream,
    reset_stream_stats,
    stream_stats,
)
from repro.estimation.throughput_model import (ArchitecturePerformance,
                                               ThroughputModel)
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
def fresh_stream_caches():
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


def chunks_in(space, chunk_rows):
    """Groups × ⌈count axis / chunk_rows⌉."""
    groups = len(space.window_sides) * len(space.level_splits())
    return groups * -(-space.max_cones_per_depth // chunk_rows)


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
        """In-memory explorations keep every admitted row: the design
        points match the scalar loop's in enumeration order, and the
        frontier members are the same objects."""
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
        assert streamed.chunks_total == chunks_in(space, 4)


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

    def test_an_fps_floor_change_answers_like_the_oracle(
            self, evaluation_inputs):
        explorer, space, characterizations, usable = evaluation_inputs
        baseline = scalar_exploration(space, characterizations,
                                      explorer.throughput_model, 128, 96)
        floors = self.fps_floors(baseline)
        explore_stream(
            space, characterizations, explorer.throughput_model, 128, 96,
            DseConstraints(min_frames_per_second=floors[0]), usable)
        second = explore_stream(
            space, characterizations, explorer.throughput_model, 128, 96,
            DseConstraints(min_frames_per_second=floors[2]), usable)
        oracle = scalar_exploration(
            space, characterizations, explorer.throughput_model, 128, 96,
            DseConstraints(min_frames_per_second=floors[2]), usable)
        assert (serialized_points(second.pareto)
                == serialized_points(oracle.pareto))


class TestSerialPass:
    @pytest.mark.parametrize("materialize", ["admitted", "frontier"])
    def test_the_pass_runs_once_on_the_calling_thread(
            self, evaluation_inputs, monkeypatch, materialize):
        real_pass = stream_module.whole_space_pass
        passed_on = []

        def recording_pass(*args, **kwargs):
            passed_on.append(threading.current_thread().name)
            return real_pass(*args, **kwargs)

        monkeypatch.setattr(stream_module, "whole_space_pass",
                            recording_pass)
        explorer, space, characterizations, usable = evaluation_inputs
        explore_stream(space, characterizations, explorer.throughput_model,
                       128, 96, usable_luts=usable, chunk_rows=2,
                       materialize=materialize)
        assert passed_on == [threading.current_thread().name]

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
            "runs", "chunks_materialized", "throughput_pruned_rows", "costs"}
        assert set(stream_stats()["costs"]) == {
            "hits", "misses", "evictions", "entries", "capacity"}
        text = render_prometheus({"stream": stream_stats()})
        assert "# TYPE repro_stream_runs counter" in text
        assert "# TYPE repro_stream_costs_hits counter" in text
        assert "# TYPE repro_stream_costs_entries gauge" in text
        assert "repro_stream_hits" not in text
        assert "parallel" not in text and "duplicate" not in text


def explore_admitted(inputs, model, width=128, height=96, constraints=None):
    _, space, characterizations, usable = inputs
    return explore_stream(space, characterizations, model, width, height,
                          constraints, usable, materialize="admitted")


def cost_entry(space, characterizations, model):
    """The cost-cache entry of ``space`` (a hit when it is cached)."""
    splits = tuple(tuple(split) for split in space.level_splits())
    return stream_module._cached_costs(
        space, splits, characterizations,
        stream_module._characterization_key(characterizations), model)


class TestCostCache:
    """In-memory explorations take the whole space's per-tile throughput
    columns and areas from a process-wide cache and pay only for the frame
    half."""

    def test_a_hit_a_miss_and_the_oracle_serialize_alike(
            self, evaluation_inputs):
        explorer, space, characterizations, usable = evaluation_inputs
        baseline = scalar_exploration(space, characterizations,
                                      explorer.throughput_model, 128, 96)
        for port in (4, 16, 32):
            clear_stream_caches()
            for width, height in ((128, 96), (640, 480)):
                for constraints in constraint_grid(baseline):
                    # a fresh model per request, as a port override builds
                    model = explorer._throughput_model_for(port)
                    oracle = scalar_exploration(
                        space, characterizations, model, width, height,
                        constraints, usable)
                    cached = explore_admitted(evaluation_inputs, model,
                                              width, height, constraints)
                    assert (serialized_points(cached.design_points)
                            == serialized_points(oracle.design_points))
                    assert (serialized_points(cached.pareto)
                            == serialized_points(oracle.pareto))
            costs = stream_stats()["costs"]
            # the first request built the entry; the other five hit it
            assert (costs["misses"], costs["hits"], costs["entries"]) == (
                1, 5, 1)

    def test_a_hit_pays_only_for_the_frame_half(self, evaluation_inputs,
                                                 monkeypatch):
        explorer = evaluation_inputs[0]
        calls = []
        for name in ("tile_columns", "estimate_batch", "frame_times"):
            def recording(*args, _real=getattr(ThroughputModel, name),
                          _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(ThroughputModel, name, recording)
        explore_admitted(evaluation_inputs, explorer.throughput_model)
        assert "tile_columns" in calls
        calls.clear()
        explore_admitted(evaluation_inputs, explorer.throughput_model,
                         640, 480, DseConstraints(min_frames_per_second=1.0))
        # one frame half over the whole space, and no per-tile costing
        assert calls == ["frame_times"]

    def test_a_subclass_with_stock_arguments_never_gets_a_stock_entry(
            self, evaluation_inputs):
        explorer, space, characterizations, usable = evaluation_inputs
        stock = explorer.throughput_model
        slow = SlowPorts(
            device=stock.device, data_format=stock.data_format,
            readonly_components=stock.readonly_components,
            onchip_port_elements_per_cycle=(
                stock.onchip_port_elements_per_cycle))
        assert vars(slow) == vars(stock)
        stocked = explore_admitted(evaluation_inputs, stock)
        slowed = explore_admitted(evaluation_inputs, slow)
        costs = stream_stats()["costs"]
        assert (costs["misses"], costs["hits"], costs["entries"]) == (2, 0, 2)
        oracle = scalar_exploration(space, characterizations, slow, 128, 96,
                                    usable_luts=usable)
        assert (serialized_points(slowed.design_points)
                == serialized_points(oracle.design_points))
        assert (slowed.design_points[0].seconds_per_frame
                > stocked.design_points[0].seconds_per_frame)

    @pytest.mark.parametrize("change", [
        {"kernel_name": "renamed"}, {"radius": 2}, {"components": 2}],
        ids=["kernel-name", "radius", "components"])
    def test_spaces_with_equal_shape_knobs_never_share_an_entry(
            self, evaluation_inputs, change):
        # equal characterization values, as a renamed copy of one kernel
        # definition could synthesize to: the second space must not get
        # the first one's labels, tile counts or transfer cycles
        explorer, space, characterizations, usable = evaluation_inputs
        model = explorer.throughput_model
        first = explore_admitted(evaluation_inputs, model)
        other = dataclasses.replace(space, **change)
        second = explore_stream(other, characterizations, model, 128, 96,
                                usable_luts=usable, materialize="admitted")
        costs = stream_stats()["costs"]
        assert (costs["misses"], costs["hits"], costs["entries"]) == (2, 0, 2)
        oracle = scalar_exploration(other, characterizations, model, 128, 96,
                                    usable_luts=usable)
        assert (serialized_points(second.design_points)
                == serialized_points(oracle.design_points))
        assert (serialized_points(second.pareto)
                == serialized_points(oracle.pareto))
        assert (serialized_points(second.design_points)
                != serialized_points(first.design_points))

    def test_streamed_and_in_memory_explorations_share_an_entry(
            self, evaluation_inputs, igf_kernel):
        explorer, space, characterizations, usable = evaluation_inputs
        explore_stream(space, characterizations, explorer.throughput_model,
                       128, 96, usable_luts=usable, chunk_rows=2)
        small_explorer(igf_kernel).explore(6, 128, 96, stream=True)
        explore_admitted(evaluation_inputs, explorer.throughput_model)
        small_explorer(igf_kernel).explore(6, 640, 480, stream=False)
        costs = stream_stats()["costs"]
        assert (costs["entries"], costs["hits"], costs["misses"]) == (1, 3, 1)
        assert stream_stats()["runs"] == 4

    def test_cached_entries_are_read_only(self, evaluation_inputs):
        explorer, space, characterizations, _ = evaluation_inputs
        model = explorer.throughput_model
        explore_admitted(evaluation_inputs, model)
        entry = cost_entry(space, characterizations, model)
        assert stream_stats()["costs"]["hits"] == 1
        for field in dataclasses.fields(entry):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(entry, field.name, None)
        groups = len(space.window_sides) * len(space.level_splits())
        assert len(entry.keys) == len(entry.contexts) == groups
        for context in entry.contexts:
            with pytest.raises(dataclasses.FrozenInstanceError):
                context.primary = 0
            with pytest.raises(TypeError):
                context.area_by_depth[context.primary] = 0.0
            with pytest.raises(TypeError):
                context.cone_performance[context.primary] = None
        arrays = [value for value in vars(entry).values()
                  if isinstance(value, np.ndarray)]
        # the area, compute cycles, cycles per tile and compute_bound
        assert len(arrays) == 4
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 0
        assert all(isinstance(value, tuple)
                   for value in vars(entry).values()
                   if not isinstance(value, np.ndarray))

    def test_an_entry_stops_at_the_largest_saturation_count(
            self, evaluation_inputs):
        """An entry's arrays are groups × the smaller of the count axis and
        the largest saturation count among the groups (121 here)."""
        explorer, space, characterizations, _ = evaluation_inputs
        model = explorer.throughput_model
        for n_counts, width in ((6, 6), (WIDE_COUNTS, 121)):
            space = dataclasses.replace(space, max_cones_per_depth=n_counts)
            explore_stream(space, characterizations, model, 128, 96)
            entry = cost_entry(space, characterizations, model)
            assert width == min(n_counts, max(
                model.saturation_count(context.representative)
                for context in entry.contexts))
            assert {array.shape for array in vars(entry).values()
                    if isinstance(array, np.ndarray)} == {
                (len(entry.keys), width)}

    def test_the_million_candidate_paper_space_costs_45_by_361(
            self, igf_kernel):
        """The paper IGF space at 23,000 counts per depth, the streamed
        space of the what-if benchmark, costs the table of 361 counts."""
        explorer = DesignSpaceExplorer(
            igf_kernel, data_format=DataFormat.FIXED16,
            window_sides=tuple(range(1, 10)), max_depth=5,
            max_cones_per_depth=23_000)
        characterizations, _ = explorer.characterize_cones(10)
        space = explorer._space(10)
        assert space.size() == 1_035_000
        result = explore_stream(space, characterizations,
                                explorer.throughput_model, 1024, 768)
        assert result.pareto
        entry = cost_entry(space, characterizations,
                           explorer.throughput_model)
        assert {array.shape for array in vars(entry).values()
                if isinstance(array, np.ndarray)} == {(45, 361)}


class TestCostCacheBound:
    """The cost cache is a bounded LRU: each distinct port width is its own
    entry, and the least recently used entry is evicted first."""

    @staticmethod
    def explore_port(inputs, port):
        """Whether an in-memory exploration at ``port`` hit the cache."""
        hits = stream_stats()["costs"]["hits"]
        explore_admitted(inputs, inputs[0]._throughput_model_for(port))
        return stream_stats()["costs"]["hits"] > hits

    def test_capacity_is_enforced_with_lru_eviction(self, evaluation_inputs):
        ports = range(1, COST_CACHE_CAPACITY + 3)
        for port in ports:
            assert not self.explore_port(evaluation_inputs, port)
        costs = stream_stats()["costs"]
        assert costs["entries"] == costs["capacity"] == COST_CACHE_CAPACITY
        assert costs["evictions"] == 2
        assert self.explore_port(evaluation_inputs, ports[-1])
        assert not self.explore_port(evaluation_inputs, ports[0])

    def test_recent_use_protects_an_entry(self, evaluation_inputs):
        ports = range(1, COST_CACHE_CAPACITY + 2)
        for port in ports[:COST_CACHE_CAPACITY]:
            self.explore_port(evaluation_inputs, port)
        # refresh the oldest entry, then overflow: the second-oldest goes
        assert self.explore_port(evaluation_inputs, ports[0])
        self.explore_port(evaluation_inputs, ports[-1])
        assert self.explore_port(evaluation_inputs, ports[0])
        assert not self.explore_port(evaluation_inputs, ports[1])

    def test_reset_keeps_costs_but_clear_drops_them(self, evaluation_inputs):
        self.explore_port(evaluation_inputs, 5)
        reset_stream_stats()
        costs = stream_stats()["costs"]
        assert (costs["hits"], costs["misses"], costs["evictions"],
                costs["entries"]) == (0, 0, 0, 1)
        assert self.explore_port(evaluation_inputs, 5)
        clear_stream_caches()
        costs = stream_stats()["costs"]
        assert (costs["entries"], costs["hits"], costs["misses"]) == (0, 0, 0)
        assert not self.explore_port(evaluation_inputs, 5)


#: The what-if request grid: frames, fps floors, LUT caps and port widths.
WHATIF_FLOORS = (None, 15.0, 24.0, 30.0, 60.0, 120.0)
WHATIF_CAPS = (None, 150_000.0, 250_000.0, 350_000.0, 474_240.0)
WHATIF_PORTS = (4, 8, 16, 32)
#: Accounting fields both materialize modes report alike.
ACCOUNTING = ("space_rows", "admitted_rows", "pruned_rows", "chunk_rows",
              "chunks_total", "chunks_skipped", "peak_chunk_rows",
              "throughput_pruned_rows")
#: A count axis far past every saturation count of the evaluation inputs'
#: groups (121 at most).
WIDE_COUNTS = 300


@pytest.fixture(scope="module")
def whatif_spaces():
    """A small blur and a small chamb space, characterized once."""
    spaces = {}
    for kernel, iterations, knobs in (
            ("blur", 6, dict(window_sides=(1, 2, 3, 4, 5), max_depth=3,
                             max_cones_per_depth=12)),
            ("chamb", 5, dict(window_sides=(1, 2, 3, 4), max_depth=3,
                              max_cones_per_depth=10))):
        explorer = DesignSpaceExplorer(get_algorithm(kernel).kernel(),
                                       data_format=DataFormat.FIXED16,
                                       **knobs)
        characterizations, _ = explorer.characterize_cones(iterations)
        spaces[kernel] = (explorer, explorer._space(iterations),
                          characterizations,
                          explorer.device.usable_capacity.luts)
    return spaces


def warm_whatif_caches(whatif_spaces):
    """Fill the cost cache for every space and port width of the what-if
    grid."""
    for explorer, space, characterizations, usable in (
            whatif_spaces.values()):
        for port in WHATIF_PORTS:
            explore_stream(space, characterizations,
                           explorer._throughput_model_for(port), 640, 480,
                           usable_luts=usable, materialize="admitted")


def seeded_whatif_requests(whatif_spaces):
    """200 seeded what-if requests, as ``explore_stream`` arguments
    ``(space, characterizations, model, width, height, constraints,
    usable_luts)``."""
    rng = random.Random(30)
    for _ in range(200):
        kernel = rng.choice(sorted(whatif_spaces))
        width, height = (rng.randrange(320, 4097, 8),
                         rng.randrange(240, 2161, 8))
        floor, cap = rng.choice(WHATIF_FLOORS), rng.choice(WHATIF_CAPS)
        constraints = (None if floor is None and cap is None else
                       DseConstraints(min_frames_per_second=floor,
                                      max_area_luts=cap))
        explorer, space, characterizations, usable = whatif_spaces[kernel]
        # a fresh model per request, as a port override builds
        model = explorer._throughput_model_for(rng.choice(WHATIF_PORTS))
        yield (space, characterizations, model, width, height, constraints,
               usable)


#: The Python types a design point's fields and container items may have.
PLAIN_TYPES = {float, int, bool, str, list, dict}


def public_twin(space, row, point):
    """``point`` rebuilt through the public path: the enumeration's
    ``materialize_row_parts`` for global ``row``, then keyword constructors
    fed ``point``'s values."""
    splits = tuple(tuple(split) for split in space.level_splits())
    window_index, split_index = divmod(row // space.max_cones_per_depth,
                                       len(splits))
    performance = point.performance
    return DesignPoint(
        architecture=space.materialize_row_parts(
            space.window_sides[window_index], splits[split_index],
            row % space.max_cones_per_depth + 1),
        area_luts=point.area_luts,
        area_estimated=point.area_estimated,
        performance=ArchitecturePerformance(
            **{field.name: getattr(performance, field.name)
               for field in dataclasses.fields(performance)}),
        fits_device=point.fits_device,
        cone_area_by_depth=dict(point.cone_area_by_depth))


def field_types(point):
    """The exact types of each field of ``point``, of its architecture and
    of its performance, and of the keys and items of their containers."""
    types = {}
    for owner in (point, point.architecture, point.performance):
        for field in dataclasses.fields(owner):
            value = getattr(owner, field.name)
            if dataclasses.is_dataclass(value):
                continue
            name = f"{type(owner).__name__}.{field.name}"
            types[name] = {type(value)}
            if isinstance(value, dict):
                types[name + " keys"] = {type(key) for key in value}
                value = list(value.values())
            if isinstance(value, list):
                types[name + " items"] = {type(item) for item in value}
    return types


def assert_indistinguishable(points, twins):
    """Each point equals, prints, serializes and pickles like its twin,
    with exactly its field types, all plain Python ones."""
    assert len(points) == len(twins)
    for point, twin in zip(points, twins):
        assert point == twin
        assert repr(point) == repr(twin)
        assert point.to_dict() == twin.to_dict()
        assert pickle.dumps(point) == pickle.dumps(twin)
        assert pickle.loads(pickle.dumps(point)) == twin
        types = field_types(point)
        assert types == field_types(twin)
        assert set().union(*types.values()) <= PLAIN_TYPES


def assert_independent(points, twins, rerun, entry=None):
    """Mutating one point's containers reaches no other point, no group
    context and no cost-cache entry, and the same request answers with
    the original values again."""
    contexts = None if entry is None else repr(entry.contexts)
    victim = points[len(points) // 2]
    victim.architecture.level_depths.append(0)
    victim.architecture.cone_counts[victim.primary_depth] = -1
    victim.cone_area_by_depth.clear()
    assert victim != twins[len(points) // 2]
    assert [point == twin for point, twin in zip(points, twins)].count(
        False) == 1
    assert contexts == (None if entry is None else repr(entry.contexts))
    assert rerun() == twins


class TestWholeSpacePass:
    """Every exploration answers in one columnar pass over the cost-cache
    entry: held to the scalar oracle on seeded what-if requests and edge
    cases, in either materialize mode, with the same accounting."""

    def test_warm_whatif_requests_match_the_scalar_oracle(
            self, whatif_spaces):
        warm_whatif_caches(whatif_spaces)
        warmed = stream_stats()["costs"]
        assert warmed["misses"] == warmed["entries"] == 2 * len(WHATIF_PORTS)
        admitted = []
        for arguments in seeded_whatif_requests(whatif_spaces):
            space = arguments[0]
            result = explore_stream(*arguments, materialize="admitted")
            oracle = scalar_exploration(*arguments)
            assert (serialized_points(result.design_points)
                    == serialized_points(oracle.design_points))
            assert (serialized_points(result.pareto)
                    == serialized_points(oracle.pareto))
            assert np.array_equal(result.pareto_row_index,
                                  oracle.pareto_row_index)
            assert result.pareto_row_index.dtype == np.int64
            admitted.append(result.admitted_rows / space.size())
        costs = stream_stats()["costs"]
        assert (costs["misses"], costs["hits"]) == (warmed["misses"], 200)
        # the grid reaches empty, partial and full admission
        assert min(admitted) == 0.0 and max(admitted) == 1.0
        assert any(0.0 < share < 1.0 for share in admitted)

    def test_built_points_are_indistinguishable_and_independent(
            self, whatif_spaces):
        """Every admitted point of the seeded requests is its public twin
        (built from the oracle's point of the same row) in value, type,
        ``repr``, serialization and pickle, and owns its containers."""
        warm_whatif_caches(whatif_spaces)
        for arguments in seeded_whatif_requests(whatif_spaces):
            space, characterizations, model = arguments[:3]
            result = explore_stream(*arguments, materialize="admitted")
            oracle = scalar_exploration(*arguments)
            twins = [public_twin(space, row, point) for row, point
                     in zip(oracle.row_index.tolist(),
                            oracle.design_points)]
            assert_indistinguishable(result.design_points, twins)
            position = {row: index for index, row
                        in enumerate(oracle.row_index.tolist())}
            assert all(member is result.design_points[position[row]]
                       for member, row in zip(
                           result.pareto, result.pareto_row_index.tolist()))
            if not twins:
                continue
            entry = cost_entry(space, characterizations, model)
            assert_independent(
                result.design_points, twins,
                lambda: explore_stream(*arguments,
                                       materialize="admitted").design_points,
                entry)

    def test_frontier_points_are_indistinguishable_and_independent(
            self, whatif_spaces):
        """A frontier-only exploration builds its points the same way."""
        explorer, space, characterizations, usable = whatif_spaces["blur"]
        arguments = (space, characterizations,
                     explorer._throughput_model_for(8), 1280, 720,
                     DseConstraints(min_frames_per_second=24.0), usable)
        oracle = scalar_exploration(*arguments)
        twins = [public_twin(space, row, point) for row, point
                 in zip(oracle.pareto_row_index.tolist(), oracle.pareto)]
        assert len(twins) > 2

        def rerun():
            return explore_stream(*arguments, chunk_rows=3).pareto

        streamed = rerun()
        assert_indistinguishable(streamed, twins)
        assert_independent(streamed, twins, rerun,
                           cost_entry(space, characterizations, arguments[2]))

    def test_points_are_built_without_materializing_each_row(
            self, evaluation_inputs, monkeypatch):
        """``materialize_row_parts`` runs at most once per group per
        request (for the representative of a context being built), never
        once per design point: a warm request, streamed or not,
        materializes no row."""
        calls = []
        real = ArchitectureSpace.materialize_row_parts

        def counting(space, window, split, primary_count):
            calls.append((window, tuple(split)))
            return real(space, window, split, primary_count)

        monkeypatch.setattr(ArchitectureSpace, "materialize_row_parts",
                            counting)
        explorer, space, characterizations, usable = evaluation_inputs
        groups = len(space.window_sides) * len(space.level_splits())
        per_request = []
        # a cold and a warm cost cache, then a warm streamed request
        for materialize in ("admitted", "admitted", "frontier"):
            calls.clear()
            result = explore_stream(space, characterizations,
                                    explorer.throughput_model, 128, 96,
                                    usable_luts=usable, chunk_rows=2,
                                    materialize=materialize)
            assert len(set(calls)) == len(calls)
            per_request.append(len(calls))
            if materialize == "admitted":
                assert len(result.design_points) > groups
        assert per_request == [groups, 0, 0]

    def test_groups_without_characterizations_are_left_out(
            self, whatif_spaces):
        explorer, space, characterizations, usable = whatif_spaces["blur"]
        partial = {shape: entry for shape, entry in characterizations.items()
                   if shape not in {(2, 3), (4, 1)}}
        model = explorer.throughput_model
        constraints = DseConstraints(min_frames_per_second=24.0)
        result = explore_stream(space, partial, model, 640, 480,
                                constraints, usable, materialize="admitted")
        oracle = scalar_exploration(space, partial, model, 640, 480,
                                    constraints, usable)
        assert (serialized_points(result.design_points)
                == serialized_points(oracle.design_points))
        assert np.array_equal(result.pareto_row_index,
                              oracle.pareto_row_index)
        entry = cost_entry(space, partial, model)
        assert len(entry.keys) == (len(space.window_sides)
                                   * len(space.level_splits()) - 2)
        # a skipped group's rows are neither admitted nor pruned
        skipped = 2 * space.max_cones_per_depth
        assert (result.admitted_rows + result.pruned_rows
                == space.size() - skipped)

    @pytest.mark.parametrize("constraints", [
        DseConstraints(min_frames_per_second=1e12),
        DseConstraints(max_area_luts=1.0)], ids=["fps", "area"])
    def test_a_request_that_admits_no_row(self, whatif_spaces, constraints):
        explorer, space, characterizations, usable = whatif_spaces["chamb"]
        result = explore_stream(space, characterizations,
                                explorer.throughput_model, 640, 480,
                                constraints, usable, materialize="admitted")
        assert result.admitted_rows == 0
        assert result.design_points == [] and result.pareto == []
        assert result.pareto_row_index.dtype == np.int64
        assert result.pareto_row_index.size == 0
        assert result.pruned_rows == space.size()

    @pytest.mark.parametrize("materialize", ["admitted", "frontier"])
    def test_a_nan_frame_time_raises_the_finite_objectives_error(
            self, whatif_spaces, materialize):
        explorer, space, characterizations, usable = whatif_spaces["blur"]
        model = ThroughputModel(device=explorer.device,
                                data_format=explorer.data_format,
                                tile_overhead_cycles=float("nan"))
        with pytest.raises(ValueError,
                           match=re.escape(FINITE_OBJECTIVES_ERROR)):
            explore_stream(space, characterizations, model, 640, 480,
                           usable_luts=usable, materialize=materialize)

    @pytest.mark.parametrize("chunk_rows, n_counts", [
        pytest.param(chunk_rows, n_counts, id=f"{chunk_rows}{suffix}")
        for n_counts, suffix in ((6, ""), (WIDE_COUNTS, "-wide"))
        for chunk_rows in (1, 3, 7, 4096)])
    @pytest.mark.parametrize("model_class",
                             [ThroughputModel, SlowPorts, NegativeInterval])
    def test_both_modes_report_the_same_accounting(
            self, evaluation_inputs, model_class, chunk_rows, n_counts):
        """Under fps floors, where the suffix probe runs (prefixes longer
        than ``chunk_rows``) and where it does not, both modes report the
        same accounting, frontier and counters.  On the wide count axis
        most rows lie past the cost table."""
        explorer, space, characterizations, usable = evaluation_inputs
        model = model_class(device=explorer.device,
                            data_format=explorer.data_format)
        baseline = scalar_exploration(space, characterizations,
                                      explorer.throughput_model, 128, 96)
        fps = np.sort(1.0 / baseline.seconds_per_frame)
        cap = float(np.median(baseline.area_luts))
        space = dataclasses.replace(space, max_cones_per_depth=n_counts)
        for floor in (float(fps[fps.size // 4]), float(np.median(fps)),
                      float(fps[(9 * fps.size) // 10]), 1e12):
            for constraints in (
                    DseConstraints(min_frames_per_second=floor),
                    DseConstraints(min_frames_per_second=floor,
                                   max_area_luts=cap, device_only=True)):
                records = []
                for materialize in ("admitted", "frontier"):
                    clear_stream_caches()
                    result = explore_stream(
                        space, characterizations, model, 128, 96,
                        constraints, usable, chunk_rows=chunk_rows,
                        materialize=materialize)
                    stats = stream_stats()
                    del stats["costs"]
                    records.append((
                        {name: getattr(result, name) for name in ACCOUNTING},
                        result.pareto_row_index.tolist(),
                        serialized_points(result.pareto), stats))
                assert records[0] == records[1]


def recording_model(explorer):
    """A stock-argument model, and the largest count its ``tile_columns``
    and its ``estimate_batch`` costed per group, keyed by the method name
    and then by ``(window, level depths)``."""
    largest = {"tile_columns": {}, "estimate_batch": {}}

    def record(name, architecture, counts):
        key = (architecture.window_side, tuple(architecture.level_depths))
        largest[name][key] = max(largest[name].get(key, 0),
                                 int(np.max(counts)))

    class Recording(ThroughputModel):
        def tile_columns(self, architecture, cone_performance, counts):
            record("tile_columns", architecture, counts)
            return super().tile_columns(architecture, cone_performance,
                                        counts)

        def estimate_batch(self, architecture, cone_performance,
                           frame_width, frame_height, counts):
            record("estimate_batch", architecture, counts)
            return super().estimate_batch(architecture, cone_performance,
                                          frame_width, frame_height, counts)

    return (Recording(device=explorer.device,
                      data_format=explorer.data_format), largest)


def with_area(characterizations, shape, area):
    """``characterizations`` with the cone ``shape`` given ``area`` LUTs."""
    changed = dict(characterizations)
    changed[shape] = dataclasses.replace(
        characterizations[shape], estimated_area_luts=area,
        actual_area_luts=area)
    return changed


class TestSaturationCut:
    """The cost table stops at the largest saturation count of the space's
    groups: a row past it shares the last column's frame time, and of a
    group's rows past it only the last can join the frontier."""

    def test_no_count_past_saturation_is_costed(self, evaluation_inputs):
        """The table costs every group up to the largest saturation count
        and the suffix probe searches no count past its group's, while
        both modes answer alike."""
        explorer, space, characterizations, usable = evaluation_inputs
        space = dataclasses.replace(space, max_cones_per_depth=WIDE_COUNTS)
        stock = explorer.throughput_model
        # each group's saturation count, read off its whole count axis: the
        # smallest count from which the compute cycles stop changing
        counts = np.arange(1, WIDE_COUNTS + 1, dtype=np.int64)
        saturation = {}
        for window in space.window_sides:
            for split in space.level_splits():
                context = engine_module.group_context(
                    space, characterizations, window, tuple(split))
                compute = stock.estimate_batch(
                    context.representative, context.cone_performance, 128,
                    96, counts)["compute_cycles_per_tile"]
                changes = np.flatnonzero(compute[1:] != compute[:-1])
                saturation[(window, tuple(split))] = int(changes[-1]) + 2
        width = max(saturation.values())
        assert width < WIDE_COUNTS // 2
        unconstrained = explore_stream(space, characterizations, stock, 128,
                                       96, usable_luts=usable,
                                       materialize="admitted")
        floor = float(np.median([point.frames_per_second for point
                                 in unconstrained.design_points]))
        model, largest = recording_model(explorer)
        for constraints in (None, DseConstraints(device_only=True),
                            DseConstraints(min_frames_per_second=floor)):
            for chunk_rows in (1, 7, 4096):
                clear_stream_caches()
                expected = explore_stream(
                    space, characterizations, stock, 128, 96, constraints,
                    usable, chunk_rows=chunk_rows, materialize="admitted")
                for costed in largest.values():
                    costed.clear()
                streamed = explore_stream(
                    space, characterizations, model, 128, 96, constraints,
                    usable, chunk_rows=chunk_rows)
                assert largest["tile_columns"] == dict.fromkeys(saturation,
                                                                width)
                probed = constraints is not None and chunk_rows < WIDE_COUNTS
                assert bool(largest["estimate_batch"]) == (
                    probed and constraints.min_frames_per_second is not None)
                assert all(count <= saturation[key] for key, count
                           in largest["estimate_batch"].items())
                assert ({name: getattr(streamed, name) for name in ACCOUNTING}
                        == {name: getattr(expected, name)
                            for name in ACCOUNTING})
                assert np.array_equal(streamed.pareto_row_index,
                                      expected.pareto_row_index)
                assert (serialized_points(streamed.pareto)
                        == serialized_points(expected.pareto))

    @pytest.mark.parametrize("model_class",
                             [ThroughputModel, SlowPorts, NegativeInterval])
    def test_rows_past_the_table_match_the_scalar_oracle(
            self, evaluation_inputs, model_class):
        """On a count axis past the table, ``"admitted"`` builds every
        admitted row as the scalar oracle does, and ``"frontier"`` its
        Pareto rows, with no constraint, within the device and under an
        fps floor."""
        explorer, space, characterizations, usable = evaluation_inputs
        space = dataclasses.replace(space, max_cones_per_depth=WIDE_COUNTS)
        model = model_class(device=explorer.device,
                            data_format=explorer.data_format)
        floor = None
        for constraints in (None, DseConstraints(device_only=True),
                            "floor"):
            if constraints == "floor":
                constraints = DseConstraints(min_frames_per_second=floor)
            oracle = scalar_exploration(space, characterizations, model, 128,
                                        96, constraints, usable)
            if floor is None:
                floor = float(np.median(1.0 / oracle.seconds_per_frame))
            admitted, frontier = (
                explore_stream(space, characterizations, model, 128, 96,
                               constraints, usable, materialize=materialize)
                for materialize in ("admitted", "frontier"))
            assert (serialized_points(admitted.design_points)
                    == serialized_points(oracle.design_points))
            members = {id(point) for point in admitted.design_points}
            assert all(id(point) in members for point in admitted.pareto)
            assert frontier.design_points == frontier.pareto
            for result in (admitted, frontier):
                assert result.admitted_rows == oracle.admitted_rows
                assert np.array_equal(result.pareto_row_index,
                                      oracle.pareto_row_index)
                assert (serialized_points(result.pareto)
                        == serialized_points(oracle.pareto))
            # the oracle admits rows past the table
            width = cost_entry(space, characterizations, model).area.shape[1]
            assert (oracle.row_index % WIDE_COUNTS >= width).any()

    def test_a_negative_primary_area_puts_the_last_row_on_the_frontier(
            self, evaluation_inputs):
        """Area falls with the count there, so a group's last row past the
        table is its cheapest: it joins the Pareto candidates, and both
        modes answer like the scalar oracle."""
        explorer, space, characterizations, usable = evaluation_inputs
        space = dataclasses.replace(space, max_cones_per_depth=WIDE_COUNTS)
        # window 4, depth 3: the primary cone of split (3, 3), whose
        # saturation count is 9
        characterizations = with_area(characterizations, (4, 3), -250.0)
        model = explorer.throughput_model
        for constraints in (None, DseConstraints(min_frames_per_second=1.0)):
            oracle = scalar_exploration(space, characterizations, model, 128,
                                        96, constraints, usable)
            assert (oracle.pareto_row_index % WIDE_COUNTS
                    == WIDE_COUNTS - 1).any()
            for chunk_rows in (1, 4096):
                in_memory, streamed = (
                    explore_stream(space, characterizations, model, 128, 96,
                                   constraints, usable, chunk_rows=chunk_rows,
                                   materialize=materialize)
                    for materialize in ("admitted", "frontier"))
                assert (serialized_points(in_memory.design_points)
                        == serialized_points(oracle.design_points))
                for result in (in_memory, streamed):
                    assert np.array_equal(result.pareto_row_index,
                                          oracle.pareto_row_index)
                    assert (serialized_points(result.pareto)
                            == serialized_points(oracle.pareto))

    @pytest.mark.parametrize("materialize", ["admitted", "frontier"])
    @pytest.mark.parametrize("n_counts, cap, first_count", [
        (6, -600.0, 3), (WIDE_COUNTS, -20_000.0, 80),
        (WIDE_COUNTS, -60_000.0, 240)],
        ids=["paper", "wide", "past-the-table"])
    def test_a_negative_primary_area_under_an_area_cap_admits_a_suffix(
            self, evaluation_inputs, n_counts, cap, first_count,
            materialize):
        """With a negative primary cone area a group's area falls as
        instances are added, so an area cap admits the last counts of its
        axis, not the first: in both modes the pass admits the rows the
        scalar oracle admits, also where they begin past the table."""
        explorer, space, characterizations, usable = evaluation_inputs
        space = dataclasses.replace(space, max_cones_per_depth=n_counts)
        # window 4, depth 3: the only cone of split (3, 3), the last group
        characterizations = with_area(characterizations, (4, 3), -250.0)
        model = explorer.throughput_model
        constraints = DseConstraints(max_area_luts=cap)
        oracle = scalar_exploration(space, characterizations, model, 128, 96,
                                    constraints, usable)
        last_group = space.size() // n_counts - 1
        assert (oracle.row_index // n_counts == last_group).all()
        assert (oracle.row_index % n_counts + 1).tolist() == list(
            range(first_count, n_counts + 1))
        result = explore_stream(space, characterizations, model, 128, 96,
                                constraints, usable, chunk_rows=4,
                                materialize=materialize)
        assert result.admitted_rows == oracle.admitted_rows
        assert result.pruned_rows == oracle.area_pruned_rows
        assert np.array_equal(result.pareto_row_index,
                              oracle.pareto_row_index)
        assert (serialized_points(result.pareto)
                == serialized_points(oracle.pareto))
        assert serialized_points(result.design_points) == serialized_points(
            oracle.design_points if materialize == "admitted"
            else oracle.pareto)
        assert result.chunks_total - result.chunks_skipped == -(
            -n_counts // 4) - (first_count - 1) // 4

    @pytest.mark.parametrize("materialize", ["admitted", "frontier"])
    def test_a_nan_area_raises_the_finite_objectives_error(
            self, evaluation_inputs, materialize):
        explorer, space, characterizations, usable = evaluation_inputs
        space = dataclasses.replace(space, max_cones_per_depth=40)
        characterizations = with_area(characterizations, (4, 3),
                                      float("nan"))
        with pytest.raises(ValueError,
                           match=re.escape(FINITE_OBJECTIVES_ERROR)):
            explore_stream(space, characterizations,
                           explorer.throughput_model, 128, 96,
                           usable_luts=usable, materialize=materialize)

    @pytest.mark.parametrize("n_counts", [40, 122, WIDE_COUNTS])
    @pytest.mark.parametrize("shape", [(1, 1), (4, 3)])
    def test_a_zero_area_group_keeps_its_first_fastest_row(
            self, evaluation_inputs, shape, n_counts):
        """With a zero primary cone area, a group's rows tie in area, and
        in frame time from the count where it stops falling to the end of
        the axis; its row past the table joins the candidates after the
        others, so the frontier keeps the first of the tie, as the scalar
        oracle does."""
        explorer, space, characterizations, usable = evaluation_inputs
        space = dataclasses.replace(space, max_cones_per_depth=n_counts)
        # window 1, depth 1 sets the table's width (121); window 4, depth 3
        # saturates at 9
        characterizations = with_area(characterizations, shape, 0.0)
        model = explorer.throughput_model
        window, depth = shape
        splits = [set(split) for split in space.level_splits()]
        group = (space.window_sides.index(window) * len(splits)
                 + splits.index({depth}))
        oracle = scalar_exploration(space, characterizations, model, 128, 96,
                                    usable_luts=usable)
        times = oracle.seconds_per_frame[
            oracle.row_index // n_counts == group]
        assert times.size == n_counts
        fastest = int(np.argmax(times == times.min()))
        assert fastest < n_counts - 1
        assert (times[fastest:] == times.min()).all()
        assert oracle.pareto_row_index[
            oracle.pareto_row_index // n_counts == group].tolist() == [
                group * n_counts + fastest]
        for materialize in ("admitted", "frontier"):
            result = explore_stream(space, characterizations, model, 128, 96,
                                    usable_luts=usable,
                                    materialize=materialize)
            assert np.array_equal(result.pareto_row_index,
                                  oracle.pareto_row_index)
            assert (serialized_points(result.pareto)
                    == serialized_points(oracle.pareto))

    #: A cone area whose rows stay finite up to the 121-count table and
    #: overflow to infinity from count 212 on.
    OVERFLOWING_AREA = 8.5e305

    @pytest.mark.parametrize("materialize", ["admitted", "frontier"])
    @pytest.mark.parametrize("area", [float("nan"), float("inf"),
                                      float("-inf"), OVERFLOWING_AREA],
                             ids=["nan", "inf", "-inf", "overflow"])
    def test_a_non_finite_area_past_the_table_answers_like_the_oracle(
            self, evaluation_inputs, area, materialize):
        """A row past the table carries its own area, so a non-finite one
        reaches the Pareto extraction as in the scalar oracle: rejected
        with the finite-objectives error, unless an area constraint pruned
        it first."""
        explorer, space, characterizations, usable = evaluation_inputs
        space = dataclasses.replace(space, max_cones_per_depth=WIDE_COUNTS)
        characterizations = with_area(characterizations, (4, 3), area)
        model = explorer.throughput_model
        for constraints in (None, DseConstraints(max_area_luts=50_000.0),
                            DseConstraints(device_only=True),
                            DseConstraints(max_area_luts=50_000.0,
                                           device_only=True)):
            oracle = scalar_exploration(space, characterizations, model, 128,
                                        96, constraints, usable)
            result = functools.partial(
                explore_stream, space, characterizations, model, 128, 96,
                constraints, usable, materialize=materialize)
            # both area constraints prune an infinite area and -inf passes
            # both; NaN passes the cap but does not fit the device
            if (constraints is None or area < 0
                    or (np.isnan(area) and not constraints.device_only)):
                with pytest.raises(ValueError, match="finite"):
                    oracle.pareto
                with pytest.raises(ValueError,
                                   match=re.escape(FINITE_OBJECTIVES_ERROR)):
                    result()
                continue
            capped = result()
            assert capped.admitted_rows == oracle.admitted_rows
            assert np.array_equal(capped.pareto_row_index,
                                  oracle.pareto_row_index)
            assert (serialized_points(capped.pareto)
                    == serialized_points(oracle.pareto))


    @pytest.mark.parametrize("at", ["W-1", "W", "W+1", "n-1", "n"])
    @pytest.mark.parametrize("shape, area", [((1, 1), None),
                                             ((4, 3), -250.0)],
                             ids=["rising", "falling"])
    def test_a_cap_at_a_groups_exact_area_near_the_table_edge(
            self, evaluation_inputs, shape, area, at):
        """A cap at one group's exact area at count ``at`` puts its area
        boundary there: inside the 121-count table, at its last column, or
        past it, where the pass searches the count axis.  The group's area
        rises with the count (window 1, depth 1) or falls (window 4, depth
        3 at -250 LUTs), so it admits counts ``1..at`` or ``at..n``; alone
        and within the device, both modes admit, prune and rank the rows
        the scalar oracle does."""
        explorer, space, characterizations, usable = evaluation_inputs
        # windows 1 and 4 alone: window 1, depth 1 still sets the width
        space = dataclasses.replace(space, window_sides=(1, 4),
                                    max_cones_per_depth=WIDE_COUNTS)
        if area is not None:
            characterizations = with_area(characterizations, shape, area)
        model = explorer.throughput_model
        width = 121
        count = {"W-1": width - 1, "W": width, "W+1": width + 1,
                 "n-1": WIDE_COUNTS - 1, "n": WIDE_COUNTS}[at]
        window, depth = shape
        splits = [set(split) for split in space.level_splits()]
        group = (space.window_sides.index(window) * len(splits)
                 + splits.index({depth}))
        # the group's only cone, as the scalar oracle sums it
        cap = count * characterizations[shape].area_luts
        expected = (range(1, count + 1) if area is None
                    else range(count, WIDE_COUNTS + 1))
        for constraints in (DseConstraints(max_area_luts=cap),
                            DseConstraints(max_area_luts=cap,
                                           device_only=True)):
            oracle = scalar_exploration(space, characterizations, model, 128,
                                        96, constraints, usable)
            rows = oracle.row_index[oracle.row_index // WIDE_COUNTS == group]
            assert (rows % WIDE_COUNTS + 1).tolist() == list(expected)
            for materialize in ("admitted", "frontier"):
                result = explore_stream(space, characterizations, model, 128,
                                        96, constraints, usable,
                                        materialize=materialize)
                assert result.admitted_rows == oracle.admitted_rows
                assert (result.pruned_rows == oracle.area_pruned_rows
                        == space.size() - oracle.admitted_rows)
                assert np.array_equal(result.pareto_row_index,
                                      oracle.pareto_row_index)
                assert (serialized_points(result.pareto)
                        == serialized_points(oracle.pareto))
                assert serialized_points(
                    result.design_points) == serialized_points(
                        oracle.design_points if materialize == "admitted"
                        else oracle.pareto)
        assert cost_entry(space, characterizations,
                          model).area.shape[1] == width


class TestChunkAccounting:
    def test_chunks_cover_the_space_exactly_once(self, evaluation_inputs):
        explorer, space, characterizations, usable = evaluation_inputs
        for chunk_rows in (1, 4, 1000):
            streamed = explore_stream(space, characterizations,
                                      explorer.throughput_model, 128, 96,
                                      usable_luts=usable,
                                      chunk_rows=chunk_rows,
                                      materialize="admitted")
            assert streamed.admitted_rows == space.size()
            assert streamed.chunks_total == chunks_in(space, chunk_rows)
            assert streamed.chunks_skipped == 0
            assert streamed.peak_chunk_rows == min(chunk_rows,
                                                   space.max_cones_per_depth)

    def test_a_probed_suffix_keeps_chunk_bounds_on_the_grid(
            self, evaluation_inputs):
        """The suffix probe moves where a group's costing starts, not where
        its chunks are cut: a chunk is skipped only when it lies wholly
        below the suffix, and the first costed one is cut short."""
        explorer, space, characterizations, usable = evaluation_inputs
        model = explorer.throughput_model
        baseline = scalar_exploration(space, characterizations, model,
                                      128, 96)
        fps = 1.0 / baseline.seconds_per_frame
        floor = float(np.median(fps))
        n_counts, chunk_rows = space.max_cones_per_depth, 4
        starts = [int(np.argmax(passes)) if passes.any() else n_counts
                  for passes in (fps >= floor).reshape(-1, n_counts)]
        assert any(0 < start < n_counts and start % chunk_rows
                   for start in starts)
        sizes = [min(low + chunk_rows, n_counts) - max(low, start)
                 for start in starts
                 for low in range(0, n_counts, chunk_rows)]
        streamed = explore_stream(space, characterizations, model, 128, 96,
                                  DseConstraints(min_frames_per_second=floor),
                                  usable, chunk_rows=chunk_rows)
        assert streamed.chunks_total == len(sizes)
        assert streamed.chunks_skipped == sum(size <= 0 for size in sizes)
        assert streamed.peak_chunk_rows == max(sizes)
        assert streamed.throughput_pruned_rows == sum(starts)

    def test_a_cold_exploration_builds_each_context_once(
            self, evaluation_inputs, monkeypatch):
        """The cost-cache entry holds the contexts, so a cold exploration
        builds each once and a warm one, streamed or not, builds none."""
        built = []
        real_context = engine_module.group_context

        def recording_context(space, characterizations, window, split):
            built.append((window, split))
            return real_context(space, characterizations, window, split)

        monkeypatch.setattr(engine_module, "group_context",
                            recording_context)
        explorer, space, characterizations, usable = evaluation_inputs
        baseline = scalar_exploration(space, characterizations,
                                      explorer.throughput_model, 128, 96)
        floor = float(np.median(1.0 / baseline.seconds_per_frame))
        per_request = []
        # two-row chunks run the suffix probe on the table's contexts
        for materialize in ("frontier", "frontier", "admitted"):
            built.clear()
            result = explore_stream(
                space, characterizations, explorer.throughput_model, 128,
                96, DseConstraints(min_frames_per_second=floor), usable,
                chunk_rows=2, materialize=materialize)
            assert result.pareto
            per_request.append(sorted(built))
        assert per_request == [sorted(
            (window, tuple(split)) for window in space.window_sides
            for split in space.level_splits()), [], []]

    def test_invalid_arguments_rejected(self, evaluation_inputs):
        explorer, space, characterizations, _ = evaluation_inputs
        with pytest.raises(ValueError, match="chunk_rows"):
            explore_stream(space, characterizations,
                           explorer.throughput_model, 128, 96, chunk_rows=0)


class TestExplorerIntegration:
    def test_stream_true_matches_in_memory_pareto(self, igf_kernel):
        explorer = small_explorer(igf_kernel)
        streamed = explorer.explore(6, 128, 96, stream=True)
        in_memory = explorer.explore(6, 128, 96)
        assert (serialized_points(streamed.pareto)
                == serialized_points(in_memory.pareto))
        assert streamed.streaming is not None
        assert in_memory.streaming is None
        # streamed results materialize only the frontier
        assert streamed.design_points == streamed.pareto
        payload = streamed.to_dict()
        assert all(isinstance(entry, int) for entry in payload["pareto"])

    def test_streaming_metadata_keys(self, igf_kernel):
        streamed = small_explorer(igf_kernel).explore(6, 128, 96,
                                                      stream=True)
        assert set(streamed.streaming) == {
            "space_rows", "admitted_rows", "pruned_rows",
            "throughput_pruned_rows", "pruned_fraction", "chunks_total",
            "chunks_skipped", "peak_chunk_rows"}

    def test_a_streamed_result_does_not_depend_on_the_cost_cache(self):
        # the second run hits the cost table the first one cached: a
        # replayed job must still serialize byte for byte the same
        session = Session()
        workload = Workload.from_algorithm(
            "blur", window_sides=(1, 2, 3), max_depth=2,
            max_cones_per_depth=50, stream=True)
        first = session.run(workload).to_dict()
        session.evict(workload)
        reset_stream_stats()
        assert session.run(workload).to_dict() == first
        assert stream_stats()["costs"]["hits"] == 1

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

    def test_in_memory_explorations_are_counted_and_reuse_the_cost_table(
            self, igf_kernel):
        """An in-memory exploration goes through ``explore_stream`` too,
        so it shows in ``stream_stats()`` and a frame change re-uses its
        cached cost table."""
        explorer = small_explorer(igf_kernel)
        explorer.characterize_cones(6)
        reset_stream_stats()
        first = explorer.explore(6, 128, 96)
        second = explorer.explore(6, 640, 480)
        assert first.streaming is None and second.streaming is None
        stats = stream_stats()
        assert stats["runs"] == 2
        assert (stats["costs"]["misses"], stats["costs"]["hits"]) == (1, 1)
        assert stats["chunks_materialized"] > 0


def count_built_rows(monkeypatch):
    """The number of rows handed to ``build_points`` per call, recorded
    in the returned list."""
    handed = []
    real = engine_module.build_points

    def counting(*args, **kwargs):
        handed.append(len(kwargs["counts"]))
        return real(*args, **kwargs)

    monkeypatch.setattr(engine_module, "build_points", counting)
    return handed


#: A small in-memory blur space and a what-if request on it.
DEFERRED_SPACE = dict(iterations=6, window_sides=(1, 2, 3, 4), max_depth=3,
                      max_cones_per_depth=8)
DEFERRED_REQUEST = dict(frame_width=640, frame_height=480,
                        onchip_port_elements_per_cycle=8,
                        constraints=DseConstraints(
                            min_frames_per_second=24.0))


class TestDeferredPoints:
    """An exploration builds its Pareto members' design points only; the
    other admitted ones are built on the first read of ``design_points``,
    once per computed result, around the very Pareto members."""

    @pytest.fixture
    def warm(self):
        """A session that ran the space once, and the what-if request."""
        session = Session()
        workload = Workload.from_algorithm("blur", **DEFERRED_SPACE)
        session.run(workload)
        return session, workload.replace(**DEFERRED_REQUEST)

    def test_a_caller_that_reads_only_the_front_builds_only_the_front(
            self, warm, monkeypatch):
        session, workload = warm
        handed = count_built_rows(monkeypatch)
        result = session.run(workload)
        assert len(result.pareto) > 1
        assert sum(handed) == len(result.pareto)
        points = result.design_points
        assert sum(handed) == len(points) > len(result.pareto)
        handed.clear()
        again = session.run(workload)  # served from the result layer
        assert again.design_points == points
        assert again.design_points is not points
        assert not handed

    def test_the_points_read_are_the_oracles_and_hold_the_front(self,
                                                                  warm):
        session, workload = warm
        explorer = session.explorer_for(workload)
        characterizations, _ = explorer.characterize_cones(
            workload.iterations)
        space = explorer._space(workload.iterations)
        oracle = scalar_exploration(
            space, characterizations,
            explorer._throughput_model_for(
                workload.onchip_port_elements_per_cycle),
            workload.frame_width, workload.frame_height,
            workload.constraints, explorer.device.usable_capacity.luts)
        result = session.run(workload)
        twins = [public_twin(space, row, point) for row, point
                 in zip(oracle.row_index.tolist(), oracle.design_points)]
        assert_indistinguishable(result.design_points, twins)
        position = {row: index for index, row
                    in enumerate(oracle.row_index.tolist())}
        members = [position[row] for row in oracle.pareto_row_index.tolist()]
        assert all(member is result.design_points[index]
                   for member, index in zip(result.pareto, members))
        payload = result.to_dict()["exploration"]
        assert payload["pareto"] == members
        assert all(type(entry) is int for entry in payload["pareto"])

    def test_an_explorer_result_reads_like_one_built_eagerly(
            self, igf_kernel):
        """Straight from ``explore``: the unread result equals, prints and
        serializes like one whose points were read first, and a caller who
        empties its ``pareto`` list before reading leaves the points
        whole."""
        explorer = small_explorer(igf_kernel)
        read = explorer.explore(6, 128, 96)
        assert read.design_points
        unread = explorer.explore(6, 128, 96)
        gutted = explorer.explore(6, 128, 96)
        front = list(gutted.pareto)
        gutted.pareto.clear()
        assert repr(unread) == repr(read)
        assert unread == read
        assert unread.to_dict() == read.to_dict()
        assert gutted.design_points == read.design_points
        assert all(any(member is point for point in gutted.design_points)
                   for member in front)
