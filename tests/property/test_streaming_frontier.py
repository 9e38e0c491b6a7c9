"""Property suite for the streaming Pareto accumulator (ISSUE 7; parallel
``merge`` reduction from ISSUE 9).

The contract under test: folding any chunking, in any chunk order, of any
objective arrays into :class:`repro.dse.engine.StreamingFrontier` yields
exactly ``pareto_indices`` of the concatenated arrays — including the
duplicate-(area, time) first-seen tie-break — and non-finite objectives are
rejected just like the batch path rejects them.  The ``merge`` reduction is
associative and order-insensitive: fanning the chunks across any worker
count, with any (shuffled) chunk-to-worker assignment, and merging the
private accumulators in any order is bit-identical to the serial fold.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.dse.pareto import pareto_indices
from repro.dse.engine import StreamingFrontier

#: Objectives drawn from a small grid so duplicate (area, time) pairs are
#: common — the tie-break is the part a naive accumulator gets wrong.
objective_arrays = st.lists(
    st.tuples(st.integers(min_value=1, max_value=12).map(float),
              st.integers(min_value=1, max_value=12).map(lambda v: v / 7.0)),
    min_size=0, max_size=60)


def fold(pairs, chunk_sizes, order_seed):
    """Split ``pairs`` into chunks of the given sizes, shuffle the chunks,
    and fold them into a StreamingFrontier."""
    areas = np.asarray([a for a, _ in pairs], dtype=np.float64)
    times = np.asarray([t for _, t in pairs], dtype=np.float64)
    rows = np.arange(len(pairs), dtype=np.int64)
    boundaries = []
    start = 0
    sizes = iter(chunk_sizes or [max(1, len(pairs))])
    while start < len(pairs):
        size = max(1, next(sizes, 1))
        boundaries.append((start, min(start + size, len(pairs))))
        start += size
    rng = np.random.default_rng(order_seed)
    rng.shuffle(boundaries)
    frontier = StreamingFrontier()
    for lo, hi in boundaries:
        frontier.update(areas[lo:hi], times[lo:hi], rows[lo:hi])
    return areas, times, frontier


@given(objective_arrays,
       st.lists(st.integers(min_value=1, max_value=7), max_size=30),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_frontier_equals_batch_pareto_for_any_chunking_and_order(
        pairs, chunk_sizes, order_seed):
    areas, times, frontier = fold(pairs, chunk_sizes, order_seed)
    expected = pareto_indices(areas, times)
    got_area, got_time, got_order = frontier.result()
    assert np.array_equal(got_order, expected)
    # the kept triples are the originals, bit for bit, in pareto order
    assert np.array_equal(got_area, areas[expected])
    assert np.array_equal(got_time, times[expected])


@given(st.integers(min_value=1, max_value=10),
       st.integers(min_value=2, max_value=6))
@settings(max_examples=40, deadline=None)
def test_duplicate_pairs_keep_first_seen_even_when_it_arrives_last(
        value, copies):
    """All-identical (area, time) rows: the representative must be the
    smallest global row, whatever order the chunks arrive in."""
    frontier = StreamingFrontier()
    for row in reversed(range(copies)):  # highest row first
        frontier.update(np.asarray([float(value)]),
                        np.asarray([float(value)]),
                        np.asarray([row], dtype=np.int64))
    _, _, orders = frontier.result()
    assert orders.tolist() == [0]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("column", ["area", "time"])
def test_non_finite_objectives_are_rejected(bad, column):
    frontier = StreamingFrontier()
    area = np.asarray([1.0, bad if column == "area" else 2.0])
    time = np.asarray([1.0, bad if column == "time" else 2.0])
    with pytest.raises(ValueError, match="finite"):
        frontier.update(area, time, np.asarray([0, 1], dtype=np.int64))
    # the failed update must not have corrupted the state
    assert len(frontier) == 0


def test_mismatched_shapes_are_rejected():
    frontier = StreamingFrontier()
    with pytest.raises(ValueError, match="equal length"):
        frontier.update(np.asarray([1.0, 2.0]), np.asarray([1.0]),
                        np.asarray([0], dtype=np.int64))


def chunk_boundaries(n_rows, chunk_sizes):
    boundaries = []
    start = 0
    sizes = iter(chunk_sizes or [max(1, n_rows)])
    while start < n_rows:
        size = max(1, next(sizes, 1))
        boundaries.append((start, min(start + size, n_rows)))
        start += size
    return boundaries


@given(objective_arrays,
       st.lists(st.integers(min_value=1, max_value=7), max_size=30),
       st.sampled_from([1, 2, 4]),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_merge_matches_serial_fold_for_any_worker_assignment(
        pairs, chunk_sizes, workers, order_seed):
    """Shuffle the chunks, deal them round-robin to ``workers`` private
    accumulators, merge in a seeded random order: bit-identical to the
    one-accumulator serial fold."""
    areas = np.asarray([a for a, _ in pairs], dtype=np.float64)
    times = np.asarray([t for _, t in pairs], dtype=np.float64)
    rows = np.arange(len(pairs), dtype=np.int64)
    boundaries = chunk_boundaries(len(pairs), chunk_sizes)
    rng = np.random.default_rng(order_seed)
    rng.shuffle(boundaries)

    serial = StreamingFrontier()
    for lo, hi in boundaries:
        serial.update(areas[lo:hi], times[lo:hi], rows[lo:hi])

    frontiers = [StreamingFrontier() for _ in range(workers)]
    for index, (lo, hi) in enumerate(boundaries):
        frontiers[index % workers].update(areas[lo:hi], times[lo:hi],
                                          rows[lo:hi])
    merged = StreamingFrontier()
    for worker in rng.permutation(workers):
        merged.merge(frontiers[worker])

    merged_area, merged_time, merged_rows = merged.result()
    serial_area, serial_time, serial_rows = serial.result()
    assert np.array_equal(merged_rows, serial_rows)
    assert np.array_equal(merged_area, serial_area)
    assert np.array_equal(merged_time, serial_time)


@given(objective_arrays,
       st.sampled_from([2, 4]),
       st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_merge_is_associative_on_the_frontier(pairs, workers, order_seed):
    """(A ∪ B) ∪ C == A ∪ (B ∪ C): merging left-to-right equals merging a
    pre-merged right spine — pareto(pareto(X) ∪ pareto(Y)) == pareto(X ∪ Y)
    made operational."""
    areas = np.asarray([a for a, _ in pairs], dtype=np.float64)
    times = np.asarray([t for _, t in pairs], dtype=np.float64)
    rows = np.arange(len(pairs), dtype=np.int64)
    rng = np.random.default_rng(order_seed)
    assignment = rng.integers(0, workers + 1, size=len(pairs))
    parts = []
    for worker in range(workers + 1):
        member = assignment == worker
        part = StreamingFrontier()
        part.update(areas[member], times[member], rows[member])
        parts.append(part)

    def clone(frontier):
        copy = StreamingFrontier()
        copy.merge(frontier)
        return copy

    left = clone(parts[0])
    for part in parts[1:]:
        left.merge(part)
    right_spine = clone(parts[-1])
    for part in reversed(parts[:-1]):
        merged = clone(part)
        merged.merge(right_spine)
        right_spine = merged
    assert np.array_equal(left.result()[2], right_spine.result()[2])
