"""Unit tests for architecture-space enumeration."""

import os
import sys

import pytest

# the per-point enumeration is the scalar oracle's, beside the dse tests
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "dse"))
from scalar_oracle import enumerate_architectures, enumerate_groups  # noqa: E402

from repro.architecture.enumeration import (
    ArchitectureSpace,
    count_level_splits,
    single_depth_split,
)


def level_splits(total_iterations, max_depth):
    return ArchitectureSpace(kernel_name="blur",
                             total_iterations=total_iterations, radius=1,
                             max_depth=max_depth).level_splits()


class TestSingleDepthSplit:
    def test_exact_divisor(self):
        assert single_depth_split(10, 5) == [5, 5]
        assert single_depth_split(10, 2) == [2, 2, 2, 2, 2]
        assert single_depth_split(10, 1) == [1] * 10

    def test_remainder_level_added(self):
        """Non-divisor depths need an extra smaller level (Figure 7 discussion)."""
        assert single_depth_split(10, 3) == [3, 3, 3, 1]
        assert single_depth_split(10, 4) == [4, 4, 2]

    def test_depth_larger_than_total(self):
        assert single_depth_split(3, 5) == [3]

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            single_depth_split(0, 1)
        with pytest.raises(ValueError):
            single_depth_split(5, 0)


class TestLevelSplits:
    def test_uniform_splits_cover_each_depth(self):
        splits = level_splits(10, max_depth=5)
        assert [5, 5] in splits
        assert [3, 3, 3, 1] in splits
        assert len(splits) == 5

    def test_max_depth_respected(self):
        for split in level_splits(10, max_depth=3):
            assert max(split) <= 3


class TestArchitectureSpace:
    def make_space(self, **overrides):
        kwargs = dict(kernel_name="blur", total_iterations=10, radius=1,
                      window_sides=(2, 4), max_depth=3, max_cones_per_depth=4)
        kwargs.update(overrides)
        return ArchitectureSpace(**kwargs)

    def test_distinct_shapes(self):
        space = self.make_space()
        shapes = space.distinct_shapes()
        assert (2, 1) in shapes and (4, 3) in shapes
        assert all(depth <= 3 for _, depth in shapes)

    def test_architecture_count_matches_size(self):
        space = self.make_space()
        architectures = list(enumerate_architectures(space))
        assert len(architectures) == space.size()

    def test_every_architecture_is_feasible_and_right_iterations(self):
        space = self.make_space()
        for window, split, group in enumerate_groups(space):
            for count, architecture in enumerate(group, start=1):
                assert architecture.total_iterations == 10
                architecture.validate()
                # the trusted materialization builds the same candidate
                assert space.materialize_row_parts(
                    window, split, count) == architecture

    def test_primary_depth_scales_with_the_count_axis(self):
        space = self.make_space()
        for _window, _split, group in enumerate_groups(space):
            primary = max(group[0].distinct_depths)
            assert [architecture.cone_counts[primary]
                    for architecture in group] == [1, 2, 3, 4]
            assert all(count == 1 for architecture in group
                       for depth, count in architecture.cone_counts.items()
                       if depth != primary)


class TestCountLevelSplits:
    """O(1) counting must agree with the materializing enumeration."""

    def test_matches_enumeration(self):
        for total in range(1, 9):
            for max_depth in [None] + list(range(1, total + 2)):
                expected = len(level_splits(total, max_depth))
                assert count_level_splits(total, max_depth) == expected

    def test_counts_a_space_too_large_to_enumerate(self):
        # huge uniform spaces are counted in O(1)
        assert count_level_splits(10**6, max_depth=5) == 5
        assert count_level_splits(10**6) == 10**6

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            count_level_splits(0)


class TestConstantTimeSize:
    def make_space(self, **overrides):
        kwargs = dict(kernel_name="blur", total_iterations=10, radius=1,
                      window_sides=(2, 4), max_depth=3, max_cones_per_depth=4)
        kwargs.update(overrides)
        return ArchitectureSpace(**kwargs)

    def test_size_matches_enumeration_across_knobs(self):
        for max_depth in (1, 3, None):
            space = self.make_space(max_depth=max_depth)
            assert space.size() == len(list(enumerate_architectures(space)))

    def test_million_candidate_size_without_materialization(self):
        space = self.make_space(window_sides=tuple(range(1, 10)),
                                max_depth=5, max_cones_per_depth=23_000)
        assert space.size() == 9 * 5 * 23_000  # > 10^6, computed instantly
