"""Unit tests for architecture-space enumeration."""

import pytest

from repro.architecture.enumeration import (
    ArchitectureSpace,
    count_level_splits,
    enumerate_level_splits,
    single_depth_split,
)


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
        splits = enumerate_level_splits(10, max_depth=5)
        assert [5, 5] in splits
        assert [3, 3, 3, 1] in splits
        assert len(splits) == 5

    def test_max_depth_respected(self):
        for split in enumerate_level_splits(10, max_depth=3):
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
        architectures = list(space.architectures())
        assert len(architectures) == space.size()

    def test_every_architecture_is_feasible_and_right_iterations(self):
        for architecture in self.make_space().architectures():
            assert architecture.total_iterations == 10
            architecture.validate()

    def test_primary_depth_scales_with_count_choice(self):
        space = self.make_space()
        architectures = list(space.architectures(cone_count_choices=[3]))
        for architecture in architectures:
            primary = max(architecture.distinct_depths)
            assert architecture.cone_counts[primary] == 3


class TestCountLevelSplits:
    """O(1) counting must agree with the materializing enumeration."""

    def test_matches_enumeration(self):
        for total in range(1, 9):
            for max_depth in [None] + list(range(1, total + 2)):
                expected = len(enumerate_level_splits(total, max_depth))
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
            assert space.size() == len(list(space.architectures()))

    def test_size_with_count_choices(self):
        space = self.make_space()
        choices = [1, 3]
        assert space.size(choices) == len(
            list(space.architectures(cone_count_choices=choices)))

    def test_million_candidate_size_without_materialization(self):
        space = self.make_space(window_sides=tuple(range(1, 10)),
                                max_depth=5, max_cones_per_depth=23_000)
        assert space.size() == 9 * 5 * 23_000  # > 10^6, computed instantly
