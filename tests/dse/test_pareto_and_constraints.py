"""Unit tests for Pareto extraction, design points and constraints."""

import numpy as np
import pytest

from repro.architecture.template import ConeArchitecture
from repro.dse.constraints import DseConstraints
from repro.dse.design_point import DesignPoint
from repro.dse.pareto import is_dominated, pareto_front, pareto_indices
from repro.estimation.throughput_model import ArchitecturePerformance


def make_point(area, spf, fits=True, window=3, depth=2):
    architecture = ConeArchitecture(
        kernel_name="blur", window_side=window, level_depths=[depth],
        cone_counts={depth: 1}, radius=1)
    performance = ArchitecturePerformance(
        architecture_label=architecture.label(),
        clock_hz=1e8,
        tiles_per_frame=100,
        compute_cycles_per_tile=10,
        transfer_cycles_per_tile=5,
        cycles_per_tile=10,
        seconds_per_frame=spf,
        frames_per_second=1.0 / spf,
        offchip_bytes_per_frame=1000,
        compute_bound=True,
    )
    return DesignPoint(architecture=architecture, area_luts=area,
                       area_estimated=True, performance=performance,
                       fits_device=fits)


class TestDesignPoint:
    def test_derived_properties(self):
        point = make_point(25_000, 0.02, window=4, depth=3)
        assert point.kilo_luts == pytest.approx(25.0)
        assert point.frames_per_second == pytest.approx(50.0)
        assert point.window_area == 16
        assert point.primary_depth == 3
        assert point.cone_count == 1
        assert "kLUT" in point.summary()

    def test_summary_flags_oversized_designs(self):
        point = make_point(1e6, 0.01, fits=False)
        assert "exceeds device" in point.summary()


class TestDomination:
    def test_strict_domination(self):
        good = make_point(100, 1.0)
        bad = make_point(200, 2.0)
        assert is_dominated(bad, good)
        assert not is_dominated(good, bad)

    def test_trade_off_points_do_not_dominate(self):
        small_slow = make_point(100, 2.0)
        big_fast = make_point(200, 1.0)
        assert not is_dominated(small_slow, big_fast)
        assert not is_dominated(big_fast, small_slow)

    def test_equal_points_do_not_dominate(self):
        a = make_point(100, 1.0)
        b = make_point(100, 1.0)
        assert not is_dominated(a, b)


class TestParetoFront:
    def test_front_is_sorted_and_non_dominated(self):
        points = [make_point(a, s) for a, s in
                  [(100, 5.0), (150, 3.0), (200, 4.0), (300, 1.0), (400, 1.0)]]
        front = pareto_front(points)
        areas = [p.area_luts for p in front]
        times = [p.seconds_per_frame for p in front]
        assert areas == sorted(areas)
        assert times == sorted(times, reverse=True)
        assert {p.area_luts for p in front} == {100, 150, 300}

    def test_front_of_empty_set(self):
        assert pareto_front([]) == []

    def test_every_input_point_is_dominated_or_on_front(self):
        points = [make_point(a, s) for a, s in
                  [(100, 5.0), (120, 4.5), (130, 6.0), (200, 2.0), (500, 2.5)]]
        front = pareto_front(points)
        for point in points:
            on_front = any(point is f for f in front)
            dominated = any(is_dominated(point, f) for f in front)
            assert on_front or dominated


def reference_scan(points):
    """Longhand sort-and-scan: the Pareto front of a stable sort by
    (area, time) and a running time minimum."""
    ordered = sorted(points, key=lambda p: (p.area_luts, p.seconds_per_frame))
    front, best_time = [], float("inf")
    for point in ordered:
        if point.seconds_per_frame < best_time:
            front.append(point)
            best_time = point.seconds_per_frame
    return front


class TestTieBreakingDeterminism:
    """Equal (area, time) points keep one representative — the first seen
    in the input (the sort is stable)."""

    def test_small_input_keeps_first_seen_duplicate(self):
        first = make_point(100, 1.0)
        second = make_point(100, 1.0)
        front = pareto_front([first, second])
        assert len(front) == 1 and front[0] is first
        # ... and input order, not construction order, decides
        front = pareto_front([second, first])
        assert len(front) == 1 and front[0] is second

    def test_ties_keep_the_longhand_scans_representatives(self):
        """On an input full of duplicate objectives, the front keeps the
        very objects the longhand scan keeps."""
        pairs = [(100 + 10 * (i % 7), 2.5 - 0.25 * (i % 7) + 0.5 * (i % 2))
                 for i in range(60)]
        points = [make_point(a, t) for a, t in pairs]
        front = pareto_front(points)
        assert len(front) == 7  # one member per area, each duplicated
        assert [id(p) for p in front] == [id(p) for p in reference_scan(points)]

    def test_pareto_indices_matches_pareto_front_order(self):
        pairs = [(150, 3.0), (100, 5.0), (100, 5.0), (300, 1.0), (150, 3.0),
                 (300, 1.0), (120, 4.0)]
        points = [make_point(a, t) for a, t in pairs]
        order = pareto_indices(np.array([a for a, _ in pairs], dtype=float),
                               np.array([t for _, t in pairs], dtype=float))
        assert [points[i] for i in order] == pareto_front(points)
        # first-seen representatives: the duplicate rows keep the lower index
        assert list(order) == [1, 6, 0, 3]


class TestNonFiniteRejection:
    """NaN/inf objectives are estimation bugs; the extraction refuses
    them."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    @pytest.mark.parametrize("objective", ["area", "time"])
    def test_pareto_front_rejects_non_finite(self, bad, objective):
        points = [make_point(100, 1.0),
                  make_point(bad, 1.0) if objective == "area"
                  else make_point(100, bad)]
        with pytest.raises(ValueError, match="finite"):
            pareto_front(points)

    def test_pareto_indices_rejects_non_finite_and_bad_shapes(self):
        with pytest.raises(ValueError, match="finite"):
            pareto_indices(np.array([1.0, float("inf")]),
                           np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="equal length"):
            pareto_indices(np.array([1.0, 2.0]), np.array([1.0]))

    def test_empty_columns_yield_empty_front(self):
        assert pareto_indices(np.empty(0), np.empty(0)).size == 0


class TestConstraints:
    def test_default_admits_everything(self):
        assert DseConstraints().admits(make_point(100, 1.0, fits=False))

    def test_throughput_bound(self):
        constraints = DseConstraints(min_frames_per_second=30.0)
        assert constraints.admits(make_point(100, 1 / 60))
        assert not constraints.admits(make_point(100, 1 / 10))

    def test_area_bound_and_device_only(self):
        constraints = DseConstraints(max_area_luts=150, device_only=True)
        assert constraints.admits(make_point(100, 1.0, fits=True))
        assert not constraints.admits(make_point(200, 1.0, fits=True))
        assert not constraints.admits(make_point(100, 1.0, fits=False))
