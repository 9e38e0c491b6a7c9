"""Unit tests for cone shapes and the architectural template."""

import pytest

from repro.architecture.cone import ConeGeometry, ConeShape
from repro.architecture.template import ConeArchitecture, FeasibilityError


class TestConeShape:
    def test_window_area_and_label(self):
        shape = ConeShape(window_side=4, depth=3)
        assert shape.window_area == 16
        assert shape.label("blur") == "blur_16_d3"

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ConeShape(0, 1)
        with pytest.raises(ValueError):
            ConeShape(1, 0)

    def test_ordering(self):
        assert ConeShape(1, 1) < ConeShape(2, 1)


class TestConeGeometry:
    def test_figure1_geometry(self):
        """Figure 1 of the paper: depth 2, window of 4 elements."""
        geometry = ConeShape(2, 2).geometry(radius=1)
        assert geometry.input_side == 6
        assert geometry.input_elements == 36
        assert geometry.output_elements == 4
        assert geometry.computed_elements == 20
        assert geometry.recompute_overhead == pytest.approx(5.0)

    def test_components_scale_counts(self):
        scalar = ConeShape(3, 2).geometry(radius=1, components=1)
        vector = ConeShape(3, 2).geometry(radius=1, components=2)
        assert vector.input_elements == 2 * scalar.input_elements
        assert vector.computed_elements == 2 * scalar.computed_elements

    def test_domain_roundtrip(self):
        geometry = ConeShape(3, 2).geometry(radius=1)
        domain = geometry.domain()
        assert domain.depth == 2
        assert domain.computed_elements == geometry.computed_elements


class TestConeArchitecture:
    def make(self, **overrides):
        kwargs = dict(kernel_name="blur", window_side=3, level_depths=[2, 2, 1],
                      cone_counts={2: 2, 1: 1}, radius=1)
        kwargs.update(overrides)
        return ConeArchitecture(**kwargs)

    def test_basic_structure(self):
        architecture = self.make()
        assert architecture.total_iterations == 5
        assert architecture.distinct_depths == [1, 2]
        assert architecture.total_cone_instances == 3
        assert len(architecture.levels) == 3
        assert len(architecture.shapes()) == 2

    def test_feasibility_rule(self):
        """The paper's rule: at least one cone of each required depth."""
        with pytest.raises(FeasibilityError):
            self.make(cone_counts={2: 2})
        with pytest.raises(FeasibilityError):
            self.make(cone_counts={2: 2, 1: 0})

    def test_empty_levels_rejected(self):
        with pytest.raises(FeasibilityError):
            self.make(level_depths=[])

    def test_region_sides_shrink_towards_output(self):
        architecture = self.make()
        sides = [architecture.region_side_after_level(i) for i in range(3)]
        assert sides == [3 + 2 * 3, 3 + 2 * 1, 3]
        assert architecture.input_region_side() == 3 + 2 * 5

    def test_executions_per_level(self):
        architecture = self.make()
        executions = architecture.executions_per_level()
        assert executions == [9, 4, 1]

    def test_offchip_traffic_per_tile(self):
        architecture = self.make()
        read, written = architecture.offchip_elements_per_tile()
        assert read == 13 * 13
        assert written == 9
        read_with_g, _ = architecture.offchip_elements_per_tile(readonly_components=1)
        assert read_with_g == 2 * 13 * 13

    def test_onchip_footprint_is_much_smaller_than_frame(self):
        """The key property of the cone template (Section 2.2)."""
        architecture = self.make(window_side=8)
        assert architecture.onchip_elements() < 3000
        assert architecture.onchip_elements() < 1024 * 768 / 100

    def test_label_and_describe(self):
        architecture = self.make()
        assert architecture.label() == "blur_9_d2x2x1"
        description = architecture.describe()
        assert "2x depth-2" in description and "1x depth-1" in description

    def test_geometry_lookup(self):
        architecture = self.make()
        assert architecture.geometry(2).shape.depth == 2

    def test_invalid_level_index(self):
        with pytest.raises(IndexError):
            self.make().region_side_after_level(7)
