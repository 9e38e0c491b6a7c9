"""Unit tests for the Equation-1 area model and its calibration."""

import pytest

from repro.estimation.area_model import (
    AreaModelValidation,
    CalibrationPoint,
    RegisterAreaModel,
    validate_against_synthesis,
)
from repro.ir.operators import DataFormat, default_library


def linear_points(slope, intercept, registers):
    return [CalibrationPoint(key=i + 1, register_count=r,
                             actual_area_luts=intercept + slope * r)
            for i, r in enumerate(registers)]


class TestCalibration:
    def test_two_point_calibration_recovers_slope(self):
        model = RegisterAreaModel(size_reg_luts=10.0)
        points = linear_points(25.0, 100.0, [50, 120])
        alpha = model.calibrate(points)
        assert alpha == pytest.approx(2.5)

    def test_least_squares_with_more_points(self):
        model = RegisterAreaModel(size_reg_luts=10.0)
        points = linear_points(30.0, 0.0, [10, 20, 30, 40])
        alpha = model.calibrate(points)
        assert alpha == pytest.approx(3.0)

    def test_needs_two_points(self):
        model = RegisterAreaModel()
        with pytest.raises(ValueError):
            model.calibrate(linear_points(1.0, 0.0, [10]))

    def test_rejects_identical_register_counts(self):
        model = RegisterAreaModel()
        points = [CalibrationPoint(1, 50, 100.0), CalibrationPoint(2, 50, 120.0)]
        with pytest.raises(ValueError):
            model.calibrate(points)

    def test_rejects_non_positive_alpha(self):
        model = RegisterAreaModel(size_reg_luts=10.0)
        decreasing = [CalibrationPoint(1, 50, 500.0), CalibrationPoint(2, 100, 100.0)]
        with pytest.raises(ValueError, match="non-positive alpha"):
            model.calibrate(decreasing)

    def test_default_size_reg_from_library(self):
        model = RegisterAreaModel(default_library(DataFormat.FIXED16))
        assert model.size_reg_luts > 0


class TestEstimation:
    def test_estimate_requires_calibration(self):
        model = RegisterAreaModel()
        with pytest.raises(RuntimeError):
            model.estimate_series({1: 10})
        with pytest.raises(RuntimeError):
            _ = RegisterAreaModel().anchor

    def test_exact_on_affine_data(self):
        """On perfectly affine area data Equation 1 is exact."""
        model = RegisterAreaModel(size_reg_luts=8.0)
        registers = {1: 20, 4: 60, 9: 130, 16: 230, 25: 360}
        actual = {k: 500.0 + 12.0 * r for k, r in registers.items()}
        model.calibrate([CalibrationPoint(1, registers[1], actual[1]),
                         CalibrationPoint(4, registers[4], actual[4])])
        estimates = model.estimate_series(registers)
        for estimate in estimates:
            assert estimate.estimated_area_luts == pytest.approx(actual[estimate.key])

    def test_anchor_is_reproduced_exactly(self):
        model = RegisterAreaModel(size_reg_luts=8.0)
        model.calibrate(linear_points(10.0, 50.0, [10, 30]))
        estimates = {e.key: e for e in model.estimate_series({1: 10, 2: 30, 3: 90})}
        assert estimates[1].estimated_area_luts == pytest.approx(50.0 + 100.0)

    def test_backward_extrapolation(self):
        model = RegisterAreaModel(size_reg_luts=10.0)
        model.calibrate([CalibrationPoint(4, 100, 2000.0),
                         CalibrationPoint(9, 200, 3000.0)])
        estimates = {e.key: e.estimated_area_luts
                     for e in model.estimate_series({1: 50, 4: 100, 9: 200})}
        assert estimates[1] == pytest.approx(1500.0)


class TestValidation:
    def test_error_statistics(self):
        validation = AreaModelValidation(depth=2)
        validation.add(1, 100.0, 103.0)
        validation.add(4, 200.0, 190.0)
        assert validation.max_error_percent == pytest.approx(5.0)
        assert validation.mean_error_percent == pytest.approx(4.0)

    def test_empty_validation(self):
        validation = AreaModelValidation(depth=1)
        assert validation.max_error_percent == 0.0
        assert validation.mean_error_percent == 0.0

    def test_validate_against_synthesis_alignment(self):
        report = validate_against_synthesis({1: 100.0, 4: 200.0, 9: 300.0},
                                            {1: 110.0, 4: 210.0}, depth=3)
        assert len(report.entries) == 2
        assert report.depth == 3


@pytest.mark.slow
class TestPaperAccuracyClaim:
    """Figures 5 and 8: the model calibrated on two syntheses stays accurate."""

    @pytest.mark.parametrize("algorithm,iterations,max_error", [
        ("blur", 10, 8.0),     # paper: max 6.58%, average 2.93%
        ("chamb", 11, 11.0),   # paper: max 6.36%, average 2.19%
    ])
    def test_estimation_error_stays_small(self, algorithm, iterations, max_error):
        from repro.algorithms import get_algorithm
        from repro.dse.explorer import DesignSpaceExplorer

        spec = get_algorithm(algorithm)
        explorer = DesignSpaceExplorer(spec.kernel(), synthesize_all=True,
                                       window_sides=(1, 2, 3, 5, 7, 9),
                                       max_depth=3)
        _, validations = explorer.characterize_cones(iterations)
        for validation in validations.values():
            assert validation.max_error_percent < max_error
            assert validation.mean_error_percent < max_error / 2
