"""The register-based incremental area model (Equation 1 of the paper).

    A_est(i) = A_est(i-1) + (Reg_i - Reg_{i-1}) * Size_reg * alpha

``Reg_i`` is the number of registers of the cone with output window size
``i`` — known as soon as the VHDL is generated with data reuse enforced, no
synthesis needed.  ``Size_reg`` is the average area of one register on the
target fabric, and ``alpha`` captures the degree of logic reuse the synthesis
backend achieves; it is calibrated by interpolating two (or more) reference
syntheses, and the accuracy of the model grows with the number of reference
points the designer is willing to pay for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.ir.operators import OperatorLibrary, default_library


@dataclass(frozen=True)
class CalibrationPoint:
    """One reference synthesis: the register count and the synthesised area."""

    key: int                 # ordering key, e.g. the output window area
    register_count: int
    actual_area_luts: float


@dataclass(frozen=True)
class AreaEstimate:
    """Model output for one cone."""

    key: int
    register_count: int
    estimated_area_luts: float


class RegisterAreaModel:
    """Equation-1 estimator for a family of cones of a given depth.

    The family is indexed by an integer ``key`` (the output window area in
    the paper's figures).  The model is anchored at the smallest calibration
    point and extended in both directions using the register deltas.
    """

    def __init__(self, library: Optional[OperatorLibrary] = None,
                 size_reg_luts: Optional[float] = None) -> None:
        lib = library or default_library()
        register = lib.register_resources
        #: Average area contribution of one register (the Size_reg constant).
        self.size_reg_luts = (size_reg_luts if size_reg_luts is not None
                              else register.luts + 0.5 * register.ffs / 2.0)
        self.alpha: Optional[float] = None
        self._calibration: List[CalibrationPoint] = []

    # ------------------------------------------------------------------ #
    # calibration

    def calibrate(self, points: Sequence[CalibrationPoint]) -> float:
        """Fit alpha from two or more reference syntheses.

        With exactly two points alpha is the interpolation of the paper; with
        more points it is the least-squares slope of area against
        ``register_count * Size_reg``, which is the natural generalisation
        (more syntheses, better accuracy).
        """
        if len(points) < 2:
            raise ValueError("alpha calibration needs at least two synthesis points")
        ordered = sorted(points, key=lambda p: p.key)
        if len({p.register_count for p in ordered}) < 2:
            raise ValueError("calibration points must have distinct register counts")

        if len(ordered) == 2:
            first, second = ordered
            delta_area = second.actual_area_luts - first.actual_area_luts
            delta_reg = second.register_count - first.register_count
            alpha = delta_area / (delta_reg * self.size_reg_luts)
        else:
            mean_reg = sum(p.register_count for p in ordered) / len(ordered)
            mean_area = sum(p.actual_area_luts for p in ordered) / len(ordered)
            numerator = sum((p.register_count - mean_reg)
                            * (p.actual_area_luts - mean_area) for p in ordered)
            denominator = sum((p.register_count - mean_reg) ** 2 for p in ordered)
            alpha = numerator / denominator / self.size_reg_luts

        if alpha <= 0:
            raise ValueError(
                f"calibration produced a non-positive alpha ({alpha:.4f}); the "
                "reference syntheses are inconsistent"
            )
        self.alpha = alpha
        self._calibration = list(ordered)
        return alpha

    @property
    def anchor(self) -> CalibrationPoint:
        if not self._calibration:
            raise RuntimeError("the model has not been calibrated")
        return self._calibration[0]

    # ------------------------------------------------------------------ #
    # estimation

    def estimate_batch(self, keys: "np.ndarray",
                       register_counts: "np.ndarray") -> "np.ndarray":
        """Vectorized Equation 1 over a whole cone family at once.

        ``keys``/``register_counts`` are parallel 1-D integer arrays (one
        entry per cone; keys must be unique).  Returns the estimated areas
        as a float64 array aligned with the inputs.

        This is the single implementation of the Equation-1 recursion: the
        scalar :meth:`estimate_series` delegates here.  The recursion
        ``A(i) = A(i-1) + (Reg_i - Reg_{i-1}) * Size_reg * alpha`` is a
        sequential accumulation, which ``np.cumsum`` over the per-step
        increments (with the anchor area prepended) reproduces addition for
        addition — batch and scalar results are bit-identical, not merely
        close.
        """
        if self.alpha is None:
            raise RuntimeError("calibrate() must be called before estimating")
        keys = np.asarray(keys, dtype=np.int64)
        registers = np.asarray(register_counts, dtype=np.int64)
        if keys.ndim != 1 or keys.shape != registers.shape:
            raise ValueError(
                "keys and register_counts must be 1-D arrays of equal length")
        if np.unique(keys).size != keys.size:
            raise ValueError("family keys must be unique")
        anchor = self.anchor
        estimates = np.empty(keys.size, dtype=np.float64)
        order = np.argsort(keys, kind="stable")

        # Anchor: the smallest calibrated design is taken at its synthesised
        # area (the model predicts increments, not absolutes).  Keys above
        # the anchor chain forward from it, keys below chain backward.
        estimates[order[keys[order] == anchor.key]] = anchor.actual_area_luts
        for positions in (order[keys[order] > anchor.key],
                          order[keys[order] < anchor.key][::-1]):
            if positions.size == 0:
                continue
            chain_registers = np.concatenate(
                ([anchor.register_count], registers[positions]))
            increments = (np.diff(chain_registers)
                          * self.size_reg_luts) * self.alpha
            chain = np.cumsum(np.concatenate(([anchor.actual_area_luts],
                                              increments)))
            estimates[positions] = chain[1:]
        return estimates

    def estimate_series(self, register_counts: Mapping[int, int]) -> List[AreaEstimate]:
        """Estimate the area of every cone in ``register_counts``.

        ``register_counts`` maps the family key (window area) to the register
        count of that cone.  The recursion of Equation 1 runs over the keys in
        increasing order, starting from the anchor calibration point; the
        arithmetic itself is the vectorized :meth:`estimate_batch`.
        """
        keys = sorted(register_counts)
        areas = self.estimate_batch(
            np.asarray(keys, dtype=np.int64),
            np.asarray([register_counts[k] for k in keys], dtype=np.int64))
        return [AreaEstimate(key=key, register_count=register_counts[key],
                             estimated_area_luts=float(area))
                for key, area in zip(keys, areas)]


@dataclass
class AreaModelValidation:
    """Comparison of estimated against synthesised ("actual") areas."""

    depth: int
    entries: List[Tuple[int, float, float]] = field(default_factory=list)
    # each entry: (key, actual_luts, estimated_luts)

    def add(self, key: int, actual: float, estimated: float) -> None:
        self.entries.append((key, actual, estimated))

    @property
    def errors_percent(self) -> List[float]:
        return [abs(est - act) / act * 100.0
                for _, act, est in self.entries if act > 0]

    @property
    def max_error_percent(self) -> float:
        errors = self.errors_percent
        return max(errors) if errors else 0.0

    @property
    def mean_error_percent(self) -> float:
        errors = self.errors_percent
        return sum(errors) / len(errors) if errors else 0.0

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready representation."""
        return {"depth": self.depth,
                "entries": [list(entry) for entry in self.entries]}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "AreaModelValidation":
        return cls(depth=data["depth"],
                   entries=[(key, actual, estimated)
                            for key, actual, estimated in data["entries"]])


def validate_against_synthesis(
        actual_by_key: Mapping[int, float],
        estimated_by_key: Mapping[int, float],
        depth: int = 0) -> AreaModelValidation:
    """Build a validation report from two key-indexed area series."""
    validation = AreaModelValidation(depth=depth)
    for key in sorted(actual_by_key):
        if key in estimated_by_key:
            validation.add(key, actual_by_key[key], estimated_by_key[key])
    return validation
