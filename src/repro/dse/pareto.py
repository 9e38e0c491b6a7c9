"""Pareto-set extraction over (area, time-per-frame).

The paper extracts the Pareto set "by means of an exhaustive search that
typically requires the evaluation of a few hundreds of solutions"; the
characterised design points are cheap to compare, so a simple sort-and-scan
suffices.

Determinism contract of :func:`pareto_indices`, which every exploration's
one pass calls once over its candidates in enumeration order (and
:func:`pareto_front` over a list of design points):

* the frontier is returned sorted by increasing area, ties on area by
  increasing time;
* points equal on *both* objectives keep a single representative — the one
  appearing first in the input (the sort is stable), matching how the
  paper's Pareto charts plot one marker per cost/latency pair;
* non-finite objectives (NaN or infinity) are rejected with a
  :exc:`ValueError` — NaN has no ordering and an infinite objective means
  the estimation upstream produced garbage, so silently dropping or keeping
  such points would hide the bug.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from repro.dse.design_point import DesignPoint

#: The one diagnostic for non-finite objectives.
FINITE_OBJECTIVES_ERROR = (
    "Pareto extraction needs finite objectives; got NaN or infinite "
    "area/time values (an upstream estimate produced garbage)")


def is_dominated(candidate: DesignPoint, other: DesignPoint) -> bool:
    """True when ``other`` is at least as good on both objectives and better on one."""
    better_or_equal = (other.area_luts <= candidate.area_luts
                       and other.seconds_per_frame <= candidate.seconds_per_frame)
    strictly_better = (other.area_luts < candidate.area_luts
                       or other.seconds_per_frame < candidate.seconds_per_frame)
    return better_or_equal and strictly_better


def pareto_indices(area_luts: "np.ndarray",
                   seconds_per_frame: "np.ndarray") -> "np.ndarray":
    """Indices of the non-dominated rows of two parallel objective columns.

    A row survives iff its time is a strict running minimum over the
    (area, time)-lexsorted order.  ``np.lexsort`` is stable, so rows equal
    on both objectives keep their first-seen representative, and the
    indices come in increasing area, ties by time.  Raises
    :exc:`ValueError` on NaN/inf objectives (see the module determinism
    contract).
    """
    areas = np.asarray(area_luts, dtype=np.float64)
    times = np.asarray(seconds_per_frame, dtype=np.float64)
    if areas.shape != times.shape or areas.ndim != 1:
        raise ValueError("area_luts and seconds_per_frame must be 1-D "
                         "arrays of equal length")
    if not (np.isfinite(areas).all() and np.isfinite(times).all()):
        raise ValueError(FINITE_OBJECTIVES_ERROR)
    if areas.size == 0:
        return np.empty(0, dtype=np.intp)
    order = np.lexsort((times, areas))
    sorted_times = times[order]
    keep = np.empty(areas.size, dtype=bool)
    keep[0] = True
    keep[1:] = sorted_times[1:] < np.minimum.accumulate(sorted_times)[:-1]
    return order[keep]


def pareto_front(points: Iterable[DesignPoint]) -> List[DesignPoint]:
    """Return the non-dominated subset, sorted by increasing area.

    The rows :func:`pareto_indices` keeps of the points' objective columns:
    ties on both objectives keep a single representative (the first seen in
    the input), and non-finite objectives raise :exc:`ValueError`.
    """
    candidates = list(points)
    order = pareto_indices(
        np.array([p.area_luts for p in candidates], dtype=np.float64),
        np.array([p.seconds_per_frame for p in candidates], dtype=np.float64))
    return [candidates[index] for index in order.tolist()]
