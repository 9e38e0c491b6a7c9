"""Enumeration of the architecture solution space.

The design space the paper explores is the cross product of output window
sizes, level splittings of the iteration count, and cone instance counts.
As in the experiments of Section 4, the splittings are *uniform*: a single
cone depth d is used for all levels, plus (when d does not divide the iteration
count) one extra level of smaller depth covering the remaining iterations —
this is exactly the effect discussed around Figure 7, where depths that do
not divide the iteration count waste area on the remainder cone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from repro.utils.validation import check_positive
from repro.architecture.template import ConeArchitecture


def single_depth_split(total_iterations: int, depth: int) -> List[int]:
    """Uniform splitting: as many levels of ``depth`` as fit, plus a remainder level."""
    check_positive("total_iterations", total_iterations)
    check_positive("depth", depth)
    if depth > total_iterations:
        return [total_iterations]
    levels = [depth] * (total_iterations // depth)
    remainder = total_iterations % depth
    if remainder:
        levels.append(remainder)
    return levels


@lru_cache(maxsize=512)
def _uniform_splits(total_iterations: int,
                    limit: int) -> Tuple[Tuple[int, ...], ...]:
    """Memoized, deduplicated uniform splittings (shared value-typed form).

    Exploration hot path: every :class:`ArchitectureSpace` method needs the
    splits, and sessions rebuild spaces for each workload of a sweep — the
    cache turns the repeated O(depth²) list scans into one lookup per
    distinct ``(iterations, max depth)`` pair.
    """
    splits: List[Tuple[int, ...]] = []
    seen = set()
    for depth in range(1, limit + 1):
        split = tuple(single_depth_split(total_iterations, depth))
        if split not in seen:
            seen.add(split)
            splits.append(split)
    return tuple(splits)


def _cached_splits(total_iterations: int,
                   max_depth: Optional[int]) -> Tuple[Tuple[int, ...], ...]:
    check_positive("total_iterations", total_iterations)
    limit = max_depth if max_depth is not None else total_iterations
    limit = min(limit, total_iterations)
    return _uniform_splits(total_iterations, limit)


def count_level_splits(total_iterations: int,
                       max_depth: Optional[int] = None) -> int:
    """The number of uniform level splittings, without materializing them.

    Uniform splittings are counted in O(1): for every depth ``d <= n`` the
    splitting produced by :func:`single_depth_split` starts with ``d``
    itself, so the candidate depths ``1..min(max_depth, n)`` yield pairwise
    distinct splittings and the deduplicated count is exactly that limit.
    Streaming consumers (:mod:`repro.dse.stream`) use this to size
    million-candidate spaces — auto-select thresholds and pruned-fraction
    denominators — before (or instead of) enumerating anything.
    """
    check_positive("total_iterations", total_iterations)
    limit = max_depth if max_depth is not None else total_iterations
    return max(0, min(limit, total_iterations))


@dataclass
class ArchitectureSpace:
    """The set of candidate architectures for one kernel and iteration count."""

    kernel_name: str
    total_iterations: int
    radius: int
    components: int = 1
    window_sides: Sequence[int] = (1, 2, 3, 4, 5, 6, 7, 8, 9)
    max_depth: Optional[int] = 5
    max_cones_per_depth: int = 16

    def _splits(self) -> Tuple[Tuple[int, ...], ...]:
        """The (memoized, shared) level splittings of the space."""
        return _cached_splits(self.total_iterations, self.max_depth)

    def level_splits(self) -> List[List[int]]:
        return [list(split) for split in self._splits()]

    def distinct_shapes(self) -> List[Tuple[int, int]]:
        """Every (window_side, depth) cone module the space may need."""
        depths = {depth for split in self._splits() for depth in split}
        return sorted((window, depth)
                      for window in set(self.window_sides)
                      for depth in depths)

    def materialize_row_parts(self, window: int, split: Sequence[int],
                              primary_count: int) -> ConeArchitecture:
        """Materialize one enumerated candidate as a :class:`ConeArchitecture`.

        Trusted fast path: enumeration guarantees validity, so the
        per-instance feasibility re-check is skipped.
        """
        depths = sorted(set(split))
        cone_counts = {depth: 1 for depth in depths}
        cone_counts[depths[-1]] = primary_count
        return ConeArchitecture.from_trusted_parts(
            kernel_name=self.kernel_name, window_side=window,
            level_depths=list(split), cone_counts=cone_counts,
            radius=self.radius, components=self.components)

    def size(self) -> int:
        """The number of candidates: windows × level splits × counts.

        The split factor comes from :func:`count_level_splits`, so sizing
        a huge space (the explorer's auto-stream threshold, pruned-fraction
        denominators) never materializes a single splitting.
        """
        return (count_level_splits(self.total_iterations, self.max_depth)
                * len(tuple(self.window_sides)) * self.max_cones_per_depth)
