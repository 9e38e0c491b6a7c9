"""Design-space exploration: estimate every candidate architecture, extract Pareto set.

Every exploration enters through :func:`repro.dse.stream.explore_stream`,
which pushes the area constraints down before costing, and then runs one
of two passes of :mod:`repro.dse.engine` over the same formulas.  The
input size picks the pass: a space below ``STREAM_AUTO_THRESHOLD`` rows is
explored in memory, in one columnar pass over a cached whole-space cost
table that keeps every admitted row as a design point; a larger space (or
``stream=True``) is streamed, one (window, split) group at a time in
bounded chunks folded into a Pareto frontier, and keeps only the frontier.
"""

from repro.dse.design_point import DesignPoint
from repro.dse.pareto import pareto_front, pareto_indices, is_dominated
from repro.dse.constraints import DseConstraints
from repro.dse.engine import StreamingFrontier
from repro.dse.stream import (DEFAULT_CHUNK_ROWS, STREAM_AUTO_THRESHOLD,
                              StreamingExploration, explore_stream,
                              reset_stream_stats, stream_stats)
from repro.dse.explorer import DesignSpaceExplorer, ExplorationResult, ConeCharacterization

__all__ = [
    "DesignPoint",
    "pareto_front",
    "pareto_indices",
    "is_dominated",
    "DseConstraints",
    "DEFAULT_CHUNK_ROWS",
    "STREAM_AUTO_THRESHOLD",
    "StreamingExploration",
    "StreamingFrontier",
    "explore_stream",
    "reset_stream_stats",
    "stream_stats",
    "DesignSpaceExplorer",
    "ExplorationResult",
    "ConeCharacterization",
]
