"""Design-space exploration: estimate every candidate architecture, extract Pareto set.

Every exploration enters through :func:`repro.dse.stream.explore_stream`,
which pushes the area constraints down before costing and then answers in
the one columnar pass of :mod:`repro.dse.engine` over a cached cost table.
The table stops at the largest count from which more primary instances
change no frame time, so it is as small for a million-candidate space as
for the paper's.  The input size picks only which design points are
kept: a space below ``STREAM_AUTO_THRESHOLD`` rows is explored in memory
and keeps every admitted row; a larger space (or ``stream=True``) is
streamed and keeps only the Pareto frontier.
"""

from repro.dse.design_point import DesignPoint
from repro.dse.pareto import pareto_front, pareto_indices, is_dominated
from repro.dse.constraints import DseConstraints
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
    "explore_stream",
    "reset_stream_stats",
    "stream_stats",
    "DesignSpaceExplorer",
    "ExplorationResult",
    "ConeCharacterization",
]
