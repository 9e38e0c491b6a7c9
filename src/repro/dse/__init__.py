"""Design-space exploration: estimate every candidate architecture, extract Pareto set.

Every exploration runs one evaluator, the chunked fold of
:mod:`repro.dse.stream`: constraints are pushed down before costing, and
:mod:`repro.dse.engine` makes one pass over the space's (window, split)
groups, costs each group's admitted rows in bounded chunks with column
arithmetic and folds them into a streaming Pareto frontier.  In-memory
explorations keep every admitted row as a design point; streamed ones keep
only the frontier.
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
