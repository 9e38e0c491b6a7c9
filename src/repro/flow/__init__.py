"""Flow result types and the text reports printed from them."""

from repro.api.results import FlowOptions, FlowResult
from repro.flow.report import (
    pareto_table,
    area_validation_table,
    throughput_table,
    flow_summary,
)

__all__ = [
    "FlowOptions",
    "FlowResult",
    "pareto_table",
    "area_validation_table",
    "throughput_table",
    "flow_summary",
]
