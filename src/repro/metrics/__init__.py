"""Run summaries."""

from .summary import (
    trace_summary,
    throughput_by_config,
    speedup_efficiency,
    time_to_threshold_table,
)

__all__ = [
    "trace_summary",
    "throughput_by_config",
    "speedup_efficiency",
    "time_to_threshold_table",
]
