"""The MMBench profiling pipeline (Figure 3): three metric levels."""

from repro.profiling.flops import count_flops, count_parameters, flops_per_sample
from repro.profiling.profiler import (GridCell, MMBenchProfiler, ProfileResult, price_grid,
                                      price_stored)
from repro.profiling.training import (
    synthetic_training_trace,
    trace_training_step,
    traced_training_flops_ratio,
    training_flops_ratio,
    training_memory_factor,
)
from repro.profiling.report import (
    format_bytes,
    format_seconds,
    format_table,
    profile_summary,
)

__all__ = [
    "synthetic_training_trace", "trace_training_step",
    "traced_training_flops_ratio", "training_flops_ratio",
    "training_memory_factor",
    "count_flops", "count_parameters", "flops_per_sample",
    "GridCell", "MMBenchProfiler", "ProfileResult", "price_grid", "price_stored",
    "format_bytes", "format_seconds", "format_table", "profile_summary",
]
