"""Workloads: query generation, Table III parameter grid, runner, reporting."""

from repro.workloads.queries import QueryWorkload
from repro.workloads.runner import ExperimentRunner
from repro.workloads.reporting import (
    format_series,
    format_table,
    speedup,
)
from repro.workloads.sweeps import PAPER_PARAMETER_GRID, ParameterGrid, SweepPoint

__all__ = [
    "QueryWorkload",
    "ExperimentRunner",
    "format_series",
    "format_table",
    "speedup",
    "PAPER_PARAMETER_GRID",
    "ParameterGrid",
    "SweepPoint",
]
