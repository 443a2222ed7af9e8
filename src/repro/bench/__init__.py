"""Benchmark harness: workload generation, sweeps, the paper's figures."""

from .figures import (
    fig9_ablation,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
    render,
    run_all_sweeps,
    shape_oracles,
)
from .harness import (
    PAPER_PROCS,
    PUBMED_SIZES,
    TREC_SIZES,
    SweepResult,
    Workload,
    default_figure_config,
    make_workload,
    run_sweep,
)
from .tables import format_series, format_table

__all__ = [
    "PAPER_PROCS",
    "PUBMED_SIZES",
    "SweepResult",
    "TREC_SIZES",
    "Workload",
    "default_figure_config",
    "fig9_ablation",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "format_series",
    "format_table",
    "make_workload",
    "render",
    "run_all_sweeps",
    "run_sweep",
    "shape_oracles",
]
