"""Sweep driver: run the engine across processor counts and datasets."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from repro.datasets import generate_pubmed, generate_trec
from repro.engine import EngineConfig, EngineResult, ParallelTextEngine
from repro.runtime import MachineSpec
from repro.text.documents import Corpus

#: processor counts the paper's evaluation sweeps (Figs. 5-8)
PAPER_PROCS: tuple[int, ...] = (4, 8, 16, 32)

#: problem sizes from §4.2, as (label, represented bytes)
PUBMED_SIZES: tuple[tuple[str, float], ...] = (
    ("2.75 GB", 2.75e9),
    ("6.67 GB", 6.67e9),
    ("16.44 GB", 16.44e9),
)
TREC_SIZES: tuple[tuple[str, float], ...] = (
    ("1.00 GB", 1.00e9),
    ("4.00 GB", 4.00e9),
    ("8.21 GB", 8.21e9),
)


def default_figure_config() -> EngineConfig:
    """Engine configuration used by the figure reproductions.

    Sized for a production-like signature space (M = 150 topic
    dimensions when the vocabulary supports it).
    """
    return EngineConfig(
        n_major_terms=1500,
        topic_fraction=0.10,
        n_clusters=16,
        kmeans_sample=192,
        chunk_docs=4,
    )


@dataclass
class Workload:
    """A generated corpus standing in for one of the paper's inputs."""

    dataset: str  # "pubmed" | "trec"
    label: str  # e.g. "2.75 GB"
    corpus: Corpus


def make_workload(
    dataset: str,
    label: str,
    represented_bytes: float,
    downscale: float = 10_000.0,
    seed: int = 7,
) -> Workload:
    """Generate the scaled-down stand-in corpus for one problem size.

    ``downscale`` is the generated-to-represented ratio: the default
    10**4 turns 2.75 GB into a 275 KB generated corpus whose cost-model
    charges are scaled back up (see ``MachineSpec`` docs).
    """
    gen_bytes = max(150_000, int(represented_bytes / downscale))
    if dataset == "pubmed":
        corpus = generate_pubmed(
            gen_bytes, seed=seed, represented_bytes=represented_bytes
        )
    elif dataset == "trec":
        # Under workload scaling one generated document stands for a
        # *bundle* of thousands of real pages, so the per-page Pareto
        # tail must be smoothed: an unclipped generated page would
        # model a single indivisible multi-gigabyte document, which
        # GOV2 does not contain.  The density skew (markup runs) that
        # drives load imbalance is preserved.
        corpus = generate_trec(
            gen_bytes,
            seed=seed,
            represented_bytes=represented_bytes,
            max_body_tokens=400,
        )
    else:
        raise ValueError(f"unknown dataset {dataset!r}")
    return Workload(dataset=dataset, label=label, corpus=corpus)


@dataclass
class SweepResult:
    """Engine results across processor counts for one workload."""

    workload: Workload
    results: dict[int, EngineResult]
    #: ideal (pressure-free) 1-proc run used as the speedup baseline
    serial_result: EngineResult
    config: EngineConfig = field(repr=False, default=None)  # type: ignore[assignment]

    @property
    def serial_baseline(self) -> float:
        return self.serial_result.timings.wall_time

    def wall(self, nprocs: int) -> float:
        return self.results[nprocs].timings.wall_time

    def speedup(self, nprocs: int) -> float:
        """Self-relative speedup against the ideal serial time.

        The paper's 16.44 GB curve starts *below* linear at 4
        processors (memory thrashing) and rejoins linear afterwards;
        normalizing against a thrash-free serial estimate reproduces
        exactly that shape.
        """
        return self.serial_baseline / self.wall(nprocs)

    def component_seconds(self, nprocs: int) -> dict[str, float]:
        return self.results[nprocs].timings.component_seconds

    def component_percentages(self, nprocs: int) -> dict[str, float]:
        return self.results[nprocs].timings.component_percentages


def run_sweep(
    workload: Workload,
    procs: tuple[int, ...] = PAPER_PROCS,
    config: Optional[EngineConfig] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> SweepResult:
    """Run the engine at every processor count in ``procs``."""
    machine = MachineSpec()
    config = config if config is not None else default_figure_config()
    results: dict[int, EngineResult] = {}
    for p in procs:
        if progress:
            progress(f"{workload.dataset} {workload.label}: P={p}")
        results[p] = ParallelTextEngine(
            p, machine=machine, config=config
        ).run(workload.corpus)
    # thrash-free serial estimate for speedup normalization
    ideal_machine = replace(machine, pressure_slope=0.0)
    serial_result = ParallelTextEngine(
        1, machine=ideal_machine, config=config
    ).run(workload.corpus)
    return SweepResult(
        workload=workload,
        results=results,
        serial_result=serial_result,
        config=config,
    )
