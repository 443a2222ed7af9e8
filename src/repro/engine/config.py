"""Engine configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.text.tokenizer import TokenizerConfig

#: micro-clusters per final cluster for the hierarchical methods
MICRO_CLUSTER_FACTOR = 4
#: Lloyd iteration cap and centroid-shift tolerance of both engines
KMEANS_MAX_ITER = 40
KMEANS_TOL = 1e-7
#: checkpoint-restart attempts before a faulted run gives up
MAX_RESTARTS = 8


@dataclass(frozen=True)
class EngineConfig:
    """Knobs of the text processing engine (serial and parallel).

    Defaults follow the paper where it states values (topics are "the
    top M (typically 10% of the top N)"); the rest are sized for the
    megabyte-scale corpora this reproduction processes.
    """

    # --- signature model ------------------------------------------------
    #: N, the number of discriminating "major terms"
    n_major_terms: int = 400
    #: M = topic_fraction * N anchoring topic dimensions (paper: 10%)
    topic_fraction: float = 0.10
    #: terms must appear in at least this many documents to be candidates
    min_df: int = 2
    #: adaptive dimensionality (§4.2 remedy): double N while too many
    #: signatures are null
    adapt_dimensionality: bool = True
    max_null_fraction: float = 0.05
    max_major_terms: int = 6400

    # --- clustering ------------------------------------------------------
    n_clusters: int = 10
    #: "kmeans", or a hierarchical linkage applied over k-means
    #: micro-clusters: "single" | "complete" | "average" (§3.5's
    #: "other types of clustering")
    cluster_method: str = "kmeans"
    #: size of the replicated seeding sample
    kmeans_sample: int = 256
    seed: int = 0

    # --- projection -------------------------------------------------------
    projection_dim: int = 2

    # --- execution backend --------------------------------------------------
    #: "sim" = deterministic single-process simulator (the correctness
    #: oracle); "mp" = one OS process per rank with shared-memory GA
    #: state -- bit-identical results and virtual-time metrics, real
    #: parallelism (see :mod:`repro.runtime.mpbackend`)
    backend: str = "sim"

    # --- parallel indexing --------------------------------------------------
    #: documents per inversion load (fixed-size chunking, §3.3)
    chunk_docs: int = 8
    #: GA-atomic dynamic load balancing on (paper) or off (baseline)
    dynamic_load_balancing: bool = True

    # --- fault tolerance -----------------------------------------------------
    #: fault scenario replayed against the run (None = fault-free);
    #: see :class:`repro.runtime.faults.FaultPlan`
    fault_plan: "object | None" = None
    #: directory for stage checkpoints; None = a temporary directory,
    #: auto-created when the plan injects crashes
    checkpoint_dir: "str | None" = None

    # --- tokenization -------------------------------------------------------
    tokenizer: TokenizerConfig = field(default_factory=TokenizerConfig)

    def __post_init__(self) -> None:
        if self.backend not in ("sim", "mp"):
            raise ValueError(
                f"backend must be 'sim' or 'mp', got {self.backend!r}"
            )
        if self.n_major_terms < 1:
            raise ValueError("n_major_terms must be >= 1")
        if not 0.0 < self.topic_fraction <= 1.0:
            raise ValueError("topic_fraction must be in (0, 1]")
        if self.min_df < 1:
            raise ValueError("min_df must be >= 1")
        if self.max_major_terms < self.n_major_terms:
            raise ValueError(
                "max_major_terms must be >= n_major_terms"
            )
        if not 0.0 <= self.max_null_fraction <= 1.0:
            raise ValueError("max_null_fraction must be in [0, 1]")
        if self.n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        if self.kmeans_sample < 1:
            raise ValueError("kmeans_sample must be >= 1")
        if self.projection_dim < 1:
            raise ValueError("projection_dim must be >= 1")
        if self.chunk_docs < 1:
            raise ValueError("chunk_docs must be >= 1")
