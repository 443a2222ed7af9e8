"""Engine configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.text.tokenizer import TokenizerConfig


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
    #: drop boilerplate terms present in more than this fraction of
    #: documents (1.0 = keep everything)
    max_df_fraction: float = 1.0
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
    #: micro-clusters per final cluster for hierarchical methods
    micro_cluster_factor: int = 4
    kmeans_max_iter: int = 40
    kmeans_tol: float = 1e-7
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

    # --- field emphasis -----------------------------------------------------
    #: per-field token weights for signature generation (e.g.
    #: {"title": 3.0}); unlisted fields weigh 1.0.  None = uniform.
    field_weights: "dict[str, float] | None" = None

    # --- outputs ---------------------------------------------------------
    keep_signatures: bool = True
    keep_term_stats: bool = True

    # --- fault tolerance -----------------------------------------------------
    #: fault scenario replayed against the run (None = fault-free);
    #: see :class:`repro.runtime.faults.FaultPlan`
    fault_plan: "object | None" = None
    #: directory for stage checkpoints; None = a temporary directory,
    #: auto-created when the plan injects crashes
    checkpoint_dir: "str | None" = None
    #: give up after this many checkpoint-restart attempts
    max_restarts: int = 8

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
        if not 0.0 < self.max_df_fraction <= 1.0:
            raise ValueError("max_df_fraction must be in (0, 1]")
        if self.max_major_terms < self.n_major_terms:
            raise ValueError(
                "max_major_terms must be >= n_major_terms"
            )
        if not 0.0 <= self.max_null_fraction <= 1.0:
            raise ValueError("max_null_fraction must be in [0, 1]")
        if self.n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        if self.kmeans_max_iter < 1:
            raise ValueError("kmeans_max_iter must be >= 1")
        if self.kmeans_tol < 0:
            raise ValueError("kmeans_tol must be >= 0")
        if self.kmeans_sample < 1:
            raise ValueError("kmeans_sample must be >= 1")
        if self.projection_dim < 1:
            raise ValueError("projection_dim must be >= 1")
        if self.chunk_docs < 1:
            raise ValueError("chunk_docs must be >= 1")
        if self.micro_cluster_factor < 1:
            raise ValueError("micro_cluster_factor must be >= 1")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if self.field_weights is not None and any(
            w < 0 for w in self.field_weights.values()
        ):
            raise ValueError("field_weights must be non-negative")
