"""The benchmark's declared surface: workloads and metric names.

``BENCHMARK.json`` at the repository root is this table written out
(``python -m perfbench manifest`` prints it; the package's test checks
the two agree).  Every workload emits every end-to-end metric in an
untraced run and every per-layer metric in a traced run; a per-layer
metric of a layer the workload does not exercise reads 0.
"""

from __future__ import annotations

#: (name, why it is here)
WORKLOADS: tuple[tuple[str, str], ...] = (
    (
        "engine_batch",
        "the paper's pipeline at 16 MB, serial and P=4 sim: all time in "
        "scan/index/signature/cluster kernels plus runtime/ga; serving "
        "layers idle",
    ),
    (
        "search_cold",
        "all-miss serving: uniform 1-3 term searches, working set far "
        "beyond the result cache (hit rate ~0), so every query runs "
        "block-max search, decode, fan-out and merge",
    ),
    (
        "mixed_hot",
        "cache-backed mixed serving: all eight query kinds, 60% from a "
        "32-query hot pool that fits the cache; pump, cache and dispatch "
        "beside every kernel family; one-shot calls time store open + spin-up",
    ),
    (
        "analyst_sessions",
        "workbench over the same shards: restricted exhaustive search, set "
        "algebra, int64 derive kernels, artifact cache; quotas sized so no "
        "op is refused",
    ),
    (
        "ingest_churn",
        "writes beside reads: delta build, publish, compaction offline, "
        "then the same feed ingested live under mixed queries on "
        "multi-segment generations",
    ),
)

#: (name, unit, better, bound).  One uniform set, because the driver
#: reads every end-to-end metric from every workload; the README's
#: table says what each one measures on each workload.
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.15),
    ("ref_ops_per_s", "1/s", "higher", 0.15),
    ("oneshot_p50_ms", "ms", "lower", 0.15),
    ("oneshot_p95_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
)

#: what ``ops_per_s`` / ``ref_ops_per_s`` / ``oneshot_*`` are on each
#: workload, under the names ISSUE 12 used for them
ALIASES: dict[str, dict[str, str]] = {
    "engine_batch": {
        "ops_per_s": "engine_docs_per_s",
        "ref_ops_per_s": "engine_serial_docs_per_s",
        "oneshot": "cluster spin-up (Cluster(4).run(noop))",
    },
    "search_cold": {
        "ops_per_s": "queries_per_s",
        "ref_ops_per_s": "AnalysisSession queries/s (oracle sample)",
        "oneshot": "query_store, fresh cold searches",
    },
    "mixed_hot": {
        "ops_per_s": "queries_per_s",
        "ref_ops_per_s": "AnalysisSession queries/s (oracle sample)",
        "oneshot": "query_store, fresh mixed draws",
    },
    "analyst_sessions": {
        "ops_per_s": "ops_per_s",
        "ref_ops_per_s": "AnalysisSession queries/s (set-builder queries)",
        "oneshot": "serve_workbench, one 4-op session",
    },
    "ingest_churn": {
        "ops_per_s": "queries_per_s (live session)",
        "ref_ops_per_s": "ingest_docs_per_s (offline write path)",
        "oneshot": "query_store probe on the 4-delta store",
    },
}

_S, _MS, _N, _R = "s", "ms", "count", "ratio"

#: (name, unit, better); *exact* counts must repeat bit for bit
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    # set-up stages -> setup_s
    ("datasets.generate_s", _S, "lower"),
    ("index.postings_build_s", _S, "lower"),
    ("store.build_s", _S, "lower"),
    ("ingest.feed_s", _S, "lower"),
    # serial engine stages -> ref_ops_per_s on engine_batch
    ("scan.wall_s", _S, "lower"),
    ("index.invert_wall_s", _S, "lower"),
    ("signature.topic_wall_s", _S, "lower"),
    ("signature.am_docvec_wall_s", _S, "lower"),
    ("cluster.clusproj_wall_s", _S, "lower"),
    ("scan.tokens", _N, "lower"),  # exact
    ("cluster.kmeans_iters", _N, "lower"),  # exact
    # P=4 stage windows and what the runtime costs -> ops_per_s
    ("engine.p4.scan_wall_s", _S, "lower"),
    ("engine.p4.index_wall_s", _S, "lower"),
    ("engine.p4.topic_wall_s", _S, "lower"),
    ("engine.p4.am_wall_s", _S, "lower"),
    ("engine.p4.docvec_wall_s", _S, "lower"),
    ("engine.p4.clusproj_wall_s", _S, "lower"),
    ("runtime.overhead_ratio", _R, "lower"),
    # the paper-figure fingerprint: exact, must not move
    ("runtime.coll_calls", _N, "lower"),
    ("runtime.coll_bytes", "B", "lower"),
    ("runtime.rpc_calls", _N, "lower"),
    ("ga.hashmap_ops", _N, "lower"),
    ("ga.taskq_chunks", _N, "lower"),
    ("runtime.virtual_s", _S, "lower"),
    ("runtime.virtual_speedup_p4", _R, "higher"),
    ("runtime.cluster_spinup_ms", _MS, "lower"),
    # container format -> oneshot_*, setup_s
    ("store.open_ms", _MS, "lower"),
    ("store.bytes_per_doc", "B", "lower"),
    ("store.block_decode_ms", _MS, "lower"),
    # shard kernels -> ops_per_s on search_cold
    ("query.search_ms_p50", _MS, "lower"),
    ("query.search_ms_p95", _MS, "lower"),
    ("query.search_exhaustive_ms_p50", _MS, "lower"),
    ("query.matvec_ms_p50", _MS, "lower"),
    ("query.cluster_ms_p50", _MS, "lower"),
    ("query.region_ms_p50", _MS, "lower"),
    ("query.facet_counts_ms_p50", _MS, "lower"),
    ("query.window_tf_ms_p50", _MS, "lower"),
    ("query.kernel_busy_s", _S, "lower"),
    # broker control plane -> ops_per_s on mixed_hot
    ("broker.session_wall_s", _S, "lower"),
    ("broker.overhead_share", _R, "lower"),
    ("broker.cache_hit_rate", _R, "higher"),
    ("runtime.p2p_messages", _N, "lower"),  # exact
    ("runtime.p2p_bytes", "B", "lower"),  # exact
    ("broker.bytes_scanned", "B", "lower"),  # exact
    ("broker.blocks_skipped", _N, "higher"),  # exact
    ("broker.virtual_p50_ms", _MS, "lower"),  # exact, modelled
    ("broker.virtual_p99_ms", _MS, "lower"),  # exact, modelled
    ("broker.virtual_makespan_s", _S, "lower"),  # exact, modelled
    # single-node reference and replicated tier
    ("analysis.ref_wall_s", _S, "lower"),
    ("analysis.distribution_ratio", _R, "lower"),
    ("router.session_wall_s", _S, "lower"),
    ("router.overhead_ratio", _R, "lower"),
    # workbench -> ops_per_s on analyst_sessions
    ("workbench.session_wall_s", _S, "lower"),
    ("workbench.artifact_hit_rate", _R, "higher"),
    ("workbench.rejects", _N, "lower"),  # exact, 0
    ("workbench.virtual_p99_ms", _MS, "lower"),  # exact
    ("workbench.algebra_us", "us", "lower"),
    ("index.derive_kernel_ms", _MS, "lower"),
    # ingest -> ref_ops_per_s / ops_per_s on ingest_churn
    ("ingest.build_delta_docs_per_s", "1/s", "higher"),
    ("ingest.publish_ms", _MS, "lower"),
    ("ingest.compact_s", _S, "lower"),
    ("ingest.journal_append_ms", _MS, "lower"),
    ("ingest.journal_replay_s", _S, "lower"),
    ("ingest.generations", _N, "lower"),  # exact
    ("ingest.compactions", _N, "lower"),  # exact
    ("ingest.null_signatures", _N, "lower"),  # exact
    ("store.delta_bytes_per_doc", "B", "lower"),
    ("store.write_amp", _R, "lower"),
    ("ingest.live_session_wall_s", _S, "lower"),
    ("facets.bytes_scanned", "B", "lower"),  # exact
    # what qualifies every other number
    ("host.calib_ms", _MS, "lower"),
    ("host.calib_spread", _R, "lower"),
    ("trace.overhead_share", _R, "lower"),
)

#: per-layer counts that must be identical between two runs with the
#: same seed (``python -m perfbench compare`` checks them)
EXACT: frozenset[str] = frozenset(
    {
        "scan.tokens",
        "cluster.kmeans_iters",
        "runtime.coll_calls",
        "runtime.coll_bytes",
        "runtime.rpc_calls",
        "ga.hashmap_ops",
        "ga.taskq_chunks",
        "runtime.virtual_s",
        "runtime.virtual_speedup_p4",
        "runtime.p2p_messages",
        "runtime.p2p_bytes",
        "broker.bytes_scanned",
        "broker.blocks_skipped",
        "broker.virtual_p50_ms",
        "broker.virtual_p99_ms",
        "broker.virtual_makespan_s",
        "workbench.rejects",
        "workbench.virtual_p99_ms",
        "ingest.generations",
        "ingest.compactions",
        "ingest.null_signatures",
        "facets.bytes_scanned",
    }
)

RUN_SECONDS = 10


def manifest() -> dict:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bd}
            for n, u, b, bd in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }
