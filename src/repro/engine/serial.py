"""Serial reference implementation of the text processing engine.

A straightforward single-process version of the nine-stage IN-SPIRE
pipeline (paper §2.1).  It shares all numerical kernels with the
parallel engine -- tokenizer, FAST-INV inversion, topicality,
association matrix, signatures, k-means, PCA -- so it serves both as
the correctness oracle for the parallel implementation and as the
"existing state-of-the-art desktop tool" baseline the paper sets out
to beat.

Timings here are *real* seconds (``time.perf_counter``); speedup
figures always use the simulated parallel engine's virtual time with
P=1 as the baseline instead, as the paper's self-relative speedups do.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext

import numpy as np

from repro.cluster.kmeans import kmeanspp_seeds, lloyd
from repro.cluster.twolevel import (
    HIERARCHICAL_METHODS,
    merge_micro_clusters,
)
from repro.index.fastinv import invert_chunk
from repro.index.stats import stats_from_doc_postings
from repro.project.pca import fit_pca
from repro.scan.scanner import scan_forward
from repro.scan.vocabulary import finalize_vocabulary_serial
from repro.signature.association import (
    association_matrix,
    count_cooccurrences,
    major_row_table,
)
from repro.signature.docvec import compute_signatures
from repro.signature.topicality import (
    local_candidates,
    select_major_terms,
)
from repro.text.documents import Corpus
from repro.text.tokenizer import Tokenizer

from .config import EngineConfig
from .results import EngineResult
from .timings import StageTimings


def sample_indices(n_docs: int, sample_size: int) -> np.ndarray:
    """Deterministic global seeding-sample document indices.

    Evenly spaced over the collection, identical for every processor
    count -- this is what keeps serial and parallel k-means aligned.
    """
    if n_docs <= 0:
        return np.empty(0, dtype=np.int64)
    take = min(max(1, sample_size), n_docs)
    return np.unique(
        np.linspace(0, n_docs - 1, num=take).astype(np.int64)
    )


def _field_weight_arrays(forward, field_names, config: EngineConfig):
    """Per-token weight arrays when field emphasis is configured."""
    if not config.field_weights:
        return None
    nfields = max(1, len(field_names))
    weights = np.array(
        [config.field_weights.get(name, 1.0) for name in field_names],
        dtype=np.float64,
    )
    return forward.token_weights(nfields, weights)


def _stage_timer(stage_seconds: dict[str, float], name: str):
    """Scope factory adding each scope's real seconds to ``name``.

    The adaptive loop enters the AM and DocVec scopes once per round,
    so a stage's time is the sum over rounds.
    """
    stage_seconds[name] = 0.0

    @contextmanager
    def scope():
        t0 = time.perf_counter()
        try:
            yield
        finally:
            stage_seconds[name] += time.perf_counter() - t0

    return scope


def cluster_sizes(config: EngineConfig, n_docs: int) -> tuple[int, int]:
    """(final cluster count, k-means micro-cluster count) for a run.

    Plain k-means uses one level; hierarchical methods cluster
    ``micro_cluster_factor`` times as many micro-clusters first and
    merge them (see :mod:`repro.cluster.twolevel`).  Raises on unknown
    methods so both engines validate identically.
    """
    method = config.cluster_method
    if method not in ("kmeans", *HIERARCHICAL_METHODS):
        raise ValueError(
            f"unknown cluster_method {method!r}; expected 'kmeans' or "
            f"one of {HIERARCHICAL_METHODS}"
        )
    k_goal = max(1, min(config.n_clusters, n_docs))
    if method == "kmeans":
        return k_goal, k_goal
    k_fine = max(
        1,
        min(
            config.n_clusters * max(1, config.micro_cluster_factor),
            n_docs,
        ),
    )
    return k_goal, k_fine


def signature_model(
    candidates,
    doc_gid_arrays,
    n_docs,
    config: EngineConfig,
    reduce_counts=None,
    reduce_nulls=None,
    am_scope=None,
    docvec_scope=None,
    charge_am=None,
    charge_docvec=None,
    doc_weight_arrays=None,
    once=None,
):
    """Association-matrix + signature construction with the paper's
    adaptive-dimensionality loop (§4.2): while too many documents have
    null signatures, the number of major terms N is doubled, producing
    "significantly more representative" signatures at the cost of more
    computation and memory.

    Both engines pass ``am_scope``/``docvec_scope`` factories for
    component timing (real-seconds timers in the serial engine, runtime
    regions in the parallel one).  The parallel engine also supplies
    ``reduce_*`` allreduce closures (making the integer co-occurrence
    counts -- and hence the matrix -- bit-identical across processor
    counts), ``charge_*`` cost hooks, and ``once`` (a compute-once
    cache, ``RankContext.replicated``) so work that is replicated with
    identical inputs on every rank -- the major-term selection, the
    gid -> row table and the association matrix built from the
    allreduced counts -- is computed once per run instead of once per
    rank.

    Returns ``(majors, topics, A, sig_batch, null_fraction, rounds)``
    where ``sig_batch`` covers only the *local* documents when
    reducers are supplied.
    """
    if reduce_counts is None:
        reduce_counts = lambda c: c  # noqa: E731 - serial identity
    if reduce_nulls is None:
        reduce_nulls = lambda n: n  # noqa: E731 - serial identity
    if once is None:
        once = lambda key, fn: fn()  # noqa: E731 - serial identity
    if am_scope is None:
        am_scope = nullcontext
    if docvec_scope is None:
        docvec_scope = nullcontext
    n_major = config.n_major_terms
    rounds = 0
    while True:
        with am_scope():
            majors, topics = once(
                ("am.select", n_major),
                lambda: select_major_terms(
                    candidates, n_major, config.topic_fraction
                ),
            )
            if not majors:
                raise ValueError(
                    "no candidate major terms: corpus too small or "
                    "min_df too high"
                )
            table = once(
                ("am.lookup", n_major),
                lambda: major_row_table([t.gid for t in majors]),
            )
            local_counts = count_cooccurrences(
                doc_gid_arrays, table, len(majors), len(topics)
            )
            if charge_am is not None:
                charge_am(len(majors), len(topics))
            counts = reduce_counts(local_counts)
            # the reduced counts are bit-identical on every rank, so
            # the normalized matrix is replicated work too
            assoc = once(
                ("am.assoc", n_major),
                lambda: association_matrix(
                    counts,
                    np.array([t.df for t in majors], dtype=np.int64),
                    np.array([t.df for t in topics], dtype=np.int64),
                    n_docs,
                ),
            )
        with docvec_scope():
            batch = compute_signatures(
                doc_gid_arrays,
                table,
                assoc,
                doc_weight_arrays=doc_weight_arrays,
            )
            if charge_docvec is not None:
                charge_docvec(batch)
            n_null_global = reduce_nulls(batch.n_null)
        null_fraction = n_null_global / max(1, n_docs)
        can_grow = (
            config.adapt_dimensionality
            and n_major < config.max_major_terms
            and len(majors) == n_major  # more candidates remain
            and len(majors) < len(candidates)
        )
        if null_fraction <= config.max_null_fraction or not can_grow:
            return majors, topics, assoc, batch, null_fraction, rounds
        n_major = min(n_major * 2, config.max_major_terms)
        rounds += 1


class SerialTextEngine:
    """Single-process nine-stage text engine."""

    def __init__(self, config: EngineConfig | None = None):
        self.config = config if config is not None else EngineConfig()

    def run(self, corpus: Corpus) -> EngineResult:
        cfg = self.config
        tokenizer = Tokenizer(cfg.tokenizer)
        stage_seconds: dict[str, float] = {}
        t_start = time.perf_counter()

        # ------------------------------------------------ scan & map
        t0 = time.perf_counter()
        field_to_id = {f: i for i, f in enumerate(corpus.field_names)}
        forward, terms, scan_stats = scan_forward(
            corpus.documents, tokenizer, field_to_id
        )
        vocab = finalize_vocabulary_serial(terms)
        forward.assign_gids(terms, vocab.term_to_gid)
        stage_seconds["scan"] = time.perf_counter() - t0

        # ------------------------------------------------ indexing
        t0 = time.perf_counter()
        # chunks are disjoint document ranges: their postings never
        # share a (term, doc) pair, so df/cf need no merge
        gid_parts = [np.empty(0, dtype=np.int64)]
        count_parts = [np.empty(0, dtype=np.int64)]
        for lo in range(0, len(forward), cfg.chunk_docs):
            hi = lo + cfg.chunk_docs
            t2d = invert_chunk(*forward.chunk_streams(lo, hi))
            gid_parts.append(t2d.gids)
            count_parts.append(t2d.counts)
        stats = stats_from_doc_postings(
            np.concatenate(gid_parts),
            np.concatenate(count_parts),
            0,
            vocab.size,
        )
        stage_seconds["index"] = time.perf_counter() - t0

        # ------------------------------------------------ topicality
        t0 = time.perf_counter()
        n_docs = len(corpus)
        candidates = local_candidates(
            vocab.gid_to_term,
            gid_lo=0,
            df=stats.df,
            cf=stats.cf,
            n_docs=n_docs,
            min_df=cfg.min_df,
            limit=cfg.max_major_terms,
            max_df_fraction=cfg.max_df_fraction,
        )
        stage_seconds["topic"] = time.perf_counter() - t0

        # --------------------------------- association + signatures
        doc_gid_arrays = forward.per_doc(forward.gids)
        weight_arrays = _field_weight_arrays(forward, corpus.field_names, cfg)
        majors, topics, assoc, batch, null_fraction, rounds = (
            signature_model(
                candidates,
                doc_gid_arrays,
                n_docs,
                cfg,
                doc_weight_arrays=weight_arrays,
                am_scope=_stage_timer(stage_seconds, "am"),
                docvec_scope=_stage_timer(stage_seconds, "docvec"),
            )
        )

        # ------------------------------- clustering and projection
        t0 = time.perf_counter()
        sigs = batch.signatures
        k_goal, k_fine = cluster_sizes(cfg, n_docs)
        sample = sigs[sample_indices(n_docs, cfg.kmeans_sample)]
        rng = np.random.default_rng(cfg.seed)
        seeds = kmeanspp_seeds(sample, k_fine, rng)
        km = lloyd(
            sigs,
            seeds,
            max_iter=cfg.kmeans_max_iter,
            tol=cfg.kmeans_tol,
        )
        if cfg.cluster_method == "kmeans":
            labels, centroids, inertia = km.labels, km.centroids, km.inertia
        else:
            counts = np.bincount(
                km.labels, minlength=km.centroids.shape[0]
            )
            mapping, centroids = merge_micro_clusters(
                km.centroids, counts, k_goal, cfg.cluster_method
            )
            labels = mapping[km.labels]
            inertia = float(
                np.sum((sigs - centroids[labels]) ** 2)
            )
        transform = fit_pca(centroids, dim=cfg.projection_dim)
        coords = transform.project(sigs)
        stage_seconds["clusproj"] = time.perf_counter() - t0

        term_stats = None
        if cfg.keep_term_stats:
            term_stats = {
                term: (int(stats.df[g]), int(stats.cf[g]))
                for term, g in vocab.term_to_gid.items()
            }
        timings = StageTimings(
            component_seconds=stage_seconds,
            wall_time=time.perf_counter() - t_start,
            virtual=False,
        )
        return EngineResult(
            corpus_name=corpus.name,
            nprocs=1,
            n_docs=n_docs,
            vocab_size=vocab.size,
            major_terms=majors,
            topic_terms=topics,
            association=assoc,
            doc_ids=forward.doc_ids,
            coords=coords,
            assignments=labels,
            centroids=centroids,
            inertia=inertia,
            kmeans_iters=km.n_iter,
            null_fraction=null_fraction,
            adapt_rounds=rounds,
            projection=transform,
            signatures=sigs if cfg.keep_signatures else None,
            term_stats=term_stats,
            timings=timings,
            meta={"scan_tokens": scan_stats.ntokens},
        )
