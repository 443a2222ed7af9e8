"""Parallel text processing engine (the paper's contribution).

Implements Figure 4's architecture on the simulated cluster: static
byte-balanced source distribution, Scan & Map with a distributed
vocabulary hashmap, FAST-INV inverted-file indexing with GA-atomic
dynamic load balancing, global term statistics in global arrays,
parallel topicality with a global merge of per-owner top candidates,
``MPI_Allreduce``-combined association matrices, per-rank knowledge
signatures, distributed k-means, and centroid-PCA projection with the
master collecting the final 2-D coordinates.

Every numerical kernel is shared with
:class:`~repro.engine.serial.SerialTextEngine`, and integer reductions
are exact, so the parallel engine produces the same model (same major
terms, same association matrix, same signatures) for any processor
count -- floating-point clustering results agree to reduction
round-off.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.cluster.kmeans import (
    assign_points,
    centroids_from_partials,
    kmeanspp_seeds,
    partial_update,
)
from repro.ga.array import GlobalArray
from repro.ga.hashmap import GlobalHashMap
from repro.ga.taskqueue import SharedTaskQueue
from repro.index.fastinv import invert_chunk
from repro.index.stats import TermStats, stats_from_doc_postings
from repro.project.pca import fit_pca
from repro.runtime.cluster import Cluster
from repro.runtime.context import RankContext
from repro.runtime.errors import RankFailedError
from repro.runtime.faults import FaultInjector
from repro.runtime.machine import MachineSpec, Scale
from repro.runtime.payload import payload_nbytes
from repro.scan.scanner import scan_forward
from repro.scan.vocabulary import finalize_vocabulary
from repro.signature.topicality import (
    RankedTerm,
    local_candidates,
    rank_candidates,
)
from repro.text.documents import Corpus, Document, partition_documents
from repro.text.tokenizer import Tokenizer

from repro.cluster.twolevel import merge_micro_clusters

from .checkpoint import StageCheckpointer
from .config import KMEANS_MAX_ITER, KMEANS_TOL, MAX_RESTARTS, EngineConfig
from .persist import terms_from_arrays, terms_to_arrays
from .results import EngineResult
from .serial import (
    cluster_sizes,
    sample_indices,
    signature_model,
)
from .timings import StageTimings

_FWD_STORE_KEY = "engine:fwd-store"
#: in-memory working set per byte of raw input (indexes, tables)
_MEM_EXPANSION = 1.5


class ParallelTextEngine:
    """Run the engine on a simulated cluster of ``nprocs`` ranks."""

    def __init__(
        self,
        nprocs: int,
        machine: MachineSpec | None = None,
        config: EngineConfig | None = None,
    ):
        self.nprocs = nprocs
        self.machine = machine if machine is not None else MachineSpec()
        self.config = config if config is not None else EngineConfig()
        self.last_tracer = None

    def run(self, corpus: Corpus) -> EngineResult:
        """Process ``corpus``; returns the assembled result.

        The machine's ``workload_scale`` is set from the corpus's
        declared represented size, so virtual times are reported at the
        scale the corpus stands for.

        When the config carries a ``fault_plan``, injected rank crashes
        are survived by checkpoint-restart: the run resumes from the
        last completed pipeline stage with the surviving ranks.
        """
        machine = replace(
            self.machine, workload_scale=corpus.workload_scale()
        )

        def make_args(nlive: int) -> tuple:
            parts = partition_documents(corpus.documents, nlive)
            return (parts, self.config)

        sim, recovery = self._run_with_recovery(
            machine, _engine_rank_main, make_args
        )
        #: tracer of the (final) attempt, for trace export and the
        #: wall-clock benchmark harness
        self.last_tracer = sim.tracer
        return self._assemble(sim, corpus.name, recovery)

    def run_files(
        self,
        paths,
        corpus_name: str = "sources",
        represented_bytes: float | None = None,
    ) -> EngineResult:
        """Process on-disk source files (``.jsonl``/``.trec``/``.med``).

        Files are statically distributed across ranks by byte size
        (paper §3.2) and each rank scans its own list -- the
        parallel-I/O code path.  ``represented_bytes`` declares the
        real-world scale as for in-memory corpora.
        """
        import os
        from pathlib import Path

        paths = [Path(p) for p in paths]
        if not paths:
            raise ValueError("run_files needs at least one source file")
        sizes = [os.path.getsize(p) for p in paths]
        total = sum(sizes)
        scale = 1.0
        if represented_bytes is not None and total > 0:
            scale = max(1.0, represented_bytes / total)
        machine = replace(self.machine, workload_scale=scale)

        def make_args(nlive: int) -> tuple:
            # contiguous byte-balanced assignment of files to ranks
            parts: list[list] = [[] for _ in range(nlive)]
            target = total / nlive if total else 0.0
            rank = 0
            acc = 0.0
            for p, sz in zip(paths, sizes):
                if target and acc >= target * (rank + 1) and rank < nlive - 1:
                    rank += 1
                parts[rank].append(p)
                acc += sz
            return (parts, self.config)

        sim, recovery = self._run_with_recovery(
            machine, _files_rank_main, make_args
        )
        self.last_tracer = sim.tracer
        return self._assemble(sim, corpus_name, recovery)

    def _run_with_recovery(self, machine, entry, make_args):
        """Run ``entry`` on the cluster, restarting after rank crashes.

        Returns ``(sim, recovery_meta)``; ``recovery_meta`` is ``None``
        when no fault plan is configured.  Each restart drops the dead
        ranks (graceful degradation to P - |failed| survivors) and
        resumes from the last completed stage checkpoint.  The fault
        injector is shared across attempts so a consumed crash fault
        does not re-fire against the replacement run.
        """
        import shutil
        import tempfile

        cfg = self.config
        injector = (
            FaultInjector(cfg.fault_plan)
            if cfg.fault_plan is not None
            else None
        )
        ckpt = None
        tmpdir = None
        if cfg.checkpoint_dir is not None:
            ckpt = StageCheckpointer(cfg.checkpoint_dir)
            # checkpoints are an intra-run recovery mechanism: stale
            # snapshots from a previous run must not leak in, or
            # repeated runs would not be reproducible
            ckpt.reset()
        elif injector is not None and injector.has_crash_faults:
            tmpdir = tempfile.mkdtemp(prefix="repro-ckpt-")
            ckpt = StageCheckpointer(tmpdir)
        recovery = (
            None
            if injector is None
            else {"restarts": 0, "failed_attempts": []}
        )
        nlive = self.nprocs
        try:
            while True:
                try:
                    sim = Cluster(
                        nlive,
                        machine,
                        faults=injector,
                        backend=self.config.backend,
                    ).run(entry, *make_args(nlive), ckpt)
                    if recovery is not None:
                        recovery["final_nprocs"] = nlive
                    return sim, recovery
                except RankFailedError as exc:
                    if ckpt is None or recovery is None:
                        raise
                    recovery["restarts"] += 1
                    recovery["failed_attempts"].append(
                        {
                            "nprocs": nlive,
                            "failed_ranks": list(exc.failed),
                            "wall_time": exc.wall_time,
                        }
                    )
                    nlive -= max(1, len(exc.failed))
                    if nlive < 1 or recovery["restarts"] > MAX_RESTARTS:
                        raise
        finally:
            if tmpdir is not None:
                shutil.rmtree(tmpdir, ignore_errors=True)

    def _assemble(self, sim, corpus_name: str, recovery=None) -> EngineResult:
        root = sim.rank_results[0]
        assert root is not None, "rank 0 must assemble the result"
        timings = StageTimings.from_tracer(sim.tracer, sim.rank_times)
        timings.extras["index_invert_per_rank"] = sim.tracer.per_rank_totals(
            "index:invert"
        )
        if recovery is not None:
            root["meta"] = dict(root["meta"], recovery=recovery)
        return EngineResult(
            corpus_name=corpus_name,
            nprocs=self.nprocs,
            timings=timings,
            # like last_tracer, this reports the final attempt of a
            # restarted run (each attempt gets a fresh World/registry)
            metrics=sim.metrics.snapshot(),
            **root,
        )


def _engine_rank_main(
    ctx: RankContext,
    parts: list[list[Document]],
    cfg: EngineConfig,
    ckpt: StageCheckpointer | None = None,
):
    """SPMD entry for in-memory corpora (pre-partitioned documents)."""
    return _engine_core(ctx, parts[ctx.rank], cfg, io_charged=False, ckpt=ckpt)


def _files_rank_main(
    ctx: RankContext,
    file_parts: list[list],
    cfg: EngineConfig,
    ckpt: StageCheckpointer | None = None,
):
    """SPMD entry for on-disk sources: each process scans its own
    list of source files (paper §3.2), then global document IDs are
    established collectively."""
    import os

    from repro.text.formats import read_source

    with ctx.region("scan"):
        local_docs: list[Document] = []
        for path in file_parts[ctx.rank]:
            nbytes = os.path.getsize(path)
            ctx.charge_io(nbytes, concurrent_readers=ctx.nprocs)
            corpus_part = read_source(path)
            # record/field identification over the raw bytes
            ctx.charge_cpu(nbytes // 4, Scale.STREAM)
            local_docs.extend(corpus_part.documents)
        # contiguous global document IDs via an exclusive scan
        offset = ctx.comm.exscan(len(local_docs))
        offset = 0 if offset is None else int(offset)
        docs = [
            Document(doc_id=offset + i, fields=d.fields)
            for i, d in enumerate(local_docs)
        ]
    return _engine_core(ctx, docs, cfg, io_charged=True, ckpt=ckpt)


def _ckpt_write(
    ctx: RankContext,
    ckpt: StageCheckpointer,
    stage: str,
    arrays,
    meta=None,
) -> None:
    """Collective checkpoint write: rank 0 persists, everyone syncs.

    ``arrays`` is meaningful on rank 0 only.  Rank 0 pays the write as
    a single-writer shared-FS I/O charge; the closing barrier makes the
    stage boundary (and the snapshot) globally visible before anyone
    proceeds.
    """
    if ctx.rank == 0:
        nbytes = ckpt.save(stage, arrays, meta)
        ctx.charge_io(nbytes, concurrent_readers=1)
        ctx.tracer.instant(
            ctx.rank, f"ckpt:save:{stage}", ctx.now, {"nbytes": nbytes}
        )
    ctx.barrier()


def _ckpt_read(ctx: RankContext, ckpt: StageCheckpointer, stage: str):
    """Restore one stage snapshot on the calling rank.

    Every rank reads the shared file; the charge models ``nprocs``
    concurrent readers hitting the shared filesystem.
    """
    arrays, meta = ckpt.load(stage)
    nbytes = ckpt.nbytes(stage)
    ctx.charge_io(nbytes, concurrent_readers=ctx.nprocs)
    ctx.tracer.instant(
        ctx.rank, f"ckpt:load:{stage}", ctx.now, {"nbytes": nbytes}
    )
    return arrays, meta


def _stats_from_saved(arrays, local_terms, gid_lo: int, gid_hi: int):
    """Rebuild this rank's :class:`TermStats` from an index snapshot.

    The snapshot stores (term, df, cf) sorted by term -- independent of
    any gid layout -- so the restart maps its *own* dense-gid range
    back through the term strings.
    """
    saved_terms = arrays["term"]
    local_arr = np.asarray(local_terms, dtype=object)
    pos = np.searchsorted(saved_terms, local_arr)
    return TermStats(
        gid_lo=gid_lo,
        gid_hi=gid_hi,
        df=arrays["df"][pos].astype(np.int64),
        cf=arrays["cf"][pos].astype(np.int64),
    )


def _ranked_from_saved(arrays, prefix: str, term_to_gid) -> list[RankedTerm]:
    """Rebuild ranked-term lists with gids re-derived from the current
    run's vocabulary (saved gids belong to the crashed run's layout)."""
    keys = ("term", "gid", "score", "df", "cf")
    terms = terms_from_arrays({k: arrays[f"{prefix}{k}"] for k in keys})
    return [
        RankedTerm(
            term=t.term,
            gid=int(term_to_gid[t.term]),
            score=t.score,
            df=t.df,
            cf=t.cf,
        )
        for t in terms
    ]


def _engine_core(
    ctx: RankContext,
    docs: list[Document],
    cfg: EngineConfig,
    io_charged: bool,
    ckpt: StageCheckpointer | None = None,
):
    machine = ctx.machine
    local_bytes = sum(d.nbytes for d in docs)
    # memory-pressure multiplier on compute (Fig. 5 anomaly model)
    pf = machine.pressure_factor(local_bytes * _MEM_EXPANSION)
    vocab_factor = machine.scaled(1.0, Scale.VOCAB)
    tokenizer = Tokenizer(cfg.tokenizer)
    # stages already snapshotted by a previous (crashed) attempt; their
    # recomputation is replaced by a restore below
    done = () if ckpt is None else ckpt.completed()

    # ------------------------------------------------------- scan & map
    with ctx.region("scan"):
        if not io_charged:
            ctx.charge_io(local_bytes, concurrent_readers=ctx.nprocs)
        forward, uniq, sstats = scan_forward(docs, tokenizer)
        ctx.charge(
            machine.scan_seconds(sstats.nbytes, sstats.ntokens) * pf
        )
        hashmap = GlobalHashMap.create(ctx, "vocab")
        if "scan" in done:
            # skip the distributed insert RPCs: repopulate each shard
            # locally from the snapshotted vocabulary
            arrays, _ = _ckpt_read(ctx, ckpt, "scan")
            nrestored = hashmap.restore_terms(arrays["terms"])
            ctx.charge_cpu(nrestored * 6, Scale.VOCAB)
        else:
            hashmap.get_or_insert_batch(uniq)
            ctx.charge(machine.unique_terms_seconds(len(uniq)))
        ctx.barrier()  # forward indexing & hashmap construction done
        vocab = finalize_vocabulary(ctx, hashmap)
        forward.assign_gids(uniq, vocab.term_to_gid)
        ctx.charge_cpu(sstats.ntokens * 3, Scale.STREAM)
        if ckpt is not None and "scan" not in done:
            _ckpt_write(
                ctx,
                ckpt,
                "scan",
                {"terms": np.array(vocab.gid_to_term, dtype=object)},
            )
        ctx.barrier()

    # ------------------------------------------- inverted file indexing
    with ctx.region("index"):
        # publish this rank's forward index in the global address space
        ctx.sched.wait_turn(ctx.rank)
        store = ctx.world.published_store(_FWD_STORE_KEY)
        ctx.world.publish_store(_FWD_STORE_KEY, ctx.rank, forward)
        ctx.barrier()
        gid_lo, gid_hi = vocab.dist.local_range(ctx.rank)
        local_terms = vocab.gid_to_term[gid_lo:gid_hi]
        if "index" in done:
            arrays, _ = _ckpt_read(ctx, ckpt, "index")
            stats = _stats_from_saved(arrays, local_terms, gid_lo, gid_hi)
            ctx.charge_cpu(len(local_terms) * 8, Scale.VOCAB)
            processed_loads = 0
        else:
            stats, processed_loads = _index_stage(
                ctx, cfg, machine, pf, vocab, forward, store, gid_lo, gid_hi
            )
            if ckpt is not None:
                piece = (
                    np.array(local_terms, dtype=object),
                    stats.df,
                    stats.cf,
                )
                pieces = ctx.comm.gather(
                    piece,
                    root=0,
                    nbytes_hint=payload_nbytes(piece) * vocab_factor,
                )
                arrays = None
                if ctx.rank == 0:
                    terms_all = np.concatenate([p[0] for p in pieces])
                    df_all = np.concatenate([p[1] for p in pieces])
                    cf_all = np.concatenate([p[2] for p in pieces])
                    order = np.argsort(terms_all)
                    arrays = {
                        "term": terms_all[order],
                        "df": df_all[order],
                        "cf": cf_all[order],
                    }
                _ckpt_write(ctx, ckpt, "index", arrays)

    # ---------------------------------------------------------- topicality
    with ctx.region("topic"):
        n_docs = ctx.comm.allreduce(len(docs))
        if "topic" in done:
            arrays, _ = _ckpt_read(ctx, ckpt, "topic")
            candidates = _ranked_from_saved(
                arrays, "cand_", vocab.term_to_gid
            )
            ctx.charge_cpu(len(candidates) * 20, Scale.VOCAB)
        else:
            candidates = _topic_stage(
                ctx, cfg, vocab, stats, n_docs, local_terms,
                gid_lo, vocab_factor,
            )
            if ckpt is not None:
                arrays = None
                if ctx.rank == 0:
                    arrays = {
                        f"cand_{k}": v
                        for k, v in terms_to_arrays(candidates).items()
                    }
                _ckpt_write(ctx, ckpt, "topic", arrays)

    # ------------------------------- association matrix + signatures
    doc_gid_arrays = forward.per_doc(forward.gids)
    my_ids = forward.doc_ids

    if "sig" in done:
        arrays, sig_meta = _ckpt_read(ctx, ckpt, "sig")
        all_sig_ids = arrays["doc_ids"]
        pos = np.searchsorted(all_sig_ids, my_ids)
        sigs = arrays["signatures"][pos]
        assoc = arrays["association"]
        majors = _ranked_from_saved(arrays, "major_", vocab.term_to_gid)
        topics = majors[: int(sig_meta["n_topics"])]
        null_fraction = float(sig_meta["null_fraction"])
        rounds = int(sig_meta["adapt_rounds"])
        ctx.charge_cpu(sigs.size * 2, Scale.STREAM)
    else:
        majors, topics, assoc, sigs, null_fraction, rounds = _sig_stage(
            ctx, cfg, machine, pf, candidates, doc_gid_arrays,
            n_docs, sstats,
        )
        if ckpt is not None:
            gathered_sigs = ctx.comm.gather(
                (my_ids, sigs),
                root=0,
                nbytes_hint=machine.scaled(
                    payload_nbytes((my_ids, sigs)), Scale.STREAM
                ),
            )
            arrays = None
            if ctx.rank == 0:
                ids_all = np.concatenate([p[0] for p in gathered_sigs])
                sig_all = np.vstack([p[1] for p in gathered_sigs])
                order = np.argsort(ids_all)
                arrays = {
                    "doc_ids": ids_all[order],
                    "signatures": sig_all[order],
                    "association": assoc,
                }
                for k, v in terms_to_arrays(majors).items():
                    arrays[f"major_{k}"] = v
            _ckpt_write(
                ctx,
                ckpt,
                "sig",
                arrays,
                meta={
                    "n_topics": len(topics),
                    "null_fraction": float(null_fraction),
                    "adapt_rounds": int(rounds),
                },
            )

    return _clusproj_and_assemble(
        ctx, cfg, machine, pf, vocab, n_docs,
        majors, topics, assoc, sigs, null_fraction, rounds,
        my_ids, local_terms, stats, processed_loads, sstats,
    )


def _dlb_cost_hints(ctx, machine, pf, forward, chunk):
    """Per-own-load cost hints for the mp backend's claim planner.

    ``None`` under the simulator (the scheduler already serializes
    claims deterministically).  Under mp the hints let every process
    replay the identical claim interleaving: each own load's scaled
    transfer bytes and base inversion seconds -- exactly the charges
    ``process_load`` makes, so the offline replay is bit-exact.
    """
    if getattr(ctx.world, "backend", "sim") != "mp":
        return None
    own = []
    for lo in range(0, len(forward), chunk):
        nb = machine.scaled(
            forward.nbytes_of_chunk(lo, lo + chunk), Scale.STREAM
        )
        gsize = forward.ntokens_of_chunk(lo, lo + chunk)
        own.append((float(nb), float(machine.invert_seconds(gsize))))
    return (pf, own)


def _index_stage(
    ctx: RankContext,
    cfg: EngineConfig,
    machine,
    pf: float,
    vocab,
    forward,
    store,
    gid_lo: int,
    gid_hi: int,
):
    """FAST-INV inversion with dynamic load balancing + postings
    exchange and global term statistics (paper 3.3)."""
    chunk = cfg.chunk_docs
    nloads = (len(forward) + chunk - 1) // chunk
    load_counts = ctx.comm.allgather(nloads)
    offsets = np.concatenate([[0], np.cumsum(load_counts)])
    bucket_g: list[list[np.ndarray]] = [[] for _ in range(ctx.nprocs)]
    bucket_d: list[list[np.ndarray]] = [[] for _ in range(ctx.nprocs)]
    bucket_c: list[list[np.ndarray]] = [[] for _ in range(ctx.nprocs)]
    processed_loads = 0

    def process_load(task_id: int) -> None:
        nonlocal processed_loads
        owner = int(
            np.searchsorted(offsets, task_id, side="right") - 1
        )
        li = int(task_id - offsets[owner])
        fwd = store[owner]
        lo = li * chunk
        hi = lo + chunk
        if owner != ctx.rank:
            # fetch the stolen load's forward data (one-sided get)
            nb = fwd.nbytes_of_chunk(lo, hi)
            ctx.charge(
                machine.onesided_seconds(
                    machine.scaled(nb, Scale.STREAM),
                    intra_node=machine.same_node(ctx.rank, owner),
                )
            )
            ctx.metrics.counter("comm.onesided.bytes", ("peer", "dir")).inc(
                ctx.rank,
                float(machine.scaled(nb, Scale.STREAM)),
                key=(owner, "get"),
            )
        g, d = fwd.chunk_streams(lo, hi)
        t2d = invert_chunk(g, d)
        ctx.charge(machine.invert_seconds(g.size) * pf)
        # gids ascend and owners hold contiguous gid ranges, so each
        # owner's postings are one slice
        cuts = np.searchsorted(t2d.gids, vocab.dist.bounds).tolist()
        for r in range(ctx.nprocs):
            a, b = cuts[r], cuts[r + 1]
            if b > a:
                bucket_g[r].append(t2d.gids[a:b])
                bucket_d[r].append(t2d.keys[a:b])
                bucket_c[r].append(t2d.counts[a:b])
        processed_loads += 1

    # the inner region measures each rank's inversion *busy* time
    # (before the exchange barrier evens the clocks out) -- the
    # per-processor load distribution Figure 9 plots
    with ctx.region("index:invert"):
        if cfg.dynamic_load_balancing:
            queue = SharedTaskQueue(
                ctx, "ifi", load_counts, chunk=1,
                cost_hints=_dlb_cost_hints(ctx, machine, pf, forward, chunk),
            )
            while (got := queue.next_chunk()) is not None:
                for t in range(got[0], got[1]):
                    process_load(t)
                queue.complete(*got)
        else:
            for t in range(
                int(offsets[ctx.rank]), int(offsets[ctx.rank + 1])
            ):
                process_load(t)

    def _cat(parts_list: list[np.ndarray]) -> np.ndarray:
        if not parts_list:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts_list)

    per_dest = [
        (_cat(bucket_g[r]), _cat(bucket_d[r]), _cat(bucket_c[r]))
        for r in range(ctx.nprocs)
    ]
    exchange_nbytes = sum(
        g.nbytes + d.nbytes + c.nbytes for g, d, c in per_dest
    )
    incoming = ctx.comm.alltoallv(
        per_dest,
        nbytes_hint=machine.scaled(exchange_nbytes, Scale.STREAM),
    )
    # loads are disjoint document ranges, so no (term, doc) pair
    # arrives twice and the statistics need no merge
    my_gids = _cat([g for g, _, _ in incoming])
    ctx.charge(machine.invert_seconds(len(my_gids)))
    stats = stats_from_doc_postings(
        my_gids, _cat([c for _, _, c in incoming]), gid_lo, gid_hi
    )
    # global term statistics live in global arrays (paper 3.3)
    df_ga = GlobalArray.create(
        ctx, "stats:df", (vocab.size,), dtype=np.int64, dist=vocab.dist
    )
    cf_ga = GlobalArray.create(
        ctx, "stats:cf", (vocab.size,), dtype=np.int64, dist=vocab.dist
    )
    df_ga.local_view()[:] = stats.df
    cf_ga.local_view()[:] = stats.cf
    ctx.charge(
        machine.memcpy_seconds(
            machine.scaled(stats.df.nbytes * 2, Scale.VOCAB)
        )
    )
    df_ga.sync()
    return stats, processed_loads


def _topic_stage(
    ctx: RankContext,
    cfg: EngineConfig,
    vocab,
    stats,
    n_docs: int,
    local_terms,
    gid_lo: int,
    vocab_factor: float,
):
    """Parallel topicality: local Bookstein candidates, global merge
    of the per-owner tops (paper 3.4)."""
    # Bookstein measure + local candidate sort (per owned term)
    ctx.charge_cpu(len(local_terms) * 1500, Scale.VOCAB)
    cands_local = local_candidates(
        local_terms,
        gid_lo=gid_lo,
        df=stats.df,
        cf=stats.cf,
        n_docs=n_docs,
        min_df=cfg.min_df,
        limit=cfg.max_major_terms,
    )
    # global merge-sort of per-owner tops, broadcast to all (3.4)
    cand_nbytes = payload_nbytes(cands_local)
    all_cands = ctx.comm.allgather(
        cands_local, nbytes_hint=cand_nbytes * vocab_factor
    )
    # every rank holds the same gathered lists, so the merge sort is
    # computed once and shared (the virtual-time charge below still
    # applies per rank -- the replication cost is what the paper's
    # scaling argument is about)
    candidates = ctx.replicated(
        ("topic.merge",),
        lambda: rank_candidates(
            [c for part in all_cands for c in part]
        )[: cfg.max_major_terms],
    )
    # global merge-sort of the gathered candidate lists -- this
    # work is replicated on every rank (it covers the full
    # vocabulary-sized candidate set), which is why the paper's
    # topicality component "does not scale well"
    total_cands = sum(len(part) for part in all_cands)
    ctx.charge_cpu(total_cands * 400, Scale.VOCAB)
    return candidates


def _sig_stage(
    ctx: RankContext,
    cfg: EngineConfig,
    machine,
    pf: float,
    candidates,
    doc_gid_arrays,
    n_docs: int,
    sstats,
):
    """Association matrix + knowledge signatures (paper 3.4)."""

    def reduce_counts(local_counts: np.ndarray) -> np.ndarray:
        return ctx.comm.allreduce(local_counts)

    def reduce_nulls(n_null: int) -> int:
        return ctx.comm.allreduce(int(n_null))

    def charge_am(n_major: int, n_topics: int) -> None:
        # presence scan over the local token stream + matrix updates
        ctx.charge_cpu(sstats.ntokens * 12, Scale.STREAM)
        ctx.charge_flops(float(n_major) * n_topics * 4.0)

    def charge_docvec(batch) -> None:
        m = batch.signatures.shape[1] if batch.signatures.size else 1
        ctx.charge(
            machine.flops_seconds(sstats.ntokens * max(1, m) * 3.0, Scale.STREAM)
            * pf
        )

    majors, topics, assoc, batch, null_fraction, rounds = signature_model(
        candidates,
        doc_gid_arrays,
        n_docs,
        cfg,
        reduce_counts=reduce_counts,
        reduce_nulls=reduce_nulls,
        am_scope=lambda: ctx.region("am"),
        docvec_scope=lambda: ctx.region("docvec"),
        charge_am=charge_am,
        charge_docvec=charge_docvec,
        once=ctx.replicated,
    )
    return majors, topics, assoc, batch.signatures, null_fraction, rounds


def _clusproj_and_assemble(
    ctx: RankContext,
    cfg: EngineConfig,
    machine,
    pf: float,
    vocab,
    n_docs: int,
    majors,
    topics,
    assoc,
    sigs,
    null_fraction: float,
    rounds: int,
    my_ids: np.ndarray,
    local_terms,
    stats,
    processed_loads: int,
    sstats,
):
    """Distributed k-means + centroid PCA, then rank-0 assembly."""
    with ctx.region("clusproj"):
        k_goal, k_fine = cluster_sizes(cfg, n_docs)
        m_dim = sigs.shape[1]
        # replicated seeding sample at deterministic global indices
        sidx = sample_indices(n_docs, cfg.kmeans_sample)
        mine = np.isin(my_ids, sidx)
        contrib = (my_ids[mine], sigs[mine])
        pieces = ctx.comm.allgather(contrib)

        def _seed_centroids():
            samp_ids = np.concatenate([p[0] for p in pieces])
            samp_vecs = np.vstack([p[1] for p in pieces])
            sample = samp_vecs[np.argsort(samp_ids)]
            rng = np.random.default_rng(cfg.seed)
            return sample.shape[0], kmeanspp_seeds(sample, k_fine, rng)

        # the gathered sample is identical on every rank, so seeding
        # is replicated work: compute once, charge the model per rank
        n_sample, centroids = ctx.replicated(
            ("clusproj.seeds",), _seed_centroids
        )
        k = centroids.shape[0]
        ctx.charge_flops(float(n_sample) * k * max(1, m_dim) * 3)
        # Dhillon-Modha distributed k-means: local assign, allreduce
        # of per-cluster partial sums and counts
        n_iter = 0
        for n_iter in range(1, KMEANS_MAX_ITER + 1):
            labels, sq = assign_points(sigs, centroids)
            ctx.charge(
                machine.flops_seconds(
                    len(sigs) * k * max(1, m_dim) * 3.0, Scale.STREAM
                )
                * pf
            )
            sums, counts = partial_update(sigs, labels, k)
            packed = np.concatenate(
                [sums.ravel(), counts.astype(np.float64)]
            )
            total = ctx.comm.allreduce(packed)

            def _step(total=total, centroids=centroids):
                tot_sums = total[: k * m_dim].reshape(k, m_dim)
                tot_counts = total[k * m_dim :]
                new_c = centroids_from_partials(
                    tot_sums, tot_counts, centroids
                )
                return new_c, float(
                    np.max(np.abs(new_c - centroids), initial=0.0)
                )

            # the allreduced partials are identical on every rank
            centroids, shift = ctx.replicated(
                ("clusproj.step", n_iter), _step
            )
            if shift <= KMEANS_TOL:
                break
        labels, sq = assign_points(sigs, centroids)
        if cfg.cluster_method != "kmeans":
            # hierarchical merge of the replicated micro-clusters
            # (identical on every rank; see repro.cluster.twolevel)
            _, fine_counts = partial_update(sigs, labels, k)
            tot_fine = ctx.comm.allreduce(
                fine_counts.astype(np.float64)
            )
            mapping, centroids = ctx.replicated(
                ("clusproj.merge",),
                lambda: merge_micro_clusters(
                    centroids, tot_fine.astype(np.int64), k_goal,
                    cfg.cluster_method,
                ),
            )
            ctx.charge_flops(float(k) ** 3)
            labels = mapping[labels]
            sq = np.sum((sigs - centroids[labels]) ** 2, axis=1)
            k = centroids.shape[0]
        inertia = ctx.comm.allreduce(float(sq.sum()))
        # PCA on the replicated centroids, identical on every rank:
        # one real fit, shared; model cost charged per rank below
        transform = ctx.replicated(
            ("clusproj.pca",),
            lambda: fit_pca(centroids, dim=cfg.projection_dim),
        )
        ctx.charge_flops(
            float(k) * m_dim * m_dim + float(m_dim) ** 3
        )
        coords = transform.project(sigs)
        ctx.charge_flops(
            len(sigs) * m_dim * cfg.projection_dim, Scale.STREAM
        )
        # the master (rank 0) collects all coordinates (paper 3.5)
        payload = (my_ids, coords, labels)
        gathered = ctx.comm.gather(
            payload,
            root=0,
            nbytes_hint=machine.scaled(
                payload_nbytes(payload), Scale.STREAM
            ),
        )

    # --------------------------- result assembly (bookkeeping, rank 0)
    sig_pieces = ctx.comm.gather((my_ids, sigs), root=0, nbytes_hint=0.0)
    stats_pieces = ctx.comm.gather(
        (local_terms, stats.df, stats.cf), root=0, nbytes_hint=0.0
    )
    if ctx.rank != 0:
        return None

    all_ids = np.concatenate([p[0] for p in gathered])
    all_coords = np.vstack([p[1] for p in gathered])
    all_labels = np.concatenate(
        [np.asarray(p[2], dtype=np.int64) for p in gathered]
    )
    order = np.argsort(all_ids)
    sig_ids = np.concatenate([p[0] for p in sig_pieces])
    sig_mat = np.vstack([p[1] for p in sig_pieces])
    signatures = sig_mat[np.argsort(sig_ids)]
    term_stats = {}
    for terms_part, df_part, cf_part in stats_pieces:
        for t, dfv, cfv in zip(terms_part, df_part, cf_part):
            term_stats[t] = (int(dfv), int(cfv))
    return dict(
        n_docs=int(n_docs),
        vocab_size=vocab.size,
        major_terms=majors,
        topic_terms=topics,
        association=assoc,
        doc_ids=all_ids[order],
        coords=all_coords[order],
        assignments=all_labels[order],
        centroids=centroids,
        inertia=float(inertia),
        kmeans_iters=int(n_iter),
        null_fraction=float(null_fraction),
        adapt_rounds=int(rounds),
        projection=transform,
        signatures=signatures,
        term_stats=term_stats,
        meta={
            "processed_loads_rank0": processed_loads,
            "scan_tokens_rank0": sstats.ntokens,
        },
    )
