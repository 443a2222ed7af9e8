"""The bench studies: seven seeded workloads on one mechanism.

Each function below is registered with :func:`repro.bench.study.study`
and returns one document of exact virtual statistics, ``info`` wall
clocks and named ``oracles`` (see :mod:`repro.bench.study` for what
the runner does with them).  Default sizes are the module constants;
tests pass toy sizes as keyword arguments.

``serving``
    one closed-loop workload replayed through the broker at P in
    {1, 2, 4, 8} shards, then at the largest count under a crash plan
    (one shard rank dies mid-run): every query must still be answered,
    degrading to partial responses.
``replica``
    the replicated tier: Zipf hot-spot workloads with thousands of
    clients through router-fronted broker pools at growing rank counts
    (the largest row runs 64 ranks), then one configuration run
    fault-free, with a mid-run worker crash at R=2 (zero degraded
    responses, byte-identical answers) and the same crash at R=1
    (reproduces the flagged degradation the tier exists to remove).
``workbench``
    seeded multi-tenant analyst sessions (open -> search -> refine/set
    algebra -> derive -> close) at P in {1, 2, 4}; transcripts must be
    byte-identical across shard counts and under
    ``REPRO_SCHED_SLOWPATH=1``.
``dashboard``
    dashboard clients polling sliding-window facet queries mixed with
    search traffic over a stamped two-generation store; transcripts
    must be byte-identical across shard counts, schedulers, backends,
    and between schedulers while live ingest churns generations.
``pruning``
    a term-search-heavy workload over a 40 MB corpus replayed through
    the term-search kernel at broker batch sizes B in {1, 4, 16};
    every run's answers are compared, bit for bit, with the
    single-node ``AnalysisSession.term_search`` reference.
``ingest``
    the serving workload while a seeded document feed publishes
    generations (and compacts) under it, plus the crash run: publish
    freshness lag, churn-time latency, ingest volume.
``paper``
    the paper's evaluation (§4.2): the Fig. 5-8 sweep grid (both
    datasets, three sizes each, P in {4, 8, 16, 32}), Fig. 9's dynamic
    vs static load balancing and the §3.3 strategy ablation.  The
    figure tables are the exact records, the sweep points' runtime
    counter totals ride along, and every shape claim is an oracle.
    The 2.75 GB PubMed sweep points at P in {4, 8, 16} run again under
    the ``mp`` execution backend (one OS process per rank): their
    end-to-end and per-stage virtual seconds and counter totals must
    equal the ``sim`` (single-process simulator) run's to the last bit.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import shutil
import time

from repro.analysis.session import AnalysisSession
from repro.bench.figures import (
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
from repro.bench.harness import PAPER_PROCS, PUBMED_SIZES
from repro.bench.study import (
    CORPUS_SEED,
    Fixture,
    compare,
    point,
    say,
    study,
)
from repro.engine.config import EngineConfig
from repro.engine.parallel import ParallelTextEngine
from repro.facets import FacetSpec, extract_facets
from repro.ingest.compact import CompactionPolicy
from repro.ingest.delta import append_generation, build_delta
from repro.ingest.feed import FeedConfig, FeedSource
from repro.ingest.live import IngestConfig, IngestPlan, serve_live
from repro.runtime import MachineSpec, counter_totals
from repro.runtime.faults import CrashFault, FaultPlan
from repro.serve.broker import BrokerConfig, serve
from repro.serve.query import canonical_response
from repro.serve.replica import ReplicaMap
from repro.serve.router import RouterConfig, serve_replicated
from repro.serve.workload import (
    generate_dashboard_workload,
    generate_workload,
    generate_zipf_workload,
    store_profile,
)
from repro.workbench import (
    WorkbenchConfig,
    generate_analyst_workload,
    serve_workbench,
)

WORKLOAD_SEED = 7

SERVING_SHARDS = (1, 2, 4, 8)
SERVING_CLIENTS = 4
SERVING_QUERIES = 30

#: replicated-tier scaling matrix:
#: (nshards, workers, brokers, replicas, clients, queries/client).
#: Ranks = 1 router + brokers + workers; the last row runs 64 ranks
#: with two thousand Zipf clients hammering seven brokers.
REPLICA_MATRIX = (
    (8, 8, 2, 2, 200, 3),
    (16, 16, 4, 2, 600, 3),
    (32, 56, 7, 2, 2000, 2),
)

#: shard counts the same analyst transcript must be byte-identical
#: across
WORKBENCH_SHARDS = (1, 2, 4)
#: deliberately tight quotas + a short TTL so the study exercises every
#: lifecycle path: quota sheds (3 sessions/tenant vs max 2), TTL
#: evictions (the paused sessions idle far past 30 virtual seconds),
#: and artifact cache hits (sessions share per-tenant anchor pools)
_WORKBENCH_CONFIG = WorkbenchConfig(
    max_sessions=2,
    max_sets=8,
    max_derived_bytes=1 << 14,
    session_ttl_s=30.0,
)
_WORKBENCH_KNOBS = dict(
    n_tenants=2,
    sessions_per_tenant=3,
    ops_per_session=8,
    pool_size=2,
    pause_fraction=0.4,
    pause_s=90.0,
)
#: reject reasons that count as quota sheds (vs contract errors)
_QUOTA_REASONS = ("session_quota", "set_quota", "derived_bytes_quota")

#: shard counts the same poll transcript must be byte-identical across
DASHBOARD_SHARDS = (1, 2, 4)
_DASHBOARD_CORPUS_BYTES = 60_000
_DASHBOARD_SOURCES = 4
_DASHBOARD_SPAN_S = 600.0
#: many clients, high poll rate, a quarter classic search traffic --
#: the "wall of dashboards next to the analysts" shape
_DASHBOARD_KNOBS = dict(
    n_clients=10,
    polls_per_client=8,
    mean_poll_s=0.01,
    n_terms=6,
)
#: the stamped feed appended as the store's second generation (and
#: replayed live in the churn oracle)
_DASHBOARD_FEED_DOCS = 8
_DASHBOARD_FEED_BATCHES = 2

#: the pruning study runs over its own, much larger corpus -- block-max
#: skipping only pays once posting decode dominates per-query cost, so
#: the headline numbers need enough documents for the numpy kernels to
#: outweigh simulator bookkeeping
PRUNING_CORPUS_BYTES = 40_000_000
PRUNING_BATCH_SIZES = (1, 4, 16)
#: one shard: block-max skipping is a per-shard kernel win, and
#: splitting ~15k docs over many tiny shards buries it in per-op
#: dispatch overhead (the shard-count scaling story is ``serving``)
_PRUNING_SHARDS = 1
#: zero-think closed loop so the broker actually queues -- cross-query
#: batching only pays when more than one search op is waiting
_PRUNING_CLIENTS = 32
_PRUNING_QUERIES = 10
_PRUNING_MAX_INFLIGHT = 64
#: the pruning corpus is ~200x larger; bigger chunks keep the one-time
#: engine run short (serving stats never depend on chunking -- it only
#: shapes engine wall time)
_PRUNING_ENGINE = EngineConfig(
    n_major_terms=300, n_clusters=8, chunk_docs=64
)

INGEST_SHARDS = (1, 2, 4)
INGEST_CLIENTS = 3
INGEST_QUERIES = 20
INGEST_BATCHES = 4
INGEST_BATCH_DOCS = 10
_INGEST_MAX_DELTAS = 2

#: the defaults EXPERIMENTS.md documents
PAPER_DOWNSCALE = 10_000.0
PAPER_SEED = 7
PAPER_FIG9_PROCS = 8
PAPER_FIG9_BYTES = 3_000_000
#: processor counts of the smallest PubMed sweep re-run under mp
PAPER_MP_PROCS = (4, 8, 16)


def reap_children(timeout: float = 5.0) -> list[str]:
    """Join any live multiprocessing children; return names still alive.

    The mp backend tears its workers down on every exit path, but a
    benchmark or test that died mid-run can leave orphans whose atexit
    handlers then race pytest's warning checks.  Joining (and, as a
    last resort, terminating) here makes teardown deterministic.
    """
    leaked: list[str] = []
    for proc in multiprocessing.active_children():
        proc.join(timeout)
        if proc.is_alive():  # pragma: no cover - pathological
            proc.terminate()
            proc.join(timeout)
        if proc.is_alive():  # pragma: no cover - pathological
            leaked.append(proc.name)
    return leaked


def _with_slowpath(run):
    """Call ``run()`` with ``REPRO_SCHED_SLOWPATH=1``, restoring the
    prior environment afterwards (the scheduler reads the variable at
    cluster construction)."""
    saved = os.environ.get("REPRO_SCHED_SLOWPATH")
    os.environ["REPRO_SCHED_SLOWPATH"] = "1"
    try:
        return run()
    finally:
        if saved is None:
            os.environ.pop("REPRO_SCHED_SLOWPATH", None)
        else:
            os.environ["REPRO_SCHED_SLOWPATH"] = saved


def _answers(report) -> dict:
    return {
        (r["client"], r["seq"]): canonical_response(r["response"])
        for r in report.responses
    }


def _feed(fixture: Fixture, **config) -> list:
    """Seeded batches continuing the fixture corpus's own document
    stream (the synthetic vocabulary is keyed to the seed: a different
    one would share no terms with the frozen model and project every
    doc to null)."""
    return FeedSource(
        FeedConfig(
            dataset="pubmed",
            seed=CORPUS_SEED,
            themes=6,
            skip_docs=len(fixture.corpus.documents),
            start_doc_id=int(fixture.result.doc_ids[-1]) + 1,
            mean_interarrival_s=0.05,
            **config,
        )
    ).batches()


def _matrix_and_crash(
    name, shards, total_queries, run, note, progress
) -> dict:
    """``run(p, config, faults) -> (report, point)`` at every shard
    count, then at the largest count with one mid shard rank crashing
    halfway into the workload; ``note(point)`` ends a progress line."""
    points = {}
    for p in shards:
        _, points[str(p)] = run(p, BrokerConfig(), None)
        say(progress, f"{name} P={p}", points[str(p)], note(points[str(p)]))
    p = max(shards)
    crash_rank, at_call = 1 + p // 2, total_queries // 2
    report, pt = run(
        p,
        BrokerConfig(shard_timeout_s=2.0),
        FaultPlan(faults=(CrashFault(rank=crash_rank, at_call=at_call),)),
    )
    say(
        progress,
        f"{name} P={p} +crash(rank {crash_rank})",
        pt,
        f"{pt['degraded']} degraded ({pt['degraded_rate']:.0%}), {note(pt)}",
    )
    return {
        "points": points,
        "fault": {
            "point": pt,
            "crashed_rank": crash_rank,
            "at_call": at_call,
            "failed_ranks": report.failed_ranks,
        },
        "oracles": {
            "crash_run_answers_every_query": report.served
            + len(report.rejected)
            == total_queries,
            "crash_run_degrades": pt["degraded"] > 0,
        },
    }


@study("serving")
def serving(
    fixture,
    progress,
    shards=SERVING_SHARDS,
    n_clients=SERVING_CLIENTS,
    queries_per_client=SERVING_QUERIES,
) -> dict:
    """Shard-count matrix plus crash run; the same scripts replay at
    every count so the statistics are comparable across P."""
    scripts = generate_workload(
        store_profile(fixture.store(max(shards))),
        n_clients=n_clients,
        queries_per_client=queries_per_client,
        seed=WORKLOAD_SEED,
    )

    def run(p, config, faults):
        report = serve(
            fixture.store(p), scripts, config=config, faults=faults
        )
        return report, point(
            report, "serve.", nshards=p, rejected=len(report.rejected)
        )

    return _matrix_and_crash(
        "serving",
        shards,
        n_clients * queries_per_client,
        run,
        lambda pt: f"hit rate {pt['cache_hit_rate']:.0%}",
        progress,
    )


def _tier_point(row, report) -> dict:
    nshards, workers, brokers, replicas, n_clients, _ = row
    return point(
        report,
        "serve.",
        nshards=nshards,
        workers=workers,
        brokers=brokers,
        replicas=replicas,
        ranks=1 + brokers + workers,
        n_clients=n_clients,
        shed=len(report.shed),
        shed_rate=round(report.shed_rate, 6),
        failovers=report.failovers,
        hedges=report.hedges,
        suspicions=report.suspicions,
    )


@study("replica")
def replica(fixture, progress, matrix=REPLICA_MATRIX) -> dict:
    """Zipf scaling matrix over the replicated tier, then the
    failover study.

    The failover crash victim is the sole R=1 owner of shard 0 (the
    consistent hash walk makes it the *first* R=2 owner too), so the
    same fault plan forces a failover at R=2 and a flagged degradation
    at R=1.
    """
    points = {}
    for row in matrix:
        nshards, workers, brokers, replicas, n_clients, qpc = row
        store_dir = fixture.store(nshards, replicas)
        scripts = generate_zipf_workload(
            store_profile(store_dir),
            n_clients=n_clients,
            queries_per_client=qpc,
            seed=WORKLOAD_SEED,
        )
        report = serve_replicated(
            store_dir,
            scripts,
            config=RouterConfig(
                brokers=brokers,
                workers=workers,
                replicas=replicas,
                max_inflight=16,
            ),
        )
        label = f"{nshards}s-{workers}w-{brokers}b-r{replicas}-c{n_clients}"
        points[label] = pt = _tier_point(row, report)
        say(
            progress,
            f"replica {label} ({pt['ranks']} ranks)",
            pt,
            f"shed {pt['shed']} ({pt['shed_rate']:.0%})",
        )
    nshards, workers, brokers, n_clients, qpc = 8, 8, 2, 40, 3
    store_dir = fixture.store(nshards, 2)
    scripts = generate_zipf_workload(
        store_profile(store_dir),
        n_clients=n_clients,
        queries_per_client=qpc,
        seed=WORKLOAD_SEED,
    )
    victim = ReplicaMap.place(nshards, 1, workers).workers_for(0)[0]
    crash_rank = 1 + brokers + victim
    # crash during the first fanout wave so requests are in flight to
    # the victim (exercises RankFailedError failover, not just
    # health-based avoidance); max_inflight is set high enough that
    # the failover backlog never trips the priority shed thresholds --
    # this study isolates failover, the matrix rows cover shedding
    at_call = 5
    plan = FaultPlan(faults=(CrashFault(rank=crash_rank, at_call=at_call),))

    def run(replicas, faults=None):
        report = serve_replicated(
            store_dir,
            scripts,
            config=RouterConfig(
                brokers=brokers,
                workers=workers,
                replicas=replicas,
                max_inflight=256,
                hedge_delay_s=0.5,
                shard_timeout_s=2.0,
            ),
            faults=faults,
        )
        row = (nshards, workers, brokers, replicas, n_clients, qpc)
        return report, _tier_point(row, report)

    base, base_pt = run(2)
    fault2, fault2_pt = run(2, plan)
    _, fault1_pt = run(1, plan)
    if progress:
        progress(
            f"replica failover (crash rank {crash_rank}): R=2 "
            f"{fault2_pt['degraded']} degraded / "
            f"{fault2_pt['failovers']} failovers, R=1 "
            f"{fault1_pt['degraded']} degraded"
        )
    return {
        "matrix": points,
        "failover": {
            "crashed_rank": crash_rank,
            "crashed_worker": victim,
            "at_call": at_call,
            "baseline": base_pt,
            "fault_r2": fault2_pt,
            "fault_r1": fault1_pt,
        },
        "oracles": {
            "matrix_serves_or_sheds_every_query": all(
                pt["served"] + pt["shed"] == row[4] * row[5]
                for row, pt in zip(matrix, points.values())
            ),
            "r2_crash_run_not_degraded": fault2_pt["degraded"] == 0,
            "r2_crash_run_fails_over": fault2_pt["failovers"] >= 1,
            "r2_crash_run_equals_fault_free": _answers(base)
            == _answers(fault2),
            "r1_crash_run_degrades": fault1_pt["degraded"] > 0,
        },
    }


@study("workbench")
def workbench(fixture, progress, shards=WORKBENCH_SHARDS) -> dict:
    """Analyst-workload study over the workbench tier.

    Result sets and derived artifacts are shard-layout independent, so
    any cross-count transcript drift is a determinism bug; the largest
    count then re-runs under the slowpath scheduler and must reproduce
    the fastpath transcript byte for byte.
    """
    scripts = generate_analyst_workload(
        store_profile(fixture.store(shards[-1])),
        seed=WORKLOAD_SEED,
        **_WORKBENCH_KNOBS,
    )

    def run(p):
        return serve_workbench(
            fixture.store(p), scripts, config=_WORKBENCH_CONFIG
        )

    def transcript(report) -> bytes:
        return b"\n".join(canonical_response(r) for r in report.responses)

    points, transcripts = {}, {}
    for p in shards:
        report = run(p)
        quota = sum(r.reason in _QUOTA_REASONS for r in report.rejected)
        issued = report.served + len(report.rejected)
        points[str(p)] = pt = point(
            report,
            "workbench.",
            nshards=p,
            rejected=len(report.rejected),
            quota_shed=quota,
            quota_shed_rate=round(quota / issued if issued else 0.0, 6),
            sessions_opened=report.sessions_opened,
            sessions_closed=report.sessions_closed,
            sessions_evicted=report.sessions_evicted,
            sets_saved=report.sets_saved,
            artifact_hit_rate=round(report.artifact_hit_rate, 6),
        )
        transcripts[p] = transcript(report)
        say(
            progress,
            f"workbench P={p}",
            pt,
            f"artifact hits {pt['artifact_hit_rate']:.0%}, shed {quota}, "
            f"evicted {pt['sessions_evicted']}",
        )
    slow = _with_slowpath(lambda: run(shards[-1]))
    return {
        "points": points,
        "oracles": {
            "transcripts_equal_across_shards": all(
                t == transcripts[shards[0]] for t in transcripts.values()
            ),
            "transcript_equal_under_slowpath": transcript(slow)
            == transcripts[shards[-1]],
        },
    }


@study("dashboard")
def dashboard(fixture, progress, shards=DASHBOARD_SHARDS) -> dict:
    """Dashboard workload study over a stamped two-generation store.

    Builds a stamped corpus, shards it at each count and appends a
    stamped feed as a second, pre-published generation, then replays
    one seeded dashboard workload (sliding-window polls mixed with
    search traffic) at every count.  Exact-transcript oracles:
    canonical answers must be byte-identical across shard counts,
    under the slowpath scheduler, and between fastpath/slowpath while
    the same feed is ingested *live* (with a stamped compaction
    mid-run); under the ``mp`` backend the whole point (latencies,
    makespan, counters) must match as well.
    """
    stamped = Fixture(
        fixture.tmp,
        _DASHBOARD_CORPUS_BYTES,
        facets=FacetSpec(
            n_sources=_DASHBOARD_SOURCES,
            span_s=_DASHBOARD_SPAN_S,
            seed=CORPUS_SEED,
        ),
    )
    batches = _feed(
        stamped,
        batch_docs=_DASHBOARD_FEED_DOCS,
        n_batches=_DASHBOARD_FEED_BATCHES,
        facet_sources=_DASHBOARD_SOURCES,
    )
    tokenizer = stamped.engine.tokenizer
    deltas = [
        build_delta(
            stamped.result,
            c.documents,
            tokenizer_config=tokenizer,
            facets=extract_facets(c),
        )
        for c, _arrival in batches
    ]
    stores = {}
    for p in shards:
        stores[p] = stamped.fresh_store(p)
        # second generation, pre-published: visible from session start
        # at every shard count
        append_generation(stores[p], deltas, published_s=0.0)
    scripts = generate_dashboard_workload(
        store_profile(stores[shards[-1]]),
        seed=WORKLOAD_SEED,
        **_DASHBOARD_KNOBS,
    )

    def facet_point(p, report):
        return point(
            report, "facets.", nshards=p, rejected=len(report.rejected)
        )

    points, answers = {}, {}
    for p in shards:
        report = serve(stores[p], scripts)
        points[str(p)] = pt = facet_point(p, report)
        answers[p] = _answers(report)
        say(
            progress,
            f"dashboard P={p}",
            pt,
            f"{pt['counters']['facets.windows']:.0f} windows, "
            f"{pt['counters']['facets.emerging_hits']:.0f} emerging hits",
        )
    p = shards[-1]
    slow = _with_slowpath(lambda: serve(stores[p], scripts))
    mp = serve(stores[p], scripts, backend="mp")
    # churn oracle: replay the feed *live* against a fresh copy of the
    # single-generation store (max_deltas=2 forces a stamped
    # compaction mid-session) under both scheduler mechanisms
    churn_p = shards[len(shards) // 2]
    plan_config = IngestConfig(
        compaction=CompactionPolicy(max_deltas=_DASHBOARD_FEED_BATCHES)
    )

    def churn_run():
        run_dir = stamped.scratch("dash-churn-")
        shutil.copytree(
            stamped.store(churn_p), run_dir, dirs_exist_ok=True
        )
        plan = IngestPlan(
            result=stamped.result,
            batches=list(batches),
            config=plan_config,
            tokenizer_config=tokenizer,
        )
        return serve(str(run_dir), scripts, ingest=plan)

    churn_fast = churn_run()
    churn_slow = _with_slowpath(churn_run)
    churn_pt = facet_point(churn_p, churn_fast)
    compactions = counter_totals(churn_fast.metrics).get(
        "ingest.compactions", 0.0
    )
    say(
        progress,
        f"dashboard churn P={churn_p}",
        churn_pt,
        f"{compactions:.0f} live compactions",
    )
    return {
        "points": points,
        "churn": {"point": churn_pt, "live_compactions": compactions},
        "oracles": {
            "answers_equal_across_shards": all(
                a == answers[shards[0]] for a in answers.values()
            ),
            "answers_equal_under_slowpath": _answers(slow) == answers[p],
            "equal_under_mp": _answers(mp) == answers[p]
            and facet_point(p, mp) == points[str(p)],
            "churn_answers_equal_under_slowpath": _answers(churn_fast)
            == _answers(churn_slow),
        },
    }


@study("pruning")
def pruning(
    fixture,
    progress,
    corpus_bytes=PRUNING_CORPUS_BYTES,
    batch_sizes=PRUNING_BATCH_SIZES,
) -> dict:
    """Term-search kernel + batching study on a term-search workload.

    Replays an all-search workload at each broker batch size and
    checks every answer against the single-node session's
    ``term_search`` over the same queries.  The virtual clock cannot
    see Python/numpy kernel costs, so each run also records one
    un-gated wall time under ``info``.
    """
    large = Fixture(fixture.tmp, corpus_bytes, engine=_PRUNING_ENGINE)
    store_dir = large.store(_PRUNING_SHARDS)
    scripts = generate_workload(
        store_profile(store_dir),
        n_clients=_PRUNING_CLIENTS,
        queries_per_client=_PRUNING_QUERIES,
        seed=WORKLOAD_SEED,
        mix={"search": 1.0},
        mean_think_s=0.0,
    )
    session = AnalysisSession(large.result, postings=large.postings)
    reference = {
        (s.client, seq): [
            (h.doc_id, h.score, h.cluster)
            for h in session.term_search(list(q.terms), k=q.k)
        ]
        for s in scripts
        for seq, q in enumerate(s.queries)
    }
    runs, answers = {}, {}
    for b in batch_sizes:
        label = f"blockmax-b{b}"
        config = BrokerConfig(
            batch_max_queries=b, max_inflight=_PRUNING_MAX_INFLIGHT
        )
        t0 = time.perf_counter()
        report = serve(store_dir, scripts, config=config)
        wall = time.perf_counter() - t0
        runs[label] = pt = point(
            report,
            "serve.",
            batch_max_queries=b,
            info={
                "wall_s": round(wall, 6),
                "wall_throughput_qps": round(report.served / wall, 3),
            },
        )
        answers[label] = {
            (r["client"], r["seq"]): [
                (h["doc"], h["score"], h["cluster"])
                for h in r["response"]["hits"]
            ]
            for r in report.responses
        }
        say(
            progress,
            f"pruning {label}",
            pt,
            f"wall {wall * 1e3:.1f} ms, "
            f"{pt['counters']['serve.shard.blocks_skipped']:.0f} blocks "
            "skipped, "
            f"{pt['counters']['serve.shard.bytes_scanned'] / 1e6:.2f} MB "
            "scanned",
        )
    return {
        "corpus_bytes": corpus_bytes,
        "n_docs": int(large.result.n_docs),
        "runs": runs,
        "oracles": {
            **{
                f"{label}_equals_reference": answers[label] == reference
                for label in runs
            },
            "some_run_skips_blocks": any(
                pt["counters"]["serve.shard.blocks_skipped"] > 0
                for pt in runs.values()
            ),
        },
    }


@study("ingest")
def ingest(
    fixture,
    progress,
    shards=INGEST_SHARDS,
    n_clients=INGEST_CLIENTS,
    queries_per_client=INGEST_QUERIES,
    n_batches=INGEST_BATCHES,
    batch_docs=INGEST_BATCH_DOCS,
) -> dict:
    """Live-ingest matrix plus the crash run.

    Each session gets a *fresh* store (ingest mutates the store
    directory) but replays the identical feed batches and workload
    scripts, so the statistics are comparable across P.
    """
    batches = _feed(fixture, batch_docs=batch_docs, n_batches=n_batches)
    ingest_config = IngestConfig(
        compaction=CompactionPolicy(max_deltas=_INGEST_MAX_DELTAS)
    )
    scripts = generate_workload(
        store_profile(fixture.store(max(shards))),
        n_clients=n_clients,
        queries_per_client=queries_per_client,
        seed=WORKLOAD_SEED,
    )

    def run(p, config, faults):
        plan = IngestPlan(
            result=fixture.result,
            batches=list(batches),
            config=ingest_config,
        )
        report = serve_live(
            fixture.fresh_store(p),
            scripts,
            plan,
            config=config,
            faults=faults,
        )
        outcome = report.ingest or {}
        # freshness: virtual seconds from a batch's arrival to its
        # generation's CURRENT flip
        lags = [
            e["published_s"] - e["arrival_s"]
            for e in outcome.get("events", ())
            if e["event"] == "publish"
        ]
        finished = float(outcome.get("finished_s", 0.0))
        docs = int(outcome.get("docs_ingested", 0))
        return report, point(
            report,
            ("serve.", "ingest."),
            nshards=p,
            rejected=len(report.rejected),
            docs_ingested=docs,
            publish_lag_mean_s=round(sum(lags) / len(lags), 9)
            if lags
            else 0.0,
            publish_lag_max_s=round(max(lags), 9) if lags else 0.0,
            ingest_docs_per_s=round(docs / finished, 6)
            if finished > 0
            else 0.0,
            generations_queried=sorted(int(g) for g in report.generations),
        )

    def note(pt):
        counters = pt["counters"]
        return (
            f"{counters['ingest.generations']:.0f} generations "
            f"(+{counters['ingest.compactions']:.0f} compactions), "
            f"publish lag {pt['publish_lag_mean_s'] * 1e3:.2f} ms"
        )

    doc = _matrix_and_crash(
        "ingest", shards, n_clients * queries_per_client, run, note, progress
    )
    doc["oracles"]["every_point_ingests_and_publishes"] = all(
        pt["docs_ingested"] > 0 and pt["counters"]["ingest.generations"] > 0
        for pt in doc["points"].values()
    )
    return doc


def _engine_point(result) -> dict:
    """Virtual seconds, per stage too, and counter totals of a run."""
    return {
        "virtual_seconds": float(result.timings.wall_time),
        "stages_virtual_seconds": {
            k: float(v) for k, v in result.timings.component_seconds.items()
        },
        "counters": counter_totals(result.metrics),
    }


def _backends(sweep, procs, progress) -> dict:
    """The sweep's (``sim``) points at ``procs`` and the same runs
    under the ``mp`` backend."""
    config = dataclasses.replace(sweep.config, backend="mp")
    doc: dict = {"sim": {}, "mp": {}}
    try:
        for p in procs:
            doc["sim"][str(p)] = _engine_point(sweep.results[p])
            t0 = time.perf_counter()
            result = ParallelTextEngine(
                p, machine=MachineSpec(), config=config
            ).run(sweep.workload.corpus)
            wall = time.perf_counter() - t0
            doc["mp"][str(p)] = {
                **_engine_point(result),
                "info": {"wall_s": round(wall, 6)},
            }
            if progress:
                progress(
                    f"{sweep.workload.dataset} {sweep.workload.label} "
                    f"[mp] P={p}: {wall:.3f}s real, "
                    f"{result.timings.wall_time:.2f}s virtual"
                )
    finally:
        leaked = reap_children()
        if leaked and progress:  # pragma: no cover - pathological
            progress(f"warning: unreaped child processes: {leaked}")
    return doc


@study("paper")
def paper(
    fixture,
    progress,
    downscale=PAPER_DOWNSCALE,
    procs=PAPER_PROCS,
    config=None,
    seed=PAPER_SEED,
    fig9_procs=PAPER_FIG9_PROCS,
    fig9_bytes=PAPER_FIG9_BYTES,
    mp_procs=PAPER_MP_PROCS,
) -> dict:
    """The paper's figures: records, sweep counters, shape oracles,
    and the sim == mp check on the smallest PubMed sweep."""
    t0 = time.perf_counter()
    sweeps = run_all_sweeps(
        downscale=downscale,
        procs=procs,
        config=config,
        seed=seed,
        progress=progress,
    )
    backends = _backends(
        sweeps[("pubmed", PUBMED_SIZES[0][0])], mp_procs, progress
    )
    figures = {
        "figure5": figure5(sweeps),
        "figure6": figure6(sweeps),
        "figure7": figure7(sweeps),
        "figure8": figure8(sweeps),
        "figure9": figure9(
            nprocs=fig9_procs, gen_bytes=fig9_bytes, config=config, seed=seed
        ),
        "fig9_ablation": fig9_ablation(),
    }
    if progress:
        for record in figures.values():
            progress(render(record) + "\n")
    return {
        "figures": figures,
        "sweeps": {
            f"{dataset} {label}": {
                "counters": {
                    str(p): counter_totals(result.metrics)
                    for p, result in sweep.results.items()
                }
            }
            for (dataset, label), sweep in sweeps.items()
        },
        "backends": backends,
        "oracles": {
            **shape_oracles(figures),
            # the backends run identical code against identical
            # virtual machines: any difference is a broken
            # bit-exactness contract
            "sim_equals_mp": not compare(backends["sim"], backends["mp"]),
        },
        "info": {"wall_s": round(time.perf_counter() - t0, 6)},
    }
