"""The traced run: replay a workload's operations layer by layer.

Every call into a layer sits under a span recorded from this file;
per-layer metrics are read off those spans (and off the counters the
program's reports already carry).  Shard-kernel parameters are derived
the way the broker derives them, from public pieces only
(``ServeModel.term_row``, ``icf_weights``, ``pseudo_signature``,
``previous_window``); the workbench's refine/derive fan-outs would
need private broker helpers, so they are left out of
``query.kernel_busy_s`` on ``analyst_sessions`` and the output says
so.  Durations are scaled to reference host speed by the calibration
probes around each replay phase.
"""

from __future__ import annotations

import dataclasses
import os
import statistics

import numpy as np

from repro.analysis.session import pseudo_signature
from repro.facets import previous_window
from repro.index.termindex import (
    icf_weights,
    set_term_cooccurrence,
    set_term_tf,
)
from repro.ingest import (
    IngestJournal,
    append_generation,
    compact_store,
    serve_live,
)
from repro.runtime import counter_totals
from repro.serve import (
    BrokerConfig,
    RouterConfig,
    ShardStore,
    canonical_response,
    load_manifest,
    serve,
    serve_replicated,
)
from repro.serve.query import merge_desc
from repro.serve.store import Container, load_model
from repro.workbench import (
    diff_sets,
    intersect_sets,
    set_digest,
    union_sets,
)

from perfbench import gen
from perfbench.bench import Ctx, Outcome, percentile, traced_and_untraced
from perfbench.fixture import (
    NSHARDS,
    StoreFixture,
    reference_answer,
    setup_layers,
)
from perfbench.wl_engine import spinup
from perfbench.wl_serving import (
    account_session,
    session_failures,
    transcript_digest,
)

#: searches replayed un-pruned as well (the exhaustive kernel is slow)
EXHAUSTIVE_SAMPLE = 100


def _ms(seconds: list[float], pct: float, scale: float) -> float:
    return percentile(seconds, pct) * scale * 1e3 if seconds else 0.0


# ----------------------------------------------------------------------
# store container layer
# ----------------------------------------------------------------------
def open_shards(store_dir: str):
    """What a one-shot query pays before any kernel runs."""
    manifest = load_manifest(store_dir)
    model = load_model(store_dir)
    shards = [
        ShardStore(Container(os.path.join(store_dir, s.file)), model)
        for s in manifest.shards
    ]
    return manifest, model, shards


def store_layers(ctx: Ctx, fx: StoreFixture, layers: dict) -> tuple:
    opens = []
    for i in range(5):
        (manifest, model, shards), t = ctx.timed(
            "store.open", open_shards, fx.store_dir, op=f"open{i}"
        )
        opens.append(t.norm_s)
    layers["store.open_ms"] = statistics.median(opens) * 1e3
    nbytes = sum(
        os.path.getsize(os.path.join(root, f))
        for root, _dirs, files in os.walk(fx.store_dir)
        for f in files
    )
    layers["store.bytes_per_doc"] = nbytes / manifest.n_docs
    _none, t = ctx.timed(
        "store.block_decode",
        lambda: [s.blocks.to_term_postings() for s in shards],
    )
    layers["store.block_decode_ms"] = t.norm_s * 1e3
    _res, spin = ctx.clock.measure_each(
        [lambda: spinup(NSHARDS + 1)] * 50, chunk=50
    )
    layers["runtime.cluster_spinup_ms"] = (
        statistics.median(t.norm_s for t in spin) * 1e3
    )
    # a fresh set of shard stores for the kernel replay: the decode
    # above must not pre-warm their lazy block caches
    return open_shards(fx.store_dir)


# ----------------------------------------------------------------------
# shard kernels
# ----------------------------------------------------------------------
def replay_kernels(ctx: Ctx, manifest, model, shards, queries) -> None:
    """Run each query's shard-local half on every shard, one span per
    shard call, named ``query.<kernel>``."""
    tr = ctx.trace
    n_docs = manifest.n_docs
    icf = icf_weights(model.term_df, n_docs)
    n_sources = manifest.facets.n_sources
    searches = 0
    for qi, q in enumerate(queries):
        op = f"q{qi}"
        if q.kind in ("search", "query"):
            rows = [model.term_row[t] for t in q.terms if t in model.term_row]
            k = min(max(1, q.k), n_docs)
            if q.kind == "search":
                searches += 1
                for s in shards:
                    with tr.span("query.search", op=op):
                        s.op_search(rows, icf, k, pruned=True)
                if searches <= EXHAUSTIVE_SAMPLE:
                    for s in shards:
                        with tr.span("query.search_exhaustive", op=op):
                            s.op_search(rows, icf, k, pruned=False)
            else:
                unit = pseudo_signature(model.association, rows)
                for s in shards:
                    with tr.span("query.matvec", op=op):
                        s.op_matvec(unit, k)
        elif q.kind == "similar":
            k = min(max(1, q.k), n_docs - 1)
            unit, row = None, -1
            for s in shards:
                if s.doc_ids[0] <= q.doc_id <= s.doc_ids[-1]:
                    with tr.span("query.fetch_unit", op=op):
                        unit, row, _scanned = s.op_fetch_unit(q.doc_id)
            for s in shards:
                with tr.span("query.matvec", op=op):
                    s.op_matvec(unit, k, skip_row=row)
        elif q.kind == "cluster":
            for s in shards:
                with tr.span("query.cluster", op=op):
                    s.op_cluster(q.cluster, q.n_docs)
        elif q.kind == "region":
            for s in shards:
                with tr.span("query.region", op=op):
                    s.op_region(q.x, q.y, q.radius)
        elif q.kind == "facet_counts":
            for s in shards:
                with tr.span("query.facet_counts", op=op):
                    s.op_facet_counts(q.t0, q.t1, n_sources)
        else:
            windows = [(q.t0, q.t1)]
            if q.kind == "emerging":
                windows.insert(0, previous_window(q.t0, q.t1))
            for s in shards:
                for t0, t1 in windows:
                    with tr.span("query.window_tf", op=op):
                        s.op_window_tf(t0, t1, q.source)


_KERNELS = (
    "query.search",
    "query.matvec",
    "query.fetch_unit",
    "query.cluster",
    "query.region",
    "query.facet_counts",
    "query.window_tf",
)


def kernel_layers(ctx: Ctx, layers: dict, scale: float) -> float:
    """Kernel percentiles from the replay's spans; returns the summed
    kernel seconds (scaled)."""
    tr = ctx.trace
    search = tr.durations("query.search")
    layers["query.search_ms_p50"] = _ms(search, 50, scale)
    layers["query.search_ms_p95"] = _ms(search, 95, scale)
    layers["query.search_exhaustive_ms_p50"] = _ms(
        tr.durations("query.search_exhaustive"), 50, scale
    )
    for kernel in ("matvec", "cluster", "region", "facet_counts", "window_tf"):
        layers[f"query.{kernel}_ms_p50"] = _ms(
            tr.durations(f"query.{kernel}"), 50, scale
        )
    busy = sum(tr.total(k) for k in _KERNELS) * scale
    layers["query.kernel_busy_s"] = busy
    return busy


def broker_layers(report, layers: dict) -> None:
    """Exact counts and modelled latencies a broker session reports."""
    counters = counter_totals(report.metrics)
    layers["broker.cache_hit_rate"] = report.cache_hit_rate
    layers["runtime.p2p_messages"] = counters.get("comm.p2p.messages", 0.0)
    layers["runtime.p2p_bytes"] = counters.get("comm.p2p.bytes", 0.0)
    layers["broker.bytes_scanned"] = counters.get(
        "serve.shard.bytes_scanned", 0.0
    )
    layers["broker.blocks_skipped"] = counters.get(
        "serve.shard.blocks_skipped", 0.0
    )
    layers["facets.bytes_scanned"] = counters.get("facets.bytes_scanned", 0.0)
    layers["broker.virtual_p50_ms"] = report.latency_percentile(50) * 1e3
    layers["broker.virtual_p99_ms"] = report.latency_percentile(99) * 1e3
    layers["broker.virtual_makespan_s"] = report.makespan


# ----------------------------------------------------------------------
# search_cold / mixed_hot
# ----------------------------------------------------------------------
def attribute_serving(ctx: Ctx, out: Outcome, fx, shape, scripts, first) -> None:
    L = out.layers
    setup_layers(ctx, fx, L)
    report, wall, overhead = traced_and_untraced(
        ctx, "serve.session", lambda: serve(fx.store_dir, scripts)
    )
    L["broker.session_wall_s"] = wall
    L["trace.overhead_share"] = overhead
    broker_layers(report, L)
    n_queries = sum(len(s.queries) for s in scripts)
    account_session(out, report, n_queries, "traced session")

    manifest, model, shards = store_layers(ctx, fx, L)
    # every answer the session computed (cache misses), in order
    missed = [
        scripts[r["client"]].queries[r["seq"]]
        for r in first.responses
        if not r["cached"]
    ]
    _none, t = ctx.timed(
        "query.replay", replay_kernels, ctx, manifest, model, shards, missed
    )
    busy = kernel_layers(ctx, L, t.norm_s / t.raw_s)
    L["broker.overhead_share"] = 1.0 - busy / wall

    # the same classic-kind queries, uncached, sharded vs single node
    classic = []
    for s in scripts:
        kept = tuple(q for q in s.queries if q.kind in gen.CLASSIC_KINDS)
        classic.append(
            dataclasses.replace(s, queries=kept, think_s=(0.0,) * len(kept))
        )
    flat = [q for s in classic for q in s.queries]
    _rep, t_sharded = ctx.timed(
        "serve.session.uncached",
        serve,
        fx.store_dir,
        classic,
        config=BrokerConfig(cache_capacity=0),
    )
    _ans, t_ref = ctx.timed(
        "analysis.reference",
        lambda: [reference_answer(fx.reference, q) for q in flat],
    )
    L["analysis.ref_wall_s"] = t_ref.norm_s
    L["analysis.distribution_ratio"] = t_sharded.norm_s / t_ref.norm_s

    if shape.hot_pool:
        # the replicated tier, guarded on the mixed load only
        tier, t_tier = ctx.timed(
            "router.session",
            serve_replicated,
            fx.store_dir,
            scripts,
            RouterConfig(brokers=2, replicas=2),
        )
        L["router.session_wall_s"] = t_tier.norm_s
        L["router.overhead_ratio"] = t_tier.norm_s / wall
        want = {
            (r["client"], r["seq"]): canonical_response(r["response"])
            for r in first.responses
        }
        got = {
            (r["client"], r["seq"]): canonical_response(r["response"])
            for r in tier.responses
        }
        out.check(
            got == want and not tier.shed,
            "replicated tier answers differ from the single broker",
            count=n_queries,
        )


# ----------------------------------------------------------------------
# analyst_sessions
# ----------------------------------------------------------------------
def attribute_analyst(ctx: Ctx, out: Outcome, fx, scripts, first, session) -> None:
    L = out.layers
    setup_layers(ctx, fx, L)
    report, wall, overhead = traced_and_untraced(
        ctx, "workbench.session", session
    )
    L["workbench.session_wall_s"] = wall
    L["trace.overhead_share"] = overhead
    L["workbench.artifact_hit_rate"] = report.artifact_hit_rate
    L["workbench.rejects"] = len(report.rejected)
    L["workbench.virtual_p99_ms"] = report.latency_percentile(99) * 1e3
    counters = counter_totals(report.metrics)
    L["runtime.p2p_messages"] = counters.get("comm.p2p.messages", 0.0)
    L["runtime.p2p_bytes"] = counters.get("comm.p2p.bytes", 0.0)
    L["broker.bytes_scanned"] = counters.get("serve.shard.bytes_scanned", 0.0)
    L["broker.blocks_skipped"] = counters.get(
        "serve.shard.blocks_skipped", 0.0
    )
    account_session(
        out, report, sum(len(s.ops) for s in scripts), "traced session"
    )

    manifest, model, shards = store_layers(ctx, fx, L)
    # set-builder queries only: the kernels whose parameters public
    # code can derive (refine/derive fan-outs are left out, see above)
    builders = [
        op.query for s in scripts for op in s.ops if op.verb == "search"
    ]
    _none, t = ctx.timed(
        "query.replay", replay_kernels, ctx, manifest, model, shards, builders
    )
    scale = t.norm_s / t.raw_s
    kernel_layers(ctx, L, scale)
    out.notes.append(
        "query.kernel_busy_s covers set-builder searches only; refine and "
        "derive fan-outs need private broker helpers and are left out"
    )

    # result-set algebra and the int64 derive kernels on k=20 sets
    icf = icf_weights(model.term_df, manifest.n_docs)
    sets = []
    for q in builders[:40]:
        rows = [model.term_row[t] for t in q.terms]
        sets.append(
            tuple(
                merge_desc(
                    [s.op_search(rows, icf, 20)[0] for s in shards], 20
                )
            )
        )
    sets = [s for s in sets if s] or [()]
    pairs = list(zip(sets, sets[1:] + sets[:1]))

    def algebra() -> None:
        for a, b in pairs:
            with ctx.trace.span("workbench.algebra"):
                set_digest(union_sets(a, b))
                set_digest(intersect_sets(a, b))
                set_digest(diff_sets(a, b))

    _none, t = ctx.timed("workbench.algebra.batch", algebra)
    L["workbench.algebra_us"] = (
        statistics.median(ctx.trace.durations("workbench.algebra"))
        * (t.norm_s / t.raw_s)
        * 1e6
    )

    def derive() -> None:
        for members in sets:
            rows = np.array(sorted(c.row for c in members), dtype=np.int64)
            with ctx.trace.span("index.derive_kernel"):
                totals, _n = set_term_tf(fx.postings, rows)
                top = np.argsort(-totals, kind="stable")[:8].tolist()
                set_term_cooccurrence(fx.postings, rows, top)

    _none, t = ctx.timed("index.derive_kernel.batch", derive)
    L["index.derive_kernel_ms"] = (
        statistics.median(ctx.trace.durations("index.derive_kernel"))
        * (t.norm_s / t.raw_s)
        * 1e3
    )


# ----------------------------------------------------------------------
# ingest_churn
# ----------------------------------------------------------------------
def attribute_ingest(ctx: Ctx, out: Outcome, inp) -> None:
    from perfbench import wl_ingest as wl

    L = out.layers
    fx = inp.fx
    setup_layers(ctx, fx, L)
    store_layers(ctx, fx, L)
    tr = ctx.trace

    # the offline write path, one span per step
    store = wl.fresh_copy(ctx, inp, "offline")
    written = 0
    delta_bytes = 0
    nulls = 0

    def offline() -> None:
        nonlocal written, delta_bytes, nulls
        for i, (corpus, _arrival) in enumerate(inp.batches):
            with tr.span("ingest.build_delta", op=f"batch{i}"):
                delta = wl.delta_of(inp, corpus)
            nulls += delta.null_count
            with tr.span("ingest.publish", op=f"batch{i}"):
                manifest = append_generation(store, [delta])
            written += manifest.deltas[-1].nbytes
            delta_bytes += manifest.deltas[-1].nbytes
            if (i + 1) % wl.COMPACT_EVERY == 0:
                with tr.span("ingest.compact", op=f"batch{i}"):
                    manifest = compact_store(store)
                written += manifest.base_nbytes

    _none, t = ctx.timed("ingest.offline", offline)
    scale = t.norm_s / t.raw_s
    final = load_manifest(store)
    L["ingest.build_delta_docs_per_s"] = inp.docs_fed / (
        tr.total("ingest.build_delta") * scale
    )
    L["ingest.publish_ms"] = _ms(tr.durations("ingest.publish"), 50, scale)
    L["ingest.compact_s"] = tr.total("ingest.compact") * scale
    L["store.delta_bytes_per_doc"] = delta_bytes / inp.docs_fed
    L["store.write_amp"] = written / (final.base_nbytes + final.delta_nbytes)
    out.check(
        final.n_docs == fx.n_docs + inp.docs_fed and nulls == 0,
        "offline store lost documents or signatures",
        count=inp.docs_fed,
    )

    # the journal the CLI path feeds from
    journal = IngestJournal.create(ctx.scratch("journal"))

    def append_all() -> None:
        for i, (corpus, arrival) in enumerate(inp.batches):
            with tr.span("ingest.journal_append", op=f"batch{i}"):
                journal.append(corpus, arrival)

    _none, t = ctx.timed("ingest.journal_append.batch", append_all)
    L["ingest.journal_append_ms"] = _ms(
        tr.durations("ingest.journal_append"), 50, t.norm_s / t.raw_s
    )
    replayed, t = ctx.timed("ingest.journal_replay", journal.replay)
    L["ingest.journal_replay_s"] = t.norm_s
    out.check(
        sum(len(c.documents) for c, _ in replayed) == inp.docs_fed,
        "journal replay lost documents",
        count=inp.docs_fed,
    )

    # the live session
    def live():
        return serve_live(
            wl.fresh_copy(ctx, inp, "live"),
            inp.scripts,
            wl.live_plan(inp, inp.batches),
        )

    report, wall, overhead = traced_and_untraced(
        ctx, "ingest.live_session", live, reps=1
    )
    L["ingest.live_session_wall_s"] = wall
    L["broker.session_wall_s"] = wall
    L["trace.overhead_share"] = overhead
    broker_layers(report, L)
    counters = counter_totals(report.metrics)
    L["ingest.generations"] = counters.get("ingest.generations", 0.0)
    L["ingest.compactions"] = counters.get("ingest.compactions", 0.0)
    L["ingest.null_signatures"] = counters.get("ingest.null_signatures", 0.0)
    out.attempted += sum(len(s.queries) for s in inp.scripts)
    out.failed += session_failures(report)
    out.check(
        report.ingest["docs_ingested"] == inp.docs_fed,
        "live ingest dropped documents",
        count=inp.docs_fed,
    )
    out.digest = transcript_digest(report.responses)
