"""``ingest_churn``: the write path offline, then the same feed
ingested live beside a mixed query load."""

from __future__ import annotations

import dataclasses
import shutil

import numpy as np

from repro.facets import extract_facets
from repro.ingest import (
    CompactionPolicy,
    FeedConfig,
    FeedSource,
    IngestConfig,
    IngestPlan,
    append_generation,
    build_delta,
    compact_store,
    serve_live,
)
from repro.serve import canonical_response, load_manifest, query_store

from perfbench import gen
from perfbench.bench import Ctx, Outcome, blake
from perfbench.fixture import (
    N_SOURCES,
    SERVE_ENGINE,
    StoreFixture,
    build_store,
    response_failed,
)
from perfbench.wl_serving import session_failures, transcript_digest

N_BATCHES = 16
BATCH_DOCS = 200
COMPACT_EVERY = 4
#: batch arrivals spread over the live session's virtual makespan, so
#: queries land on every generation, not only the last
MEAN_INTERARRIVAL_S = 0.1
LIVE_CLIENTS = 8
LIVE_QUERIES_PER_CLIENT = 100
MEAN_THINK_S = 0.001
PROBE_QUERIES = 100
TOKENIZER = SERVE_ENGINE.tokenizer


@dataclasses.dataclass
class ChurnInputs:
    fx: StoreFixture
    batches: list
    scripts: list
    probe: list

    @property
    def docs_fed(self) -> int:
        return sum(len(c.documents) for c, _ in self.batches)


def make_inputs(ctx: Ctx) -> ChurnInputs:
    fx = build_store(ctx)
    n_batches = 4 if ctx.smoke else N_BATCHES
    batch_docs = 20 if ctx.smoke else BATCH_DOCS
    feed = FeedSource(
        FeedConfig(
            dataset="pubmed",
            batch_docs=batch_docs,
            n_batches=n_batches,
            seed=ctx.seed,
            themes=6,
            skip_docs=fx.n_docs,
            start_doc_id=int(fx.result.doc_ids[-1]) + 1,
            mean_interarrival_s=MEAN_INTERARRIVAL_S,
            facet_sources=N_SOURCES,
        )
    )
    batches = ctx.stage("ingest.feed", feed.batches)
    rng = np.random.default_rng((ctx.seed, 0x16))
    scripts = gen.client_scripts(
        rng,
        fx.profile,
        gen.MIXED_WEIGHTS,
        LIVE_CLIENTS,
        10 if ctx.smoke else LIVE_QUERIES_PER_CLIENT,
        hot_fraction=0.6,
        hot_pool=32,
        mean_think_s=MEAN_THINK_S,
    )
    # the probe also asks for documents that only the feed brings
    fed_ids = [d.doc_id for c, _ in batches for d in c.documents]
    grown = dataclasses.replace(
        fx.profile,
        doc_ids=np.concatenate([fx.profile.doc_ids, np.asarray(fed_ids)]),
    )
    probe = gen.queries(
        rng, grown, gen.MIXED_WEIGHTS, 10 if ctx.smoke else PROBE_QUERIES
    )
    return ChurnInputs(fx=fx, batches=batches, scripts=scripts, probe=probe)


def delta_of(inp: ChurnInputs, corpus):
    return build_delta(
        inp.fx.result,
        corpus.documents,
        tokenizer_config=TOKENIZER,
        facets=extract_facets(corpus),
    )


def write_offline(inp: ChurnInputs, store: str, batches, final_compact=True):
    """The offline write path: one published generation per batch, a
    compaction every :data:`COMPACT_EVERY` deltas.  With
    ``final_compact=False`` the last compaction is left to the caller,
    so the store can be probed with its deltas still live."""
    nulls = 0
    for i, (corpus, _arrival) in enumerate(batches):
        delta = delta_of(inp, corpus)
        nulls += delta.null_count
        append_generation(store, [delta])
        last = i + 1 == len(batches)
        if (i + 1) % COMPACT_EVERY == 0 and (final_compact or not last):
            compact_store(store)
    return nulls


def live_plan(inp: ChurnInputs, batches) -> IngestPlan:
    return IngestPlan(
        result=inp.fx.result,
        batches=list(batches),
        config=IngestConfig(
            compaction=CompactionPolicy(max_deltas=COMPACT_EVERY)
        ),
        tokenizer_config=TOKENIZER,
    )


def fresh_copy(ctx: Ctx, inp: ChurnInputs, name: str) -> str:
    path = ctx.scratch(name)
    shutil.rmtree(path, ignore_errors=True)
    shutil.copytree(inp.fx.store_dir, path)
    return path


def _warmup(ctx: Ctx, inp: ChurnInputs) -> None:
    """Two batches through both paths on throwaway copies."""
    head = inp.batches[:2]
    store = fresh_copy(ctx, inp, "warm")
    write_offline(inp, store, head)
    compact_store(store)
    store = fresh_copy(ctx, inp, "warm")
    short = [
        dataclasses.replace(s, queries=s.queries[:10], think_s=s.think_s[:10])
        for s in inp.scripts
    ]
    serve_live(store, short, live_plan(inp, head))
    shutil.rmtree(store)


def probe_answers(store: str, probe: list) -> list[bytes]:
    return [canonical_response(query_store(store, q)) for q in probe]


def run(ctx: Ctx) -> Outcome:
    out = Outcome()
    inp = make_inputs(ctx)
    ctx.stage("ingest.warmup", _warmup, ctx, inp)
    if ctx.traced:
        from perfbench.layers import attribute_ingest

        attribute_ingest(ctx, out, inp)
        return out
    base_docs = inp.fx.n_docs
    n_queries = sum(len(s.queries) for s in inp.scripts)
    digests = set()

    def rep(i: int) -> None:
        store = fresh_copy(ctx, inp, "offline")
        nulls, t = ctx.timed(
            "ingest.offline", write_offline, inp, store, inp.batches
        )
        out.add_rate("ref_ops_per_s", inp.docs_fed, t)
        out.check(
            load_manifest(store).n_docs == base_docs + inp.docs_fed
            and nulls == 0,
            f"rep {i}: offline store lost documents or signatures",
            count=inp.docs_fed,
        )
        store = fresh_copy(ctx, inp, "live")
        report, t = ctx.timed(
            "ingest.live_session",
            serve_live,
            store,
            inp.scripts,
            live_plan(inp, inp.batches),
        )
        out.add_rate("ops_per_s", report.served, t)
        out.attempted += n_queries
        out.failed += session_failures(report)
        out.check(
            report.ingest["docs_ingested"] == inp.docs_fed,
            f"rep {i}: live ingest dropped documents",
            count=inp.docs_fed,
        )
        digests.add(transcript_digest(report.responses))

    # a repetition is 3-4 s of writes and queries.  The count is fixed
    # by ``--seconds``, not by the clock: identical live sessions differ
    # by up to 30 % (page-cache writeback of the 24 MB compactions), so
    # the median needs three, and every extra repetition maps more
    # store copies into ``peak_rss_mb``
    for i in range(1 if ctx.smoke else max(3, int(ctx.seconds // 3.5))):
        rep(i)
    out.check(len(digests) == 1, "live transcript differs between reps")

    # the probe: the same answers from the store with its last deltas
    # still live (timed: the one-shot path over a multi-segment
    # generation), after compaction, and from the live-churned store
    store = fresh_copy(ctx, inp, "offline")
    write_offline(inp, store, inp.batches, final_compact=False)
    calls = [
        (lambda q=q: query_store(store, q)) for q in inp.probe + inp.probe
    ]
    results, timings = ctx.clock.measure_each(calls, chunk=20)
    for t in timings:
        out.add("oneshot_ms", t.norm_s * 1e3, t.raw_s * 1e3)
    out.attempted += len(results)
    out.failed += sum(response_failed(r) for r in results)
    with_deltas = [canonical_response(r) for r in results[: len(inp.probe)]]
    compact_store(store)
    compacted = probe_answers(store, inp.probe)
    churned = probe_answers(ctx.scratch("live"), inp.probe)
    out.check(
        with_deltas == compacted,
        "probe answers change under compaction",
        count=len(inp.probe),
    )
    out.check(
        with_deltas == churned,
        "live-churned store answers differ from the offline-published one",
        count=len(inp.probe),
    )
    out.digest = blake(with_deltas)
    return out
