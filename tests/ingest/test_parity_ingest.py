"""The subsystem's acceptance criterion: churn queries are bit-equal
to the equivalent static store at each generation.

For every response a live-ingest session produced, rebuilding a fresh
static store over the base corpus plus the batches that generation had
absorbed and asking the same query must return byte-identical
canonical JSON -- at every shard count.  Compaction must likewise be
invisible: a compacted store's shard containers hold exactly the
arrays a fresh ``build_shards`` over the grown collection writes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.termindex import build_term_postings
from repro.ingest.compact import (
    CompactionPolicy,
    compact_store,
)
from repro.ingest.delta import (
    append_generation,
    build_delta,
    extend_result,
)
from repro.ingest.live import IngestConfig, IngestPlan, serve_live
from repro.serve.broker import BrokerConfig, query_store
from repro.serve.query import canonical_response
from repro.serve.store import (
    Container,
    build_shards,
    load_manifest,
    load_manifest_generation,
)
from repro.serve.workload import generate_workload, store_profile
from repro.text.documents import Corpus
from tests.ingest.conftest import ENGINE_CONFIG

LAYOUTS = (1, 2, 4)


def _static_equivalent(corpus, result, batches, n_batches, out, p):
    """Fresh static store over base + the first ``n_batches`` batches.

    Its postings are one inversion of the grown collection, independent
    of the per-batch delta postings the ingest path concatenates.
    """
    corpora = [c for c, _ in batches[:n_batches]]
    grown = extend_result(
        result, corpora, tokenizer_config=ENGINE_CONFIG.tokenizer
    )
    grown_corpus = Corpus(
        name="grown",
        documents=corpus.documents
        + [d for c in corpora for d in c.documents],
    )
    grown_postings = build_term_postings(
        grown_corpus, grown, ENGINE_CONFIG.tokenizer
    )
    build_shards(grown, out, p, postings=grown_postings)
    return out


@pytest.mark.parametrize("nshards", LAYOUTS)
def test_churn_parity_per_generation(
    nshards, corpus, result, make_store, feed_batches, tmp_path
):
    store = make_store(nshards)
    scripts = generate_workload(
        store_profile(store), n_clients=2, queries_per_client=10, seed=7
    )
    plan = IngestPlan(
        result=result,
        batches=list(feed_batches),
        config=IngestConfig(
            compaction=CompactionPolicy(max_deltas=2)
        ),
        tokenizer_config=ENGINE_CONFIG.tokenizer,
    )
    report = serve_live(
        store, scripts, plan, config=BrokerConfig(max_inflight=64)
    )
    assert report.served == 20 and not report.rejected
    gens = {r["generation"] for r in report.responses}
    assert len(gens) > 1  # the session must straddle a swap

    statics = {}
    for g in sorted(gens):
        n_batches = load_manifest_generation(store, g).ingested_batches
        statics[g] = _static_equivalent(
            corpus,
            result,
            feed_batches,
            n_batches,
            tmp_path / f"static-g{g}",
            nshards,
        )
    for r in report.responses:
        query = scripts[r["client"]].queries[r["seq"]]
        expect = query_store(statics[r["generation"]], query)
        assert canonical_response(r["response"]) == canonical_response(
            expect
        )


@pytest.mark.parametrize("nshards", (1, 2))
def test_compaction_is_bit_invisible(
    nshards, corpus, result, make_store, feed_batches, tmp_path
):
    """Compacted shard containers == a fresh build's, array for array."""
    store = make_store(nshards)
    for batch, _ in feed_batches:
        delta = build_delta(
            result,
            batch.documents,
            tokenizer_config=ENGINE_CONFIG.tokenizer,
        )
        append_generation(store, [delta])
    manifest = compact_store(store)
    assert not manifest.deltas

    fresh = _static_equivalent(
        corpus,
        result,
        feed_batches,
        len(feed_batches),
        tmp_path / "fresh",
        nshards,
    )
    fresh_manifest = load_manifest(fresh)
    assert fresh_manifest.n_docs == manifest.n_docs
    for mine, theirs in zip(manifest.shards, fresh_manifest.shards):
        assert (mine.row_lo, mine.row_hi) == (theirs.row_lo, theirs.row_hi)
        a = Container(store / mine.file)
        b = Container(fresh / theirs.file)
        assert a.section_names == b.section_names
        for name in a.section_names:
            assert np.array_equal(a.load(name), b.load(name)), name


@settings(max_examples=8, deadline=None)
@given(
    nshards=st.sampled_from((1, 2, 3)),
    cuts=st.lists(
        st.integers(min_value=1, max_value=17),
        max_size=3,
        unique=True,
    ),
)
def test_any_batching_compacts_to_fresh_build(
    nshards, cuts, corpus, result, postings, feed_batches, tmp_path_factory
):
    """However the same docs are batched, compaction lands on the
    identical store as one fresh build over the concatenation."""
    docs = [d for c, _ in feed_batches for d in c.documents]
    bounds = [0] + sorted(cuts) + [len(docs)]
    batches = [
        (Corpus(name=f"b{i}", documents=docs[lo:hi]), float(i))
        for i, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
        if hi > lo
    ]
    tmp = tmp_path_factory.mktemp("hyp")
    store = tmp / "store"
    build_shards(result, store, nshards, postings=postings)
    for batch, _ in batches:
        delta = build_delta(
            result,
            batch.documents,
            tokenizer_config=ENGINE_CONFIG.tokenizer,
        )
        append_generation(store, [delta])
    manifest = compact_store(store)

    fresh = _static_equivalent(
        corpus, result, batches, len(batches), tmp / "fresh", nshards
    )
    fresh_manifest = load_manifest(fresh)
    assert fresh_manifest.n_docs == manifest.n_docs
    for mine, theirs in zip(manifest.shards, fresh_manifest.shards):
        a = Container(store / mine.file)
        b = Container(fresh / theirs.file)
        for name in a.section_names:
            assert np.array_equal(a.load(name), b.load(name)), name
