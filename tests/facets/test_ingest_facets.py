"""Facet sections through the delta builder and the compactor.

The same stamped rows must produce byte-identical facet sections no
matter which writer persisted them: a fresh ``build_shards``, an
``append_generation`` publish, or a ``compact_store`` rewrite.
"""

import json

import numpy as np
import pytest

import repro.serve.store as store_mod
from repro.facets import FacetData, extract_facets, themeview_slices
from repro.index.termindex import concat_postings
from repro.ingest.delta import extend_result
from repro.ingest.compact import compact_store
from repro.ingest.delta import append_generation, build_delta
from repro.ingest.feed import FeedConfig, FeedSource
from repro.serve.broker import serve
from repro.serve.query import Query, canonical_response
from repro.serve.store import (
    Container,
    build_shards,
    load_manifest,
    load_model,
)
from repro.serve.workload import (
    ClientScript,
    generate_dashboard_workload,
    generate_workload,
    store_profile,
)
from repro.workbench import generate_analyst_workload, serve_workbench

from .conftest import ENGINE_CONFIG, N_SOURCES

FACET_SECTIONS = (
    "facet_stamp_s",
    "facet_source",
    "facet_block_lo",
    "facet_block_hi",
)


@pytest.fixture(scope="module")
def feed_batches(result):
    cfg = FeedConfig(
        batch_docs=6,
        n_batches=2,
        seed=4,
        themes=4,
        skip_docs=int(result.doc_ids.size),
        start_doc_id=int(result.doc_ids[-1]) + 1,
        facet_sources=N_SOURCES,
    )
    return FeedSource(cfg).batches()


@pytest.fixture(scope="module")
def grown_store(result, postings, facets, feed_batches, tmp_path_factory):
    """A stamped store with one appended generation."""
    store = tmp_path_factory.mktemp("grown") / "store"
    build_shards(result, store, 2, postings=postings, facets=facets)
    deltas = [
        build_delta(
            result,
            corpus.documents,
            tokenizer_config=ENGINE_CONFIG.tokenizer,
            facets=extract_facets(corpus),
        )
        for corpus, _arrival in feed_batches
    ]
    append_generation(store, deltas, published_s=0.0)
    return store


@pytest.fixture(scope="module")
def two_gen_store(result, postings, facets, feed_batches, tmp_path_factory):
    """A stamped store with two published generations, one delta each."""
    store = tmp_path_factory.mktemp("two-gen") / "store"
    build_shards(result, store, 2, postings=postings, facets=facets)
    for corpus, _arrival in feed_batches:
        delta = build_delta(
            result,
            corpus.documents,
            tokenizer_config=ENGINE_CONFIG.tokenizer,
            facets=extract_facets(corpus),
        )
        append_generation(store, [delta], published_s=0.0)
    return store


def test_delta_segments_carry_facet_sections(grown_store, feed_batches):
    manifest = load_manifest(grown_store)
    assert manifest.facets is not None
    assert len(manifest.deltas) == 2
    for (corpus, _arrival), seg in zip(feed_batches, manifest.deltas):
        cont = Container(str(grown_store / seg.file))
        fac = extract_facets(corpus)
        assert np.array_equal(
            np.asarray(cont.load("facet_stamp_s")), fac.stamp_s
        )
        assert np.array_equal(
            np.asarray(cont.load("facet_source")), fac.source
        )


def test_manifest_stamp_bounds_extend_with_deltas(
    grown_store, facets, feed_batches
):
    manifest = load_manifest(grown_store)
    stamps = [np.asarray(facets.stamp_s)] + [
        np.asarray(extract_facets(c).stamp_s) for c, _ in feed_batches
    ]
    allstamps = np.concatenate(stamps)
    assert manifest.facets.stamp_lo == float(allstamps.min())
    assert manifest.facets.stamp_hi == float(allstamps.max())


def test_unstamped_batch_rejected_on_stamped_store(
    grown_store, result, feed_batches
):
    corpus, _ = feed_batches[0]
    delta = build_delta(
        result,
        corpus.documents,
        tokenizer_config=ENGINE_CONFIG.tokenizer,
    )
    with pytest.raises(ValueError, match="unstamped"):
        append_generation(grown_store, [delta])


def test_stamped_batch_rejected_on_plain_store(
    plain_store, result, feed_batches
):
    corpus, _ = feed_batches[0]
    delta = build_delta(
        result,
        corpus.documents,
        tokenizer_config=ENGINE_CONFIG.tokenizer,
        facets=extract_facets(corpus),
    )
    with pytest.raises(ValueError, match="not stamped"):
        append_generation(plain_store, [delta])


def test_source_count_mismatch_rejected(
    grown_store, result, feed_batches
):
    corpus, _ = feed_batches[0]
    fac = extract_facets(corpus)
    delta = build_delta(
        result,
        corpus.documents,
        tokenizer_config=ENGINE_CONFIG.tokenizer,
        facets=FacetData(
            stamp_s=fac.stamp_s,
            source=fac.source,
            n_sources=fac.n_sources + 2,
            source_names=fac.source_names
            + ("src-xx", "src-yy"),
        ),
    )
    with pytest.raises(ValueError, match="sources"):
        append_generation(grown_store, [delta])


def test_compaction_matches_fresh_stamped_build(
    result, postings, facets, feed_batches, tmp_path
):
    store = tmp_path / "store"
    build_shards(result, store, 2, postings=postings, facets=facets)
    deltas = [
        build_delta(
            result,
            corpus.documents,
            tokenizer_config=ENGINE_CONFIG.tokenizer,
            facets=extract_facets(corpus),
        )
        for corpus, _arrival in feed_batches
    ]
    append_generation(store, deltas, published_s=0.0)
    compacted = compact_store(store)
    assert compacted.facets is not None
    assert not compacted.deltas

    # fresh reference build over the same merged rows
    batch_corpora = [c for c, _arrival in feed_batches]
    merged_result = extend_result(
        result,
        batch_corpora,
        tokenizer_config=ENGINE_CONFIG.tokenizer,
    )
    merged_postings = concat_postings(
        [postings] + [d.postings for d in deltas]
    )
    stamp_parts = [np.asarray(facets.stamp_s)] + [
        np.asarray(extract_facets(c).stamp_s) for c in batch_corpora
    ]
    source_parts = [np.asarray(facets.source)] + [
        np.asarray(extract_facets(c).source) for c in batch_corpora
    ]
    fresh_dir = tmp_path / "fresh"
    build_shards(
        merged_result,
        fresh_dir,
        compacted.nshards,
        postings=merged_postings,
        facets=FacetData(
            stamp_s=np.concatenate(stamp_parts),
            source=np.concatenate(source_parts),
            n_sources=N_SOURCES,
            source_names=facets.source_names,
        ),
    )
    fresh = load_manifest(fresh_dir)
    assert fresh.facets.stamp_lo == compacted.facets.stamp_lo
    assert fresh.facets.stamp_hi == compacted.facets.stamp_hi
    for cs, fs in zip(compacted.shards, fresh.shards):
        cc = Container(str(store / cs.file))
        fc = Container(str(fresh_dir / fs.file))
        for name in FACET_SECTIONS:
            assert np.array_equal(
                np.asarray(cc.load(name)), np.asarray(fc.load(name))
            ), name


def test_window_answers_unchanged_by_compaction(
    result, postings, facets, feed_batches, tmp_path
):
    store = tmp_path / "store"
    build_shards(result, store, 2, postings=postings, facets=facets)
    deltas = [
        build_delta(
            result,
            corpus.documents,
            tokenizer_config=ENGINE_CONFIG.tokenizer,
            facets=extract_facets(corpus),
        )
        for corpus, _arrival in feed_batches
    ]
    append_generation(store, deltas, published_s=0.0)
    scripts = [
        ClientScript(
            client=0,
            queries=(
                Query(kind="facet_counts", t0=0.0, t1=700.0),
                Query(kind="window_terms", t0=50.0, t1=450.0, k=10),
                Query(kind="emerging", t0=300.0, t1=600.0, k=10),
            ),
            think_s=(0.0, 0.0, 0.0),
        )
    ]
    before = serve(store, scripts)
    compact_store(store)
    after = serve(store, scripts)
    key = lambda rep: {
        (r["client"], r["seq"]): canonical_response(r["response"])
        for r in rep.responses
    }
    assert key(before) == key(after)


def test_serve_sim_matches_mp_on_two_generations(two_gen_store, feed_batches):
    """All eight kinds answer alike on both backends, every rank
    sharing the one model the session opened."""
    model = load_model(two_gen_store)
    manifest = model.manifest
    assert manifest.generation == 2 and len(manifest.deltas) == 2
    x0, y0, x1, y1 = manifest.bbox
    lo, hi = manifest.facets.stamp_lo, manifest.facets.stamp_hi
    mid = (lo + hi) / 2
    terms = tuple(model.terms[:2])
    queries = (
        Query(kind="search", terms=terms, k=10),
        Query(kind="query", terms=terms, k=10),
        Query(kind="similar", doc_id=feed_batches[1][0].documents[0].doc_id),
        Query(kind="cluster", cluster=0),
        Query(
            kind="region",
            x=(x0 + x1) / 2,
            y=(y0 + y1) / 2,
            radius=0.3 * max(x1 - x0, y1 - y0),
        ),
        Query(kind="facet_counts", t0=lo, t1=hi + 1.0),
        Query(kind="window_terms", t0=lo, t1=mid),
        Query(kind="emerging", t0=mid, t1=hi + 1.0),
    )
    scripts = [
        ClientScript(client=c, queries=queries, think_s=(0.0,) * 8)
        for c in range(2)
    ]
    sim = serve(two_gen_store, scripts)
    mp = serve(two_gen_store, scripts, backend="mp")
    assert sim.served == 16
    assert {r["generation"] for r in sim.responses} == {2}
    assert not any(r["response"].get("error") for r in sim.responses)
    assert _whole(sim) == _whole(mp)


def _whole(report):
    """Everything a session reports, metrics snapshot included."""
    return (
        [canonical_response(r) for r in report.responses],
        report.latencies,
        report.makespan,
        report.generations,
        report.rejected,
        json.dumps(report.metrics, sort_keys=True),
    )


@pytest.fixture(scope="module")
def gen_stores(result, postings, facets, feed_batches, tmp_path_factory):
    """Stamped stores with two published generations, by shard count."""
    built = {}
    for p in (1, 4):
        store = tmp_path_factory.mktemp(f"gens-{p}") / "store"
        build_shards(result, store, p, postings=postings, facets=facets)
        for corpus, _arrival in feed_batches:
            delta = build_delta(
                result,
                corpus.documents,
                tokenizer_config=ENGINE_CONFIG.tokenizer,
                facets=extract_facets(corpus),
            )
            append_generation(store, [delta], published_s=0.0)
        built[p] = store
    return built


SESSIONS = {
    "default": lambda store, backend: serve(
        store,
        generate_workload(
            store_profile(store), n_clients=3, queries_per_client=6, seed=5
        ),
        backend=backend,
    ),
    "dashboard": lambda store, backend: serve(
        store,
        generate_dashboard_workload(
            store_profile(store), n_clients=4, polls_per_client=4, seed=5
        ),
        backend=backend,
    ),
    "analyst": lambda store, backend: serve_workbench(
        store,
        generate_analyst_workload(
            store_profile(store),
            sessions_per_tenant=1,
            ops_per_session=5,
            seed=3,
        ),
        backend=backend,
    ),
}


@pytest.mark.parametrize("session", sorted(SESSIONS))
@pytest.mark.parametrize("nshards", [1, 4])
@pytest.mark.parametrize("kind", ["static", "two_generations"])
def test_sessions_sim_match_mp(
    stamped_stores, gen_stores, kind, nshards, session
):
    """Single-copy serving is one program on both backends: responses,
    latencies, makespan, generations and the metrics snapshot agree."""
    store = (stamped_stores if kind == "static" else gen_stores)[nshards]
    run = SESSIONS[session]
    sim = run(store, "sim")
    assert sim.served > 0
    assert _whole(sim) == _whole(run(store, "mp"))


def test_one_manifest_read_per_call(two_gen_store, monkeypatch):
    """A publish between two reads could mix generations: each call
    reads the current manifest exactly once."""
    reads = []
    load = store_mod.load_manifest_generation

    def counting(store_dir, generation):
        reads.append(generation)
        return load(store_dir, generation)

    monkeypatch.setattr(store_mod, "load_manifest_generation", counting)
    themeview_slices(two_gen_store, n_slices=2, grid=16)
    assert reads == [2]
    store_profile(two_gen_store)
    assert reads == [2, 2]
