"""The stamped 4-shard store every serving workload starts from, and
the single-node reference (``AnalysisSession``) its answers are
checked against."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.session import AnalysisSession
from repro.datasets.pubmed import generate_pubmed
from repro.engine import EngineConfig, SerialTextEngine
from repro.facets import FacetSpec, extract_facets
from repro.index.termindex import build_term_postings
from repro.serve import Query, build_shards

from perfbench.bench import Ctx, Outcome
from perfbench.gen import Profile
from perfbench.wl_engine import serial_stage_layers

#: serving-store engine sizing, pinned by the workload definition
SERVE_ENGINE = EngineConfig(n_major_terms=300, n_clusters=8, chunk_docs=64)
STORE_BYTES = 24_000_000
SMOKE_BYTES = 1_000_000
NSHARDS = 4
N_SOURCES = 4
SPAN_S = 600.0


@dataclass
class StoreFixture:
    corpus: object
    result: object
    postings: object
    store_dir: str
    profile: Profile
    reference: AnalysisSession

    @property
    def n_docs(self) -> int:
        return len(self.corpus.documents)


def build_store(ctx: Ctx) -> StoreFixture:
    """Corpus -> serial engine -> postings -> 4 stamped shards, each a
    timed set-up stage."""
    nbytes = SMOKE_BYTES if ctx.smoke else STORE_BYTES
    spec = FacetSpec(n_sources=N_SOURCES, span_s=SPAN_S, seed=ctx.seed)
    corpus = ctx.stage(
        "datasets.generate",
        generate_pubmed,
        nbytes,
        seed=ctx.seed,
        n_themes=6,
        facets=spec,
    )
    result = ctx.stage(
        "engine.serial", SerialTextEngine(SERVE_ENGINE).run, corpus
    )
    postings = ctx.stage(
        "index.postings_build",
        build_term_postings,
        corpus,
        result,
        SERVE_ENGINE.tokenizer,
    )
    store_dir = ctx.scratch("store")
    manifest = ctx.stage(
        "store.build",
        build_shards,
        result,
        store_dir,
        NSHARDS,
        postings=postings,
        facets=extract_facets(corpus),
    )
    profile = Profile(
        terms=tuple(result.major_term_strings),
        doc_ids=np.asarray(result.doc_ids),
        n_clusters=int(result.centroids.shape[0]),
        bbox=tuple(manifest.bbox),
        stamp_lo=float(manifest.facets.stamp_lo),
        stamp_hi=float(manifest.facets.stamp_hi),
        n_sources=N_SOURCES,
    )
    return StoreFixture(
        corpus=corpus,
        result=result,
        postings=postings,
        store_dir=store_dir,
        profile=profile,
        reference=AnalysisSession(result, postings),
    )


def setup_layers(ctx: Ctx, fx: StoreFixture, layers: dict) -> None:
    """Per-layer view of set-up: stage seconds plus the serial engine's
    own per-stage seconds from the run that built the model."""
    for stage, metric in (
        ("datasets.generate", "datasets.generate_s"),
        ("index.postings_build", "index.postings_build_s"),
        ("store.build", "store.build_s"),
        ("ingest.feed", "ingest.feed_s"),
    ):
        if stage in ctx.setup:
            layers[metric] = ctx.setup[stage].norm_s
    serial_stage_layers(fx.result, ctx.setup["engine.serial"], layers)


# ----------------------------------------------------------------------
# single-node reference answers
# ----------------------------------------------------------------------
def _hits(hits) -> list:
    return [(h.doc_id, h.score, h.cluster) for h in hits]


def reference_answer(ref: AnalysisSession, q: Query):
    """What the unsharded session answers, in a comparable shape."""
    if q.kind == "search":
        return _hits(ref.term_search(list(q.terms), k=q.k))
    if q.kind == "query":
        return _hits(ref.query(list(q.terms), k=q.k))
    if q.kind == "similar":
        return _hits(ref.similar_documents(q.doc_id, k=q.k))
    if q.kind == "cluster":
        s = ref.cluster_summary(q.cluster, q.n_terms, q.n_docs)
        return (s.size, s.top_terms, s.representative_docs, s.centroid_norm)
    if q.kind == "region":
        return ref.region_terms(q.x, q.y, q.radius, q.n_terms)
    raise ValueError(f"no single-node reference for {q.kind!r}")


def served_answer(q: Query, resp: dict):
    """The broker's response for ``q`` in the same shape (doc ids and
    scores, bit for bit)."""
    if q.kind in ("search", "query", "similar"):
        return [(h["doc"], h["score"], h["cluster"]) for h in resp["hits"]]
    if q.kind == "cluster":
        return (
            resp["size"],
            resp["top_terms"],
            resp["representative_docs"],
            resp["centroid_norm"],
        )
    return resp["terms"]


def response_failed(resp: dict) -> bool:
    """A partial, refused or errored answer is a failed operation."""
    return bool(resp.get("partial")) or "error" in resp


def time_reference(
    ctx: Ctx,
    out: Outcome,
    fx: StoreFixture,
    queries: list[Query],
    budget_s: float,
) -> list:
    """Answer ``queries`` on the single-node reference, repeatedly for
    ``budget_s``: the oracle answers and ``ref_ops_per_s``."""
    answers: list = []

    def one_pass(i: int) -> None:
        res, t = ctx.timed(
            "analysis.reference",
            lambda: [reference_answer(fx.reference, q) for q in queries],
        )
        answers[:] = res
        out.add_rate("ref_ops_per_s", len(queries), t)

    ctx.repeat(budget_s, 5, one_pass)
    return answers
