"""Shared fixtures for the faceted-analytics tests.

One stamped engine run (serial reference engine, deterministic) is
shared module-wide; stamped stores at several shard counts are built
from it on demand.
"""

import pytest

from repro.datasets.pubmed import generate_pubmed
from repro.engine.config import EngineConfig
from repro.engine.serial import SerialTextEngine
from repro.facets import FacetSpec, extract_facets
from repro.index.termindex import build_term_postings
from repro.serve.store import build_shards

ENGINE_CONFIG = EngineConfig(n_major_terms=200, n_clusters=5, chunk_docs=8)

N_SOURCES = 3
SPAN_S = 600.0


@pytest.fixture(scope="session")
def stamped_corpus():
    return generate_pubmed(
        60_000,
        seed=4,
        n_themes=4,
        facets=FacetSpec(n_sources=N_SOURCES, span_s=SPAN_S, seed=4),
    )


@pytest.fixture(scope="session")
def result(stamped_corpus):
    return SerialTextEngine(ENGINE_CONFIG).run(stamped_corpus)


@pytest.fixture(scope="session")
def postings(stamped_corpus, result):
    return build_term_postings(
        stamped_corpus, result, ENGINE_CONFIG.tokenizer
    )


@pytest.fixture(scope="session")
def facets(stamped_corpus):
    return extract_facets(stamped_corpus)


@pytest.fixture(scope="session")
def stamped_stores(result, postings, facets, tmp_path_factory):
    """Stamped store directories keyed by shard count."""
    base = tmp_path_factory.mktemp("stamped-stores")
    built = {}
    for p in (1, 2, 4):
        out = base / f"store-{p}"
        build_shards(result, out, p, postings=postings, facets=facets)
        built[p] = out
    return built


@pytest.fixture(scope="session")
def plain_store(result, postings, tmp_path_factory):
    """An unstamped store (facet queries must be turned away)."""
    out = tmp_path_factory.mktemp("plain-store") / "store"
    build_shards(result, out, 2, postings=postings)
    return out


@pytest.fixture(scope="session")
def postingless_store(result, facets, tmp_path_factory):
    """A stamped store built without postings: facet counts answer,
    the term-window kinds must name the missing postings."""
    out = tmp_path_factory.mktemp("postingless-store") / "store"
    build_shards(result, out, 2, facets=facets)
    return out
