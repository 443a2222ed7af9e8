"""Shared fixtures for the serving-layer tests.

One small engine run (serial reference engine, deterministic) is
shared module-wide; stores at several shard counts are built from it
on demand.
"""

import json

import pytest

from repro.datasets.pubmed import generate_pubmed
from repro.engine.config import EngineConfig
from repro.engine.serial import SerialTextEngine
from repro.index.termindex import build_term_postings
from repro.ingest.delta import append_generation, build_delta
from repro.ingest.feed import FeedConfig, FeedSource
from repro.runtime.comm import Communicator
from repro.serve.broker import TAG_REQ, TAG_RESP
from repro.serve.store import build_shards

ENGINE_CONFIG = EngineConfig(n_major_terms=200, n_clusters=5, chunk_docs=8)


@pytest.fixture(scope="session")
def corpus():
    return generate_pubmed(60_000, seed=4, n_themes=4)


@pytest.fixture(scope="session")
def result(corpus):
    return SerialTextEngine(ENGINE_CONFIG).run(corpus)


@pytest.fixture(scope="session")
def postings(corpus, result):
    return build_term_postings(corpus, result, ENGINE_CONFIG.tokenizer)


@pytest.fixture(scope="session")
def stores(result, postings, tmp_path_factory):
    """Store directories keyed by shard count."""
    base = tmp_path_factory.mktemp("stores")
    built = {}
    for p in (1, 2, 4, 8):
        out = base / f"store-{p}"
        build_shards(result, out, p, postings=postings)
        built[p] = out
    return built


@pytest.fixture(scope="session")
def replicated_store(result, postings, tmp_path_factory):
    """A 4-shard store built with ``replication=2`` in its manifest."""
    out = tmp_path_factory.mktemp("rstore") / "store"
    build_shards(result, out, 4, postings=postings, replication=2)
    return out


@pytest.fixture(scope="session")
def delta_store(corpus, result, postings, tmp_path_factory):
    """A 4-shard store with two published delta generations; the feed
    continues the corpus's own seeded stream."""
    out = tmp_path_factory.mktemp("dstore") / "store"
    build_shards(result, out, 4, postings=postings)
    feed = FeedSource(
        FeedConfig(
            dataset="pubmed",
            batch_docs=6,
            n_batches=2,
            seed=4,
            themes=4,
            skip_docs=len(corpus.documents),
            start_doc_id=int(result.doc_ids[-1]) + 1,
        )
    )
    for batch, _arrival in feed.batches():
        delta = build_delta(
            result, batch.documents, tokenizer_config=ENGINE_CONFIG.tokenizer
        )
        append_generation(out, [delta])
    return out


@pytest.fixture
def sent(monkeypatch):
    """Every non-stop ``TAG_REQ`` request and every ``TAG_RESP`` reply
    sent while the test runs, by tag.

    Recorded at ``_deliver``, the hook every message crosses: a
    thread-less service rank sends its replies without going through
    ``Communicator.send``."""
    out = {TAG_REQ: [], TAG_RESP: []}
    deliver = Communicator._deliver

    def recording(self, dest, tag, msg, now):
        if tag in out and msg.obj[0] != "stop":
            out[tag].append(msg.obj)
        return deliver(self, dest, tag, msg, now)

    monkeypatch.setattr(Communicator, "_deliver", recording)
    return out


def patch_section(path, name, **fields):
    """Rewrite one section-table entry of a container in place.

    The header keeps its length (re-encoded compactly, then padded
    with JSON whitespace), so only the entry itself is corrupt.
    """
    data = bytearray(path.read_bytes())
    hdr_len = int.from_bytes(data[16:24], "little")
    header = json.loads(data[24 : 24 + hdr_len])
    for sec in header["sections"]:
        if sec["name"] == name:
            sec.update(fields)
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    assert len(raw) <= hdr_len
    data[24 : 24 + hdr_len] = raw.ljust(hdr_len)
    path.write_bytes(bytes(data))
