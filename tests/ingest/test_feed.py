"""The feed's documents, arrivals and facet stamps are pinned.

A feed draws its documents from the seeded dataset generators once,
stopping at the last document it needs.  The digests below were taken
from the earlier grow-and-retry implementation (which generated the
stream several times over at doubling byte targets); since every
generator is prefix-stable -- one rng stream, one document at a time
-- both must emit the same bytes.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.facets import extract_facets
from repro.ingest.feed import FeedConfig, FeedSource

#: blake2b-128 of every batch's doc ids, fields, arrival and facets
PINNED = {
    "pubmed": "611de9096b4cfb6dcf5b7f2c54c63b40",
    "trec": "27ac0d0223e6d4c148283bf975bfeab9",
    "newswire": "ad3244071fa4dd2d1517cbefa9e6f0b5",
}


def feed_digest(config: FeedConfig) -> str:
    h = hashlib.blake2b(digest_size=16)
    for corpus, arrival in FeedSource(config).batches():
        h.update(np.float64(arrival).tobytes())
        for doc in corpus.documents:
            h.update(
                json.dumps(
                    [doc.doc_id, list(doc.fields.items())],
                    ensure_ascii=False,
                ).encode("utf-8")
            )
        facets = extract_facets(corpus)
        h.update(np.asarray(facets.stamp_s, dtype=np.float64).tobytes())
        h.update(np.asarray(facets.source, dtype=np.int64).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("dataset", sorted(PINNED))
def test_feed_stream_is_pinned(dataset):
    config = FeedConfig(
        dataset=dataset,
        batch_docs=7,
        n_batches=3,
        seed=5,
        themes=4,
        skip_docs=60,
        start_doc_id=1000,
        mean_interarrival_s=0.5,
        facet_sources=3,
    )
    assert feed_digest(config) == PINNED[dataset]


def test_feed_continues_the_generated_corpus():
    """``skip_docs`` continues the static corpus's own stream."""
    from repro.datasets.pubmed import generate_pubmed

    corpus = generate_pubmed(20_000, seed=2, n_themes=4)
    n = len(corpus.documents)
    head = corpus.documents[n - 5 :]
    feed = FeedSource(
        FeedConfig(
            batch_docs=5, n_batches=1, seed=2, themes=4, skip_docs=n - 5
        )
    )
    (batch, _arrival), = feed.batches()
    assert [d.fields for d in batch.documents] == [d.fields for d in head]
