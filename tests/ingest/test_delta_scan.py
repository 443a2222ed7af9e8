"""``build_delta`` scans each document once, and nothing moves.

The delta builder used to tokenize every batch twice: once over
``doc.text()`` to project signatures, once field by field to invert
postings.  It now makes one :func:`scan_major_rows` pass whose rows
feed both.  These tests pin it to a frozen copy of the two-pass
builder, array for array, and pin the published delta containers to
the two-pass builder's sha256s.
"""

import hashlib

import numpy as np

from repro.cluster.kmeans import assign_points
from repro.index.fastinv import invert_chunk
from repro.ingest.delta import append_generation, build_delta
from repro.serve.store import load_manifest
from repro.text.documents import Document
from repro.text.tokenizer import Tokenizer
from tests.ingest.conftest import ENGINE_CONFIG
from tests.signature.oracles import major_lookup_arrays, per_doc_signatures

TOK = ENGINE_CONFIG.tokenizer

#: sha256 of the three delta containers the fixture feed publishes
#: (one generation per batch onto a 2-shard store), as written by the
#: two-pass builder
PINNED_DELTAS = (
    "17414f60e81195408b7e729a6563db8aa8a7214fee3986e52b8b3e6821dfa612",
    "ad1b19b225772a2409fa0c22dd1ed8fee340fedd2797a5c548e5d8dfec21c727",
    "a92bf02bae5272a2a05f965fa359358fe630fac0e1fcd7a09ee2e58c64f9bd41",
)


def two_pass_delta(result, docs):
    """The two-pass builder, frozen: ``(projected, postings)`` arrays."""
    term_row = {t.term: i for i, t in enumerate(result.major_terms)}
    n_major = len(result.major_terms)
    # pass 1: project from the joined text
    tokenizer = Tokenizer(TOK)
    sorted_gids, positions = major_lookup_arrays(list(range(n_major)))
    doc_rows = [
        np.asarray(
            [term_row[t] for t in tokenizer.tokens(d.text()) if t in term_row],
            dtype=np.int64,
        )
        for d in docs
    ]
    batch = per_doc_signatures(
        doc_rows, sorted_gids, positions, result.association
    )
    sigs = batch.signatures
    labels, _ = assign_points(sigs, result.centroids)
    projected = {
        "doc_ids": np.array([d.doc_id for d in docs], dtype=np.int64),
        "signatures": sigs,
        "coords": result.projection.project(sigs),
        "assignments": labels,
        "null_mask": batch.null_mask,
    }
    # pass 2: a fresh tokenizer, field by field, for the postings
    tokenizer = Tokenizer(TOK)
    gid_parts, row_parts = [], []
    for row, doc in enumerate(docs):
        for text in doc.fields.values():
            for tok in tokenizer.tokens(text):
                t = term_row.get(tok)
                if t is not None:
                    gid_parts.append(t)
                    row_parts.append(row)
    gids = np.asarray(gid_parts, dtype=np.int64)
    rows = np.asarray(row_parts, dtype=np.int64)
    t2d = invert_chunk(gids, rows)
    postings = {
        "offsets": np.searchsorted(
            t2d.gids, np.arange(n_major + 1, dtype=np.int64)
        ).astype(np.int64),
        "rows": t2d.keys.astype(np.int64),
        "tf": t2d.counts.astype(np.int64),
    }
    return projected, postings


def assert_arrays_identical(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_matches_two_pass(result, docs):
    delta = build_delta(result, docs, tokenizer_config=TOK)
    projected, postings = two_pass_delta(result, docs)
    for name, want in projected.items():
        assert_arrays_identical(getattr(delta.projected, name), want)
    for name, want in postings.items():
        assert_arrays_identical(getattr(delta.postings, name), want)
    assert delta.postings.n_docs == len(docs)
    return delta


def test_every_delta_array_matches_two_pass(result, feed_batches):
    for corpus, _arrival in feed_batches:
        delta = assert_matches_two_pass(result, corpus.documents)
        assert delta.null_count == 0 and len(delta.postings) > 0


def published_delta_sha256s(store) -> list[str]:
    manifest = load_manifest(store)
    return [
        hashlib.sha256((store / d.file).read_bytes()).hexdigest()
        for d in manifest.deltas
    ]


def test_published_deltas_are_byte_pinned(result, feed_batches, make_store):
    store = make_store(2)
    for corpus, _arrival in feed_batches:
        append_generation(
            store, [build_delta(result, corpus.documents, TOK)]
        )
    assert tuple(published_delta_sha256s(store)) == PINNED_DELTAS


def test_batch_without_major_terms(result):
    """No major term anywhere: all-null signatures, empty postings."""
    docs = [
        Document(doc_id=900_000 + i, fields={"title": text})
        for i, text in enumerate(
            ["qqzx vvbw 1234", "the and of", "", "Zzyzx-Σίσυφος İstanbul"]
        )
    ]
    delta = assert_matches_two_pass(result, docs)
    assert delta.projected.null_mask.all()
    assert not delta.projected.signatures.any()
    assert len(delta.postings) == 0
    assert not delta.postings.offsets.any()


def test_document_without_fields_is_null(result, feed_batches):
    corpus, _arrival = feed_batches[0]
    docs = list(corpus.documents[:2]) + [
        Document(doc_id=900_100, fields={})
    ]
    delta = assert_matches_two_pass(result, docs)
    assert delta.projected.null_mask.tolist() == [False, False, True]
    assert 2 not in delta.postings.rows
