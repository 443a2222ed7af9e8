"""Scan & Map stage tests."""

import numpy as np

from repro.scan import finalize_vocabulary_serial, scan_forward
from repro.text import Document, Tokenizer

FIELDS = {"title": 0, "body": 1}


def _docs():
    return [
        Document(0, {"title": "alpha beta", "body": "beta gamma gamma"}),
        Document(1, {"title": "delta", "body": "alpha delta"}),
    ]


def _forward(docs=None, fields=FIELDS):
    fwd, terms, _ = scan_forward(docs or _docs(), Tokenizer(), fields)
    vocab = finalize_vocabulary_serial(terms)
    fwd.assign_gids(terms, vocab.term_to_gid)
    return fwd


def test_scan_tokenizes_per_field():
    fwd, terms, stats = scan_forward(_docs(), Tokenizer(), FIELDS)
    # 1-based local ids, first seen first
    assert terms == ["alpha", "beta", "gamma", "delta"]
    np.testing.assert_array_equal(fwd.gids, [1, 2, 2, 3, 3, 4, 1, 4])
    np.testing.assert_array_equal(fwd.field_offsets, [0, 2, 5, 6, 8])
    assert stats.ndocs == 2
    assert stats.ntokens == 5 + 3
    assert stats.nfields == 4
    assert stats.nbytes == sum(d.nbytes for d in _docs())


def test_unique_terms_sorted():
    _, terms, _ = scan_forward(_docs(), Tokenizer(), FIELDS)
    vocab = finalize_vocabulary_serial(terms)
    assert vocab.gid_to_term == ["alpha", "beta", "delta", "gamma"]


def test_finalize_vocabulary_serial_dense_sorted():
    vocab = finalize_vocabulary_serial(["b", "a", "c", "a"])
    assert vocab.gid_to_term == ["a", "b", "c"]
    assert vocab.term_to_gid == {"a": 0, "b": 1, "c": 2}
    assert vocab.size == 3
    assert vocab.dist.local_range(0) == (0, 3)


def test_encode_forward_gids_and_fields():
    fwd = _forward()
    # alpha beta | beta gamma gamma -> 0 1 | 1 3 3
    d0 = fwd.per_doc(fwd.gids)[0]
    np.testing.assert_array_equal(d0, [0, 1, 1, 3, 3])
    np.testing.assert_array_equal(fwd.doc_offsets, [0, 5, 8])
    np.testing.assert_array_equal(fwd.doc_fields, [0, 2, 4])
    # global field ids: doc * 2 fields + {0, 1}
    np.testing.assert_array_equal(fwd.field_ids, [0, 1, 2, 3])
    np.testing.assert_array_equal(fwd.doc_ids, [0, 1])
    assert fwd.total_postings == 8


def test_chunk_streams_expand_per_token():
    fwd = _forward()
    g, d = fwd.chunk_streams(0, 2)
    assert g.shape == d.shape == (8,)
    np.testing.assert_array_equal(g, fwd.gids)
    np.testing.assert_array_equal(d, [0] * 5 + [1] * 3)


def test_chunk_streams_empty_range():
    g, d = _forward().chunk_streams(1, 1)
    assert g.size == d.size == 0


def test_empty_document_encodes():
    fwd = _forward([Document(0, {"body": "..."})], {"body": 0})
    assert fwd.ntokens_of_chunk(0, 1) == 0
    g, d = fwd.chunk_streams(0, 1)
    assert g.size == d.size == 0


def test_nbytes_of_chunk_positive():
    fwd = _forward()
    assert fwd.nbytes_of_chunk(0, 2) > fwd.nbytes_of_chunk(0, 1) > 0
    # 8 B per token, 16 B per field, 24 B per document
    assert fwd.nbytes_of_chunk(0, 1) == 8 * 5 + 16 * 2 + 24
