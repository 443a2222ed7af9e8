"""Scan & Map stage tests."""

import numpy as np

from repro.scan import (
    encode_forward,
    finalize_vocabulary_serial,
    scan_documents,
    unique_terms,
)
from repro.text import Document, Tokenizer


def _docs():
    return [
        Document(0, {"title": "alpha beta", "body": "beta gamma gamma"}),
        Document(1, {"title": "delta", "body": "alpha delta"}),
    ]


def test_scan_tokenizes_per_field():
    scanned, stats = scan_documents(_docs(), Tokenizer())
    assert len(scanned) == 2
    assert scanned[0].field_names == ["title", "body"]
    assert scanned[0].field_tokens == [
        ["alpha", "beta"],
        ["beta", "gamma", "gamma"],
    ]
    assert stats.ndocs == 2
    assert stats.ntokens == 5 + 3
    assert stats.nfields == 4
    assert stats.nbytes == sum(d.nbytes for d in _docs())


def test_unique_terms_sorted():
    scanned, _ = scan_documents(_docs(), Tokenizer())
    assert unique_terms(scanned) == ["alpha", "beta", "delta", "gamma"]


def test_finalize_vocabulary_serial_dense_sorted():
    vocab = finalize_vocabulary_serial(["b", "a", "c", "a"])
    assert vocab.gid_to_term == ["a", "b", "c"]
    assert vocab.term_to_gid == {"a": 0, "b": 1, "c": 2}
    assert vocab.size == 3
    assert vocab.dist.local_range(0) == (0, 3)


def test_encode_forward_gids_and_fields():
    scanned, _ = scan_documents(_docs(), Tokenizer())
    vocab = finalize_vocabulary_serial(unique_terms(scanned))
    fwd = encode_forward(
        scanned, vocab.term_to_gid, {"title": 0, "body": 1}
    )
    d0 = fwd.docs[0]
    # alpha beta | beta gamma gamma -> 0 1 | 1 3 3
    np.testing.assert_array_equal(d0.gids, [0, 1, 1, 3, 3])
    np.testing.assert_array_equal(d0.field_offsets, [0, 2, 5])
    # global field ids: doc 0 * 2 fields + {0, 1}
    np.testing.assert_array_equal(d0.field_ids, [0, 1])
    d1 = fwd.docs[1]
    np.testing.assert_array_equal(d1.field_ids, [2, 3])
    assert fwd.total_postings == 8


def test_chunk_streams_expand_per_token():
    scanned, _ = scan_documents(_docs(), Tokenizer())
    vocab = finalize_vocabulary_serial(unique_terms(scanned))
    fwd = encode_forward(scanned, vocab.term_to_gid, {"title": 0, "body": 1})
    g, d = fwd.chunk_streams(0, 2)
    assert g.shape == d.shape == (8,)
    np.testing.assert_array_equal(
        g, np.concatenate([x.gids for x in fwd.docs])
    )
    np.testing.assert_array_equal(d, [0] * 5 + [1] * 3)


def test_chunk_streams_empty_range():
    scanned, _ = scan_documents(_docs(), Tokenizer())
    vocab = finalize_vocabulary_serial(unique_terms(scanned))
    fwd = encode_forward(scanned, vocab.term_to_gid, {"title": 0, "body": 1})
    g, d = fwd.chunk_streams(1, 1)
    assert g.size == d.size == 0


def test_empty_document_encodes():
    scanned, _ = scan_documents(
        [Document(0, {"body": "..."})], Tokenizer()
    )
    fwd = encode_forward(scanned, {}, {"body": 0})
    assert fwd.docs[0].ntokens == 0
    g, d = fwd.chunk_streams(0, 1)
    assert g.size == d.size == 0


def test_nbytes_of_chunk_positive():
    scanned, _ = scan_documents(_docs(), Tokenizer())
    vocab = finalize_vocabulary_serial(unique_terms(scanned))
    fwd = encode_forward(scanned, vocab.term_to_gid, {"title": 0, "body": 1})
    assert fwd.nbytes_of_chunk(0, 2) > fwd.nbytes_of_chunk(0, 1) > 0
