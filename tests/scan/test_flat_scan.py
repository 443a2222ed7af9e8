"""The flat tokenize-to-id scan equals the per-document reference.

:func:`repro.scan.scan_forward` tokenizes every field straight into
local term ids in one flat buffer; ``tests/scan/oracles.py`` is the
scan it replaced (term-string lists per field, then one vocabulary
lookup per token, one array per document).  After the vocabulary is
assigned, every array, statistic and chunk view must agree, for any
documents and tokenizer configuration.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scan import finalize_vocabulary_serial, scan_forward, scan_ids
from repro.text import Document, Tokenizer, TokenizerConfig

from . import oracles

CONFIGS = {
    "default": TokenizerConfig(),
    "cased": TokenizerConfig(lowercase=False),
    "numeric": TokenizerConfig(drop_numeric=False),
    "stem": TokenizerConfig(stem=True),
}
FIELD_NAMES = ("title", "body", "mesh", "notes")
FIELD_IDS = {name: i for i, name in enumerate(FIELD_NAMES)}


def terms_of(texts, config) -> set[str]:
    tokenizer = Tokenizer(config)
    return {term for text in texts for term in tokenizer.tokens(text)}

_word = st.one_of(
    st.sampled_from(
        ["the", "and", "of", "a", "1234", "4-5", "42", "studies", "running",
         "Alpha", "ALPHA", "alpha", "beta", "Gene", "x", "cells", "ΟΔΟΣ"]
    ),
    st.text(st.sampled_from(list("abcXYZ09-é")), min_size=1, max_size=7),
)
_delims = st.text(
    st.sampled_from([" ", "\t", "\n", ".", ",", "(", "–", "—", "/"]),
    min_size=1,
    max_size=3,
)
_field = st.one_of(
    st.just(""),
    # stopwords only
    st.lists(st.sampled_from(["the", "and", "of", "a"]), max_size=4).map(
        " ".join
    ),
    st.lists(st.tuples(_word, _delims), max_size=10).map(
        lambda pairs: "".join(w + d for w, d in pairs)
    ),
)
# any subset of the field names, in any order; {} is a document with
# no fields
_fields = st.lists(
    st.tuples(st.sampled_from(FIELD_NAMES), _field),
    max_size=4,
    unique_by=lambda p: p[0],
).map(dict)
_documents = st.lists(_fields, max_size=8).map(
    lambda dicts: [Document(doc_id=i, fields=f) for i, f in enumerate(dicts)]
)


def flat_and_oracle(docs, config):
    fwd, terms, stats = scan_forward(docs, Tokenizer(config))
    vocab = finalize_vocabulary_serial(terms)
    fwd.assign_gids(terms, vocab.term_to_gid)
    scanned, ref_stats = oracles.scan_documents(docs, Tokenizer(config))
    assert vocab.gid_to_term == oracles.unique_terms(scanned)
    ref = oracles.encode_forward(scanned, vocab.term_to_gid, FIELD_IDS)
    assert stats == ref_stats
    return fwd, terms, ref


@pytest.mark.parametrize("name", sorted(CONFIGS))
@settings(max_examples=80, deadline=None)
@given(docs=_documents)
def test_flat_scan_equals_per_document_scan(name, docs):
    fwd, terms, ref = flat_and_oracle(docs, CONFIGS[name])
    assert len(set(terms)) == len(terms)
    assert len(fwd) == len(ref)
    np.testing.assert_array_equal(fwd.doc_ids, [d.doc_id for d in ref])
    assert fwd.gids.dtype == np.int64
    for i, (gids, d) in enumerate(zip(fwd.per_doc(fwd.gids), ref)):
        np.testing.assert_array_equal(gids, d.gids)
        assert fwd.doc_fields[i + 1] - fwd.doc_fields[i] == d.field_ids.size
    assert fwd.gids.size == sum(d.ntokens for d in ref)


@settings(max_examples=80, deadline=None)
@given(docs=_documents, data=st.data())
def test_chunk_views_equal_per_document_forms(docs, data):
    fwd, _, ref = flat_and_oracle(docs, CONFIGS["default"])
    n = len(ref)
    lo = data.draw(st.integers(0, n))
    hi = data.draw(st.integers(lo, n + 3))
    g, d = fwd.chunk_streams(lo, hi)
    rg, rd = oracles.chunk_streams(ref, lo, hi)
    np.testing.assert_array_equal(g, rg)
    np.testing.assert_array_equal(d, rd)
    assert g.dtype == d.dtype == np.int64
    assert fwd.ntokens_of_chunk(lo, hi) == rg.size
    nb = fwd.nbytes_of_chunk(lo, hi)
    assert type(nb) is int and nb == oracles.nbytes_of_chunk(ref, lo, hi)


def test_dash_delimiters_split_terms():
    docs = [Document(0, {"body": "alpha–beta—gamma"})]
    fwd, terms, _ = scan_forward(docs, Tokenizer())
    assert terms == ["alpha", "beta", "gamma"]
    np.testing.assert_array_equal(fwd.gids, [1, 2, 3])


def test_documents_without_tokens_keep_their_offsets():
    docs = [
        Document(0, {}),
        Document(1, {"body": "the and of", "title": ""}),
        Document(2, {"title": "gene"}),
    ]
    fwd, terms, stats = scan_forward(docs, Tokenizer())
    assert terms == ["gene"]
    np.testing.assert_array_equal(fwd.doc_offsets, [0, 0, 0, 1])
    np.testing.assert_array_equal(fwd.doc_fields, [0, 0, 2, 3])
    assert (stats.ndocs, stats.ntokens) == (3, 1)
    assert fwd.nbytes_of_chunk(0, 1) == 24
    assert [g.size for g in fwd.per_doc(fwd.gids)] == [0, 0, 1]


def test_scan_of_no_documents():
    fwd, terms, stats = scan_forward([], Tokenizer())
    assert len(fwd) == 0 and terms == [] and stats.ntokens == 0
    assert fwd.per_doc(fwd.gids) == []
    assert fwd.nbytes_of_chunk(0, 4) == 0
    g, d = fwd.chunk_streams(0, 4)
    assert g.size == d.size == 0


@pytest.mark.parametrize("name", sorted(CONFIGS))
@settings(max_examples=60, deadline=None)
@given(texts=st.lists(_field, max_size=6), data=st.data())
def test_scan_ids_maps_the_tokenizer_terms(name, texts, data):
    """Any id table: each text's ids are its terms' ids, skipped
    terms (id 0) dropped, in token order."""
    config = CONFIGS[name]
    vocab = sorted(terms_of(texts, config))
    ids = data.draw(
        st.lists(st.integers(0, 9), min_size=len(vocab), max_size=len(vocab))
    )
    table = dict(zip(vocab, ids))
    flat, ends = scan_ids(texts, Tokenizer(config), table.__getitem__)
    assert flat.dtype == ends.dtype == np.int64
    assert ends.size == len(texts)
    starts = [0, *ends[:-1].tolist()]
    for text, a, b in zip(texts, starts, ends.tolist()):
        want = [table[t] for t in Tokenizer(config).tokens(text) if table[t]]
        assert flat[a:b].tolist() == want


def test_configs_differ_where_they_should():
    """The configurations above really change the scan."""
    docs = [Document(0, {"body": "Running 1234 running Gene"})]
    got = {
        name: scan_forward(docs, Tokenizer(cfg))[1]
        for name, cfg in CONFIGS.items()
    }
    assert got["default"] == ["running", "gene"]
    assert got["cased"] == ["Running", "running", "Gene"]
    assert got["numeric"] == ["running", "1234", "gene"]
    assert got["stem"] == ["runn", "gene"]
