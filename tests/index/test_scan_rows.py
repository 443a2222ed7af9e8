"""``scan_major_rows`` equals both tokenizations it replaced.

One pass over a document's joined, lowercased fields must give the
same major-term rows as tokenizing ``doc.text()`` and as tokenizing
each field on its own.  Whitespace always delimits and no case mapping
looks across it (final sigma, dotted capital I), so the three agree
for any field dict.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.termindex import invert_major_rows, scan_major_rows
from repro.text.documents import Document
from repro.text.tokenizer import Tokenizer, TokenizerConfig

CONFIGS = {
    "default": TokenizerConfig(),
    "stem": TokenizerConfig(stem=True),
}

_letters = st.sampled_from(list("abcxyzABCXYZΣσςİıßéÉ0123456789-_"))
_word = st.one_of(
    st.text(_letters, min_size=1, max_size=9),
    st.sampled_from(
        ["the", "and", "of", "1234", "4-5", "studies", "running",
         "ΟΔΟΣ", "İSTANBUL", "Straße", "a"]
    ),
)
_delims = st.text(st.sampled_from(list(" \t\n.,;:!?'()/–")), min_size=1,
                  max_size=4)


def _join(lead, pairs, tail):
    """Words separated by delimiter runs, with or without a trailing run."""
    body = "".join(w + d for w, d in pairs)
    if pairs and not tail:
        body = body[: -len(pairs[-1][1])]
    return lead + body


_field = st.builds(
    _join,
    st.sampled_from(["", " ", ".,"]),
    st.lists(st.tuples(_word, _delims), max_size=12),
    st.booleans(),
)
_fields = st.dictionaries(
    st.text(st.sampled_from("abcdef"), min_size=1, max_size=4),
    st.one_of(st.just(""), _field),
    max_size=4,
)


def per_field_rows(tokenizer, term_row, doc):
    return [
        term_row[t]
        for text in doc.fields.values()
        for t in tokenizer.tokens(text)
        if t in term_row
    ]


def joined_rows(tokenizer, term_row, doc):
    return [term_row[t] for t in tokenizer.tokens(doc.text()) if t in term_row]


@pytest.mark.parametrize("name", sorted(CONFIGS))
@settings(max_examples=120, deadline=None)
@given(field_dicts=st.lists(_fields, min_size=1, max_size=5), data=st.data())
def test_scan_equals_both_tokenizations(name, field_dicts, data):
    config = CONFIGS[name]
    docs = [Document(doc_id=i, fields=f) for i, f in enumerate(field_dicts)]
    tokenizer = Tokenizer(config)
    vocab = sorted({t for d in docs for t in tokenizer.tokens(d.text())})
    # a random subset of the vocabulary, in random rank order
    major = data.draw(st.permutations(vocab)).copy()
    major = major[: data.draw(st.integers(0, len(major)))]
    result = SimpleNamespace(
        major_terms=[SimpleNamespace(term=t) for t in major]
    )
    term_row = {t: i for i, t in enumerate(major)}

    got = scan_major_rows(docs, result, config)
    assert len(got) == len(docs)
    for rows, doc in zip(got, docs):
        assert rows.dtype == np.int64
        # each reference tokenizer is fresh, so its cache is cold
        assert rows.tolist() == joined_rows(Tokenizer(config), term_row, doc)
        assert rows.tolist() == per_field_rows(
            Tokenizer(config), term_row, doc
        )


def test_scan_of_no_documents():
    result = SimpleNamespace(major_terms=[SimpleNamespace(term="alpha")])
    assert scan_major_rows([], result) == []
    postings = invert_major_rows([], [], n_docs=0, n_terms=1)
    assert postings.offsets.tolist() == [0, 0] and len(postings) == 0


def test_invert_places_documents_at_given_rows():
    doc_rows = [
        np.array([1, 0, 1], dtype=np.int64),
        np.array([], dtype=np.int64),
        np.array([1], dtype=np.int64),
    ]
    postings = invert_major_rows(doc_rows, [4, 7, 9], n_docs=10, n_terms=3)
    assert postings.offsets.tolist() == [0, 1, 3, 3]
    assert postings.rows.tolist() == [4, 4, 9]
    assert postings.tf.tolist() == [1, 2, 1]
