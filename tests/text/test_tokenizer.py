"""Tokenizer tests, including property-based invariants."""

import re
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scan import scan_ids
from repro.text import Tokenizer, TokenizerConfig


def tok(**kw):
    return Tokenizer(TokenizerConfig(**kw))


def test_basic_split_and_lowercase():
    t = tok()
    assert t.tokens("Hello World hello") == ["hello", "world", "hello"]


def test_delimiters_split_terms():
    t = tok()
    assert t.tokens("alpha,beta;gamma(delta)") == [
        "alpha",
        "beta",
        "gamma",
        "delta",
    ]


def test_stopwords_removed():
    t = tok()
    assert t.tokens("the cat and the hat") == ["cat", "hat"]


def test_length_band():
    t = tok(min_len=3, max_len=5)
    assert t.tokens("a ab abc abcd abcde abcdef") == ["abc", "abcd", "abcde"]


def test_numeric_dropped_by_default():
    t = tok()
    assert t.tokens("call 911 now-ish 24-7") == ["call", "now-ish"]


def test_numeric_kept_when_configured():
    t = tok(drop_numeric=False, min_len=1)
    assert "911" in t.tokens("call 911")


def test_no_lowercase():
    t = tok(lowercase=False, stopwords=frozenset())
    assert t.tokens("Hello World") == ["Hello", "World"]


def test_stemming_folds_variants():
    t = tok(stem=True)
    out = t.tokens("running runs walked walks")
    assert out == ["runn", "run", "walk", "walk"]


def test_empty_and_whitespace_only():
    t = tok()
    assert t.tokens("") == []
    assert t.tokens("   \t\n  ") == []
    assert t.tokens("... !!! ???") == []


@settings(max_examples=200)
@given(st.text(max_size=400))
def test_tokens_always_within_config(text):
    cfg = TokenizerConfig(min_len=2, max_len=10)
    t = Tokenizer(cfg)
    for term in t.tokens(text):
        assert 2 <= len(term) <= 10
        assert term == term.lower()
        assert term not in cfg.stopwords
        # no delimiter or whitespace survives inside a term
        for ch in cfg.delimiters:
            assert ch not in term
        assert not any(c.isspace() for c in term)


@settings(max_examples=100)
@given(st.text(max_size=200))
def test_tokenization_deterministic(text):
    t = tok()
    assert t.tokens(text) == t.tokens(text)


@settings(max_examples=100)
@given(
    st.lists(
        st.text(
            alphabet=st.characters(min_codepoint=97, max_codepoint=122),
            min_size=2,
            max_size=8,
        ),
        min_size=0,
        max_size=30,
    )
)
def test_joining_plain_words_roundtrips(words):
    """Whitespace-joined plain lowercase words tokenize back to
    themselves (minus stopwords)."""
    t = tok()
    expected = [w for w in words if w not in t.config.stopwords]
    assert t.tokens(" ".join(words)) == expected


# ---------------------------------------------------------------- memoization

_word_st = st.one_of(
    # arbitrary unicode tokens (may hit the length band / numeric filter)
    st.text(max_size=12),
    # plain words likely to reach the stemmer
    st.text(
        alphabet=st.characters(min_codepoint=97, max_codepoint=122),
        min_size=2,
        max_size=10,
    ),
    # suffixed words exercising every _light_stem branch
    st.tuples(
        st.text(
            alphabet=st.characters(min_codepoint=97, max_codepoint=122),
            min_size=3,
            max_size=6,
        ),
        st.sampled_from(
            ["ingly", "edly", "ing", "ied", "ies", "ed", "es", "s"]
        ),
    ).map("".join),
    # stopwords take the early-drop path
    st.sampled_from(sorted(TokenizerConfig().stopwords)),
    # digit/dash runs take the numeric-drop path
    st.text(alphabet="0123456789-", min_size=1, max_size=8),
)


@settings(max_examples=150, deadline=None)
@given(
    words=st.lists(_word_st, min_size=0, max_size=40),
    stem=st.booleans(),
)
def test_memoized_normalization_matches_uncached(words, stem):
    """The per-token memo must be invisible: the scan kernel (memoized,
    and warmed by repetition) agrees with the _normalize_uncached
    reference for every raw token, including stemming and stopword
    paths, and so does tokens()."""
    t = tok(stem=stem)
    # duplicate the stream so the second half is all memo hits
    text = " ".join(words + words)
    ids = {}
    flat, _ = scan_ids([text], t, lambda w: ids.setdefault(w, len(ids) + 1))
    terms = list(ids)
    out = [terms[i - 1] for i in flat.tolist()]

    ref = tok(stem=stem)
    expected = []
    for raw in ref._split_re.split(text.lower()):
        if not raw:
            continue
        term = ref._normalize_uncached(raw)
        if term is not None:
            expected.append(term)
    assert out == expected
    assert t.tokens(text) == expected


@settings(max_examples=200, deadline=None)
@given(
    text=st.text(
        alphabet=st.one_of(
            st.characters(),
            st.sampled_from(list(" \t\n\x0b\x1c\x85\xa0\u2003\u2028\u3000ßΣİﬁ")),
            st.sampled_from(list(TokenizerConfig().delimiters)),
        ),
        max_size=60,
    ),
    lowercase=st.booleans(),
    delimiters=st.sampled_from(["", ".,;", TokenizerConfig().delimiters]),
)
def test_split_matches_reference_regex(text, lowercase, delimiters):
    t = tok(lowercase=lowercase, delimiters=delimiters)
    ref = text.lower() if lowercase else text
    expected = [raw for raw in t._split_re.split(ref) if raw]
    assert t.split(text) == expected


def test_split_whitespace_is_the_regex_whitespace():
    """``str.split`` breaks on exactly the code points ``\\s`` matches."""
    space = re.compile(r"\s")
    for cp in range(sys.maxunicode + 1):
        c = chr(cp)
        assert bool(space.match(c)) == c.isspace(), hex(cp)
