"""Property-based engine tests: serial/parallel equivalence on random
corpora, plus structural edge cases."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import (
    EngineConfig,
    ParallelTextEngine,
    SerialTextEngine,
)
from repro.text import Corpus, Document

_WORDS = [f"w{i:02d}" for i in range(30)]


def _random_corpus(draw):
    n_docs = draw(st.integers(min_value=3, max_value=18))
    docs = []
    for i in range(n_docs):
        n_tokens = draw(st.integers(min_value=1, max_value=25))
        idx = draw(
            st.lists(
                st.integers(min_value=0, max_value=len(_WORDS) - 1),
                min_size=n_tokens,
                max_size=n_tokens,
            )
        )
        body = " ".join(_WORDS[j] for j in idx)
        title = _WORDS[draw(st.integers(0, len(_WORDS) - 1))]
        docs.append(Document(i, {"title": title, "body": body}))
    return Corpus("hyp", docs)


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_parallel_model_equals_serial_on_random_corpora(data):
    corpus = _random_corpus(data.draw)
    nprocs = data.draw(st.integers(min_value=1, max_value=5))
    cfg = EngineConfig(
        n_major_terms=10,
        min_df=1,
        n_clusters=2,
        kmeans_sample=8,
        adapt_dimensionality=False,
    )
    try:
        s = SerialTextEngine(cfg).run(corpus)
    except ValueError:
        # degenerate corpus (no candidate terms): parallel must agree
        with pytest.raises(RuntimeError) as exc:
            ParallelTextEngine(nprocs, config=cfg).run(corpus)
        assert isinstance(exc.value.__cause__, ValueError)
        return
    p = ParallelTextEngine(nprocs, config=cfg).run(corpus)
    assert p.major_term_strings == s.major_term_strings
    np.testing.assert_array_equal(p.association, s.association)
    np.testing.assert_array_equal(p.signatures, s.signatures)
    # coords agree up to per-column sign: the PCA sign convention can
    # flip when float reduction-order noise moves the pivot entry of a
    # nearly-symmetric component
    for j in range(p.coords.shape[1]):
        col_p, col_s = p.coords[:, j], s.coords[:, j]
        assert np.allclose(col_p, col_s, atol=1e-8) or np.allclose(
            col_p, -col_s, atol=1e-8
        )


def test_single_document_corpus():
    corpus = Corpus(
        "one", [Document(0, {"body": "apple apple banana cherry"})]
    )
    cfg = EngineConfig(
        n_major_terms=4, min_df=1, n_clusters=1, kmeans_sample=2
    )
    s = SerialTextEngine(cfg).run(corpus)
    assert s.n_docs == 1
    assert s.coords.shape == (1, 2)
    p = ParallelTextEngine(3, config=cfg).run(corpus)
    assert p.n_docs == 1


def test_documents_with_empty_fields():
    docs = [
        Document(0, {"title": "", "body": "apple banana apple"}),
        Document(1, {"title": "cherry cherry", "body": ""}),
        Document(2, {"title": "", "body": ""}),  # fully empty
        Document(3, {"title": "apple", "body": "banana cherry"}),
    ]
    cfg = EngineConfig(
        n_major_terms=3, min_df=1, n_clusters=2, kmeans_sample=4
    )
    corpus = Corpus("sparse", docs)
    s = SerialTextEngine(cfg).run(corpus)
    assert s.n_docs == 4
    # the empty doc has a null signature
    assert s.null_fraction >= 0.25
    p = ParallelTextEngine(2, config=cfg).run(corpus)
    np.testing.assert_array_equal(p.signatures, s.signatures)


def test_unicode_documents():
    docs = [
        Document(0, {"body": "naïve café naïve zürich"}),
        Document(1, {"body": "café münchen café zürich"}),
        Document(2, {"body": "naïve münchen zürich zürich"}),
    ]
    cfg = EngineConfig(
        n_major_terms=4, min_df=1, n_clusters=2, kmeans_sample=3
    )
    s = SerialTextEngine(cfg).run(Corpus("uni", docs))
    assert any("ï" in t or "ü" in t for t in s.major_term_strings)
    p = ParallelTextEngine(2, config=cfg).run(Corpus("uni", docs))
    assert p.major_term_strings == s.major_term_strings


def test_identical_documents():
    docs = [
        Document(i, {"body": "same words every time here"})
        for i in range(6)
    ]
    cfg = EngineConfig(
        n_major_terms=4, min_df=1, n_clusters=2, kmeans_sample=4
    )
    s = SerialTextEngine(cfg).run(Corpus("dup", docs))
    # identical docs -> identical signatures -> coincident coords
    assert np.allclose(s.coords, s.coords[0])


def test_very_long_single_field():
    body = " ".join(f"tok{i % 50:02d}" for i in range(5000))
    docs = [Document(i, {"body": body}) for i in range(3)]
    cfg = EngineConfig(
        n_major_terms=10, min_df=1, n_clusters=2, kmeans_sample=3
    )
    s = SerialTextEngine(cfg).run(Corpus("long", docs))
    assert s.term_stats["tok00"][1] == 300  # 100 occurrences x 3 docs
