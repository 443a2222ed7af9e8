"""Serial engine tests: end-to-end behaviour and edge cases."""

import time

import numpy as np
import pytest

from repro.engine import EngineConfig, SerialTextEngine
from repro.text import Corpus, Document


def test_end_to_end_pubmed(pubmed_small, small_config):
    res = SerialTextEngine(small_config).run(pubmed_small)
    n = len(pubmed_small)
    assert res.n_docs == n
    assert res.coords.shape == (n, 2)
    assert res.assignments.shape == (n,)
    assert res.signatures.shape == (n, res.n_topics)
    assert res.association.shape == (res.n_major, res.n_topics)
    assert res.n_major <= small_config.n_major_terms
    assert 0.0 <= res.null_fraction <= 1.0
    assert res.vocab_size > 100
    np.testing.assert_array_equal(res.doc_ids, np.arange(n))


def test_topics_are_theme_terms(pubmed_small, small_config):
    """Topicality must surface theme vocabulary, not background words."""
    res = SerialTextEngine(small_config).run(pubmed_small)
    from repro.datasets import ThemeModel, ThemeModelConfig
    from repro.datasets.vocabulary import BIOMEDICAL_AFFIXES

    model = ThemeModel(
        ThemeModelConfig(vocab_size=12_000, n_themes=12),
        seed=11,
        affixes=BIOMEDICAL_AFFIXES,
    )
    theme_words = {
        model.vocab[i] for terms in model.theme_terms for i in terms
    }
    top = res.topic_term_strings
    hits = sum(1 for t in top if t in theme_words)
    assert hits >= 0.7 * len(top)


def test_clusters_recover_themes():
    """Documents of the same generated theme should mostly co-cluster."""
    from repro.datasets import generate_pubmed

    corpus = generate_pubmed(120_000, seed=21, n_themes=4)
    cfg = EngineConfig(n_major_terms=120, n_clusters=4, kmeans_sample=48)
    res = SerialTextEngine(cfg).run(corpus)
    labels = np.array(corpus.meta["theme_labels"])
    # purity of the clustering against generated theme labels
    purity = 0
    for c in np.unique(res.assignments):
        members = labels[res.assignments == c]
        purity += np.bincount(members).max()
    purity /= len(labels)
    assert purity > 0.6


def test_timings_recorded(pubmed_small, small_config):
    res = SerialTextEngine(small_config).run(pubmed_small)
    t = res.timings
    assert not t.virtual
    assert set(t.component_seconds) == {
        "scan",
        "index",
        "topic",
        "am",
        "docvec",
        "clusproj",
    }
    assert abs(sum(t.component_percentages.values()) - 100.0) < 1e-6


def test_am_and_docvec_timed_separately(pubmed_small, small_config, monkeypatch):
    """AM and DocVec carry measured seconds that fit inside the loop."""
    import repro.engine.serial as serial

    loop = []
    signature_model = serial.signature_model

    def timed_signature_model(*args, **kwargs):
        t0 = time.perf_counter()
        out = signature_model(*args, **kwargs)
        loop.append(time.perf_counter() - t0)
        return out

    monkeypatch.setattr(serial, "signature_model", timed_signature_model)
    cs = SerialTextEngine(small_config).run(pubmed_small).timings.component_seconds
    am, docvec = cs["am"], cs["docvec"]
    assert am > 0.0 and docvec > 0.0 and am != docvec
    assert am + docvec <= loop[0]


def test_term_stats_match_corpus(small_config):
    docs = [
        Document(0, {"body": "apple apple banana"}),
        Document(1, {"body": "banana cherry"}),
        Document(2, {"body": "apple cherry cherry cherry"}),
    ]
    corpus = Corpus("tiny", docs)
    cfg = EngineConfig(
        n_major_terms=3, n_clusters=2, min_df=1, kmeans_sample=3
    )
    res = SerialTextEngine(cfg).run(corpus)
    assert res.term_stats["apple"] == (2, 3)
    assert res.term_stats["banana"] == (2, 2)
    assert res.term_stats["cherry"] == (2, 4)


def test_deterministic_across_runs(pubmed_small, small_config):
    r1 = SerialTextEngine(small_config).run(pubmed_small)
    r2 = SerialTextEngine(small_config).run(pubmed_small)
    assert r1.major_term_strings == r2.major_term_strings
    np.testing.assert_array_equal(r1.association, r2.association)
    np.testing.assert_array_equal(r1.signatures, r2.signatures)
    np.testing.assert_array_equal(r1.coords, r2.coords)
    np.testing.assert_array_equal(r1.assignments, r2.assignments)


def test_adaptive_dimensionality_reduces_nulls():
    """With a tiny initial N, many docs have null signatures; the
    adaptive loop (§4.2) must double N until the nulls subside."""
    rng_docs = []
    # 30 docs, each about a distinct topic word (plus filler), so a
    # 2-term model cannot cover them all
    for i in range(30):
        word = f"topicword{i:02d}"
        body = (f"{word} " * 3) + "filler common words everywhere"
        rng_docs.append(Document(i, {"body": body}))
    corpus = Corpus("adapt", rng_docs)
    base = EngineConfig(
        n_major_terms=2,
        min_df=1,
        n_clusters=3,
        kmeans_sample=16,
        max_null_fraction=0.1,
        max_major_terms=64,
    )
    res = SerialTextEngine(base).run(corpus)
    assert res.adapt_rounds > 0
    assert res.n_major > 2
    no_adapt = EngineConfig(
        n_major_terms=2,
        min_df=1,
        n_clusters=3,
        kmeans_sample=16,
        adapt_dimensionality=False,
    )
    res2 = SerialTextEngine(no_adapt).run(corpus)
    assert res2.adapt_rounds == 0
    assert res2.null_fraction > res.null_fraction


def test_empty_vocab_raises():
    corpus = Corpus("empty", [Document(0, {"body": "... 123 !!"})])
    with pytest.raises(ValueError, match="no candidate major terms"):
        SerialTextEngine(EngineConfig(min_df=1)).run(corpus)


def test_keep_flags(pubmed_small):
    cfg = EngineConfig(
        n_major_terms=50,
        n_clusters=3,
        keep_signatures=False,
        keep_term_stats=False,
    )
    res = SerialTextEngine(cfg).run(pubmed_small)
    assert res.signatures is None
    assert res.term_stats is None


def test_projection_dim_3(pubmed_small):
    cfg = EngineConfig(n_major_terms=50, n_clusters=4, projection_dim=3)
    res = SerialTextEngine(cfg).run(pubmed_small)
    assert res.coords.shape == (len(pubmed_small), 3)


def test_summary_is_readable(pubmed_small, small_config):
    res = SerialTextEngine(small_config).run(pubmed_small)
    s = res.summary()
    assert "pubmed" in s
    assert "major terms" in s
