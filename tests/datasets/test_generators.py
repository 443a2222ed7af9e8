"""Synthetic corpus generator tests: determinism and statistics."""

import numpy as np
import pytest

from repro.datasets import (
    ThemeModel,
    ThemeModelConfig,
    ZipfSampler,
    generate_pubmed,
    generate_trec,
    make_vocabulary,
)
from repro.text import Tokenizer


def test_vocabulary_distinct_and_deterministic():
    v1 = make_vocabulary(500, seed=9)
    v2 = make_vocabulary(500, seed=9)
    assert v1 == v2
    assert len(set(v1)) == 500
    v3 = make_vocabulary(500, seed=10)
    assert v1 != v3


def test_zipf_sampler_is_skewed():
    z = ZipfSampler(1000)
    rng = np.random.default_rng(0)
    draws = z.sample(20_000, rng)
    assert draws.min() >= 0 and draws.max() < 1000
    counts = np.bincount(draws, minlength=1000)
    # rank-0 terms must dominate deep-tail terms heavily
    assert counts[:10].sum() > 20 * counts[500:510].sum()


def test_zipf_probs_normalized():
    z = ZipfSampler(100)
    assert abs(z.probs.sum() - 1.0) < 1e-12


def test_zipf_rejects_empty():
    with pytest.raises(ValueError):
        ZipfSampler(0)


def test_theme_model_theme_terms_disjoint():
    m = ThemeModel(ThemeModelConfig(vocab_size=3000, n_themes=5), seed=1)
    seen = set()
    for t in m.theme_terms:
        s = set(t.tolist())
        assert not (s & seen)
        seen |= s


def test_theme_model_vocab_too_small():
    with pytest.raises(ValueError):
        ThemeModel(
            ThemeModelConfig(vocab_size=100, n_themes=10, theme_vocab=50),
            seed=0,
        )


def test_pubmed_deterministic_and_sized():
    c1 = generate_pubmed(60_000, seed=5)
    c2 = generate_pubmed(60_000, seed=5)
    assert len(c1) == len(c2)
    assert c1[0].fields == c2[0].fields
    assert 60_000 <= c1.nbytes <= 60_000 * 1.2


def test_pubmed_consistent_sizes():
    """Paper: PubMed abstracts are 'consistent in both size'."""
    c = generate_pubmed(150_000, seed=2)
    sizes = np.array([d.nbytes for d in c])
    assert sizes.std() / sizes.mean() < 0.5


def test_pubmed_fields():
    c = generate_pubmed(30_000, seed=0)
    names = dict.fromkeys(f for d in c.documents for f in d.fields)
    assert list(names) == ["title", "abstract", "journal"]
    assert c.meta["n_themes"] == 12


def test_trec_heavy_tailed_sizes():
    c = generate_trec(400_000, seed=2)
    sizes = np.array([d.nbytes for d in c])
    # heavy tail: the largest page dwarfs the median page
    assert sizes.max() > 8 * np.median(sizes)


def test_trec_fields_and_urls():
    c = generate_trec(30_000, seed=0)
    names = dict.fromkeys(f for d in c.documents for f in d.fields)
    assert list(names) == ["url", "title", "body"]
    assert all(d.fields["url"].endswith(".html") for d in c)
    assert all(".gov/" in d.fields["url"] for d in c)


def test_trec_token_density_varies():
    """Markup-heavy pages yield far fewer postings per byte, the load
    imbalance Fig. 9 exercises."""
    c = generate_trec(300_000, seed=4)
    t = Tokenizer()
    density = []
    for d in c:
        toks = len(t.tokens(d.fields["body"]))
        density.append(toks / max(1, d.nbytes))
    density = np.array(density)
    assert density.max() > 2.5 * max(1e-9, density.min())


def test_represented_bytes_passthrough():
    c = generate_pubmed(30_000, seed=0, represented_bytes=2.75e9)
    assert c.represented_bytes == 2.75e9
    assert c.workload_scale() > 1000


def test_generators_reject_nonpositive_target():
    with pytest.raises(ValueError):
        generate_pubmed(0, seed=0)
