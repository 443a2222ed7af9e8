"""Topic-mixture document generator.

Documents are produced by a small generative model: a background
Zipfian word distribution plus ``n_themes`` theme distributions, each
concentrated on its own subset of the vocabulary.  Every document picks
one or two themes and interleaves theme terms with background terms.
This gives corpora with (a) Heaps-law vocabulary growth, (b) Zipf term
frequencies, and (c) genuine latent cluster structure that the
engine's topicality/clustering stages can recover -- the properties
the paper's pipeline stresses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.text.documents import Corpus, Document

from .vocabulary import ZipfSampler, make_vocabulary


@dataclass(frozen=True)
class ThemeModelConfig:
    """Shape of the generative model."""

    vocab_size: int = 12_000
    n_themes: int = 12
    #: distinct terms devoted to each theme
    theme_vocab: int = 120
    #: fraction of a document's tokens drawn from its theme(s)
    theme_strength: float = 0.45
    #: probability a document mixes two themes
    two_theme_prob: float = 0.25
    zipf_s: float = 1.07


class ThemeModel:
    """Samples token streams from the background+themes mixture."""

    def __init__(
        self,
        config: ThemeModelConfig,
        seed: int,
        affixes: tuple[list[str], list[str]] | None = None,
    ):
        self.config = config
        self.rng = np.random.default_rng(seed)
        self.vocab = make_vocabulary(
            config.vocab_size, seed=seed * 7919 + 13, affixes=affixes
        )
        self.background = ZipfSampler(config.vocab_size, s=config.zipf_s)
        # each theme owns a contiguous slice of mid-frequency vocabulary
        # (very frequent words are background-ish, very rare ones noise)
        start = config.vocab_size // 20
        self.theme_terms = []
        for k in range(config.n_themes):
            lo = start + k * config.theme_vocab
            hi = lo + config.theme_vocab
            if hi > config.vocab_size:
                raise ValueError(
                    "vocab_size too small for n_themes * theme_vocab"
                )
            self.theme_terms.append(np.arange(lo, hi))
        self.theme_sampler = ZipfSampler(config.theme_vocab, s=1.0)

    def sample_themes(self) -> list[int]:
        k = self.rng.integers(self.config.n_themes)
        themes = [int(k)]
        if (
            self.config.n_themes > 1
            and self.rng.random() < self.config.two_theme_prob
        ):
            k2 = int(self.rng.integers(self.config.n_themes))
            if k2 != k:
                themes.append(k2)
        return themes

    def sample_tokens(self, n: int, themes: list[int]) -> list[str]:
        """Draw ``n`` word tokens for a document with given themes."""
        if n <= 0:
            return []
        from_theme = self.rng.random(n) < self.config.theme_strength
        n_theme = int(from_theme.sum())
        idx = np.empty(n, dtype=np.int64)
        idx[~from_theme] = self.background.sample(n - n_theme, self.rng)
        if n_theme:
            which = self.rng.integers(len(themes), size=n_theme)
            local = self.theme_sampler.sample(n_theme, self.rng)
            theme_idx = np.empty(n_theme, dtype=np.int64)
            for j, t in enumerate(themes):
                mask = which == j
                theme_idx[mask] = self.theme_terms[t][local[mask]]
            idx[from_theme] = theme_idx
        return [self.vocab[i] for i in idx]


FieldBuilder = Callable[[ThemeModel, list[int], np.random.Generator], dict]


def generate_corpus(
    name: str,
    target_bytes: int,
    field_builder: FieldBuilder,
    model: ThemeModel,
    represented_bytes: float | None = None,
    n_docs: int | None = None,
) -> Corpus:
    """Generate documents until ``target_bytes`` of text exist.

    ``field_builder`` constructs one document's field dict from the
    model; the generator tracks actual byte production so corpora land
    within a few percent of the requested size.  ``n_docs`` instead
    stops after exactly that many documents (a prefix of the stream).
    """
    if n_docs is None and target_bytes <= 0:
        raise ValueError(f"target_bytes must be > 0, got {target_bytes}")
    documents: list[Document] = []
    produced = 0
    theme_labels: list[int] = []
    while produced < target_bytes if n_docs is None else len(documents) < n_docs:
        themes = model.sample_themes()
        fields = field_builder(model, themes, model.rng)
        doc = Document(doc_id=len(documents), fields=fields)
        documents.append(doc)
        theme_labels.append(themes[0])
        produced += doc.nbytes
    return Corpus(
        name=name,
        documents=documents,
        represented_bytes=represented_bytes,
        meta={
            "n_themes": model.config.n_themes,
            "vocab_size": model.config.vocab_size,
            "theme_labels": theme_labels,
        },
    )
