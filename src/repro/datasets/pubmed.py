"""Synthetic PubMed-like corpus.

The paper describes PubMed abstracts as "unstructured (or free form)
text ... consistent in both size and language type".  We reproduce
those statistics: tightly distributed abstract lengths (lognormal with
small sigma), a biomedical-flavoured vocabulary, and title / abstract /
journal fields per record.
"""

from __future__ import annotations

import numpy as np

from repro.text.documents import Corpus

from .generator import ThemeModel, ThemeModelConfig, generate_corpus
from .vocabulary import BIOMEDICAL_AFFIXES

_JOURNALS = [
    "journal of synthetic medicine",
    "annals of generated biology",
    "clinical corpus letters",
    "archives of simulated oncology",
    "synthetic neuroscience reports",
    "proceedings of modelled immunology",
    "generated cardiology review",
    "simulated pathology quarterly",
]


def _pubmed_fields(
    model: ThemeModel, themes: list[int], rng: np.random.Generator
) -> dict:
    title_len = int(rng.integers(6, 14))
    # lognormal with small sigma: "consistent in size"
    abstract_len = int(np.clip(rng.lognormal(np.log(170), 0.25), 60, 450))
    return {
        "title": " ".join(model.sample_tokens(title_len, themes)),
        "abstract": " ".join(model.sample_tokens(abstract_len, themes)),
        "journal": _JOURNALS[int(rng.integers(len(_JOURNALS)))],
    }


def generate_pubmed(
    target_bytes: int,
    seed: int = 0,
    represented_bytes: float | None = None,
    n_themes: int = 12,
    vocab_size: int = 12_000,
    facets=None,
    n_docs: int | None = None,
) -> Corpus:
    """Generate a PubMed-like corpus of roughly ``target_bytes``.

    Pass ``represented_bytes`` (e.g. ``2.75e9``) to declare what real
    corpus size this stands for; the benchmark harness feeds the
    resulting scale factor to the machine cost model.  Pass a
    :class:`repro.facets.FacetSpec` as ``facets`` to stamp the corpus
    with time/source fields from the dedicated facet rng stream; the
    default ``None`` leaves output byte-identical to earlier versions.
    """
    model = ThemeModel(
        ThemeModelConfig(
            vocab_size=vocab_size,
            n_themes=n_themes,
            theme_strength=0.45,
            zipf_s=1.07,
        ),
        seed=seed,
        affixes=BIOMEDICAL_AFFIXES,
    )
    corpus = generate_corpus(
        name="pubmed-synthetic",
        target_bytes=target_bytes,
        field_builder=_pubmed_fields,
        model=model,
        represented_bytes=represented_bytes,
        n_docs=n_docs,
    )
    if facets is not None:
        from repro.facets.stamp import stamp_corpus

        stamp_corpus(corpus, facets)
    return corpus
