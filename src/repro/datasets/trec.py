"""Synthetic TREC GOV2-like corpus.

GOV2 is a web crawl of the ``.gov`` domain: HTML and extracted text of
PDF/Word/Postscript files with *heavy-tailed document sizes* and a
broad, noisy vocabulary.  The heavy tail is what stresses the paper's
static byte partitioner and dynamic load balancer, so we reproduce it
with a clipped Pareto body-length distribution, plus boilerplate
navigation terms and a sprinkle of rare crawl-noise tokens.
"""

from __future__ import annotations

import numpy as np

from repro.text.documents import Corpus

from .generator import ThemeModel, ThemeModelConfig, generate_corpus
from .vocabulary import GOVWEB_AFFIXES

_BOILERPLATE = (
    "home contact search privacy accessibility sitemap help faq "
    "department office agency federal report public notice policy"
).split()

_TLD_WORDS = ["agency", "bureau", "dept", "office", "commission"]


def _markup_soup(rng: np.random.Generator, nbytes: int) -> str:
    """Markup/table filler the tokenizer drops: bytes without postings.

    Real GOV2 pages vary wildly in text density (HTML tables, numeric
    forms, extracted PDFs); byte-balanced partitions therefore carry
    unequal *token* loads, which is exactly the imbalance the paper's
    dynamic load balancer targets (Fig. 9).
    """
    pieces = []
    produced = 0
    while produced < nbytes:
        p = (
            f"{rng.integers(10**6)} | {rng.integers(10**4)}."
            f"{rng.integers(100)} ({rng.integers(10**3)}) ="
        )
        pieces.append(p)
        produced += len(p) + 1
    return " ".join(pieces)


def _trec_fields(
    model: ThemeModel,
    themes: list[int],
    rng: np.random.Generator,
    max_body_tokens: int = 20_000,
    markup_heavy: bool | None = None,
) -> dict:
    # Pareto-tailed body length: most pages small, few huge
    body_len = int(
        np.clip((rng.pareto(1.3) + 1.0) * 80, 20, max_body_tokens)
    )
    if markup_heavy is None:
        markup_heavy = rng.random() < 0.35
    if markup_heavy:
        # tables/forms: mostly markup bytes, few indexable terms
        soup = _markup_soup(rng, body_len * 5)
        body_tokens = model.sample_tokens(max(5, body_len // 4), themes)
        body_tokens.append(soup)
    else:
        body_tokens = model.sample_tokens(body_len, themes)
    # web boilerplate interleaved through the page
    n_boiler = max(3, body_len // 40)
    boiler = [
        _BOILERPLATE[int(rng.integers(len(_BOILERPLATE)))]
        for _ in range(n_boiler)
    ]
    # crawl noise: rare quasi-unique tokens (session ids, file names)
    n_noise = int(rng.integers(0, max(2, body_len // 200) + 1))
    noise = [
        f"x{rng.integers(10**8):08d}" for _ in range(n_noise)
    ]
    body = " ".join(body_tokens + boiler + noise)
    host = (
        f"www.{_TLD_WORDS[int(rng.integers(len(_TLD_WORDS)))]}"
        f"{rng.integers(1000)}.gov"
    )
    title_len = int(rng.integers(3, 12))
    return {
        "url": f"http://{host}/page{rng.integers(10**6)}.html",
        "title": " ".join(model.sample_tokens(title_len, themes)),
        "body": body,
    }


def generate_trec(
    target_bytes: int,
    seed: int = 0,
    represented_bytes: float | None = None,
    n_themes: int = 16,
    vocab_size: int = 16_000,
    max_body_tokens: int = 20_000,
    facets=None,
    n_docs: int | None = None,
) -> Corpus:
    """Generate a GOV2-like corpus of roughly ``target_bytes``.

    ``max_body_tokens`` clips the Pareto tail of page sizes; lower it
    to study load balancing without single-page-dominated partitions.
    Pass a :class:`repro.facets.FacetSpec` as ``facets`` to stamp the
    corpus with time/source fields; ``None`` (default) leaves output
    byte-identical to earlier versions.
    """
    model = ThemeModel(
        ThemeModelConfig(
            vocab_size=vocab_size,
            n_themes=n_themes,
            theme_strength=0.35,  # noisier than PubMed
            two_theme_prob=0.35,
            zipf_s=1.02,
        ),
        seed=seed,
        affixes=GOVWEB_AFFIXES,
    )
    # A crawl visits site sections in order, so markup-heavy pages
    # (tables, forms, numeric reports) come in *runs*: a sticky
    # two-state Markov chain reproduces the spatially correlated
    # token-density skew that byte-balanced contiguous partitions
    # inherit -- the inversion-load imbalance of the paper's Fig. 9.
    state = {"markup": False}

    def builder(m, t, r):
        if r.random() < 0.04:  # expected run length ~25 pages
            state["markup"] = not state["markup"]
        return _trec_fields(
            m,
            t,
            r,
            max_body_tokens=max_body_tokens,
            markup_heavy=state["markup"],
        )

    corpus = generate_corpus(
        name="trec-gov2-synthetic",
        target_bytes=target_bytes,
        field_builder=builder,
        model=model,
        represented_bytes=represented_bytes,
        n_docs=n_docs,
    )
    if facets is not None:
        from repro.facets.stamp import stamp_corpus

        stamp_corpus(corpus, facets)
    return corpus
