"""Seeded feed source: deterministic document-batch arrivals.

A feed stands in for the paper's continuously growing sources (PubMed
updates, newswire dispatches, crawls): it draws fresh documents from
the same seeded theme-model generators as :mod:`repro.datasets`,
renumbers them to continue after an existing collection, slices them
into fixed-size batches, and assigns exponential interarrival gaps
from its own seeded stream.  Feeding a journal twice with the same
config appends byte-identical batch files at identical arrival times.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.datasets import generate_newswire, generate_pubmed, generate_trec
from repro.text.documents import Corpus, Document

_GENERATORS = {
    "pubmed": generate_pubmed,
    "trec": generate_trec,
    "newswire": generate_newswire,
}


@dataclass(frozen=True)
class FeedConfig:
    """Shape of one deterministic feed."""

    dataset: str = "pubmed"
    #: documents per emitted batch
    batch_docs: int = 40
    n_batches: int = 4
    seed: int = 0
    #: first doc_id to assign (continue after the base collection)
    start_doc_id: int = 0
    #: mean of the exponential interarrival gap (virtual seconds)
    mean_interarrival_s: float = 2.0
    #: theme count handed to the dataset generator (keep it equal to
    #: the base corpus's so the vocabulary overlaps the frozen model)
    themes: int = 4
    #: skip this many documents of the seeded stream first; with the
    #: base corpus's seed and its document count, the feed continues
    #: the same source past where the static build stopped
    skip_docs: int = 0
    #: stamp each batch with per-document time/source facets drawn over
    #: this many source regions; 0 (the default) leaves the feed
    #: unstamped and byte-identical to the pre-facet output.  Facet
    #: draws come from the dedicated ``(seed, FACET_STREAM_TAG)``
    #: stream, so turning them on never perturbs document content or
    #: arrival times.
    facet_sources: int = 0

    def __post_init__(self) -> None:
        if self.dataset not in _GENERATORS:
            raise ValueError(
                f"unknown dataset {self.dataset!r}; "
                f"expected one of {sorted(_GENERATORS)}"
            )
        if self.batch_docs < 1:
            raise ValueError("batch_docs must be >= 1")
        if self.n_batches < 1:
            raise ValueError("n_batches must be >= 1")
        if self.mean_interarrival_s <= 0:
            raise ValueError("mean_interarrival_s must be > 0")
        if self.skip_docs < 0:
            raise ValueError("skip_docs must be >= 0")
        if self.facet_sources < 0:
            raise ValueError("facet_sources must be >= 0")


class FeedSource:
    """Materializes one feed's batches and arrival times."""

    def __init__(self, config: FeedConfig):
        self.config = config

    def _documents(self) -> list[Document]:
        cfg = self.config
        needed = cfg.skip_docs + cfg.batch_docs * cfg.n_batches
        # one prefix-stable pass over the seeded stream, stopped at the
        # last needed document
        corpus = _GENERATORS[cfg.dataset](
            0, seed=cfg.seed, n_themes=cfg.themes, n_docs=needed
        )
        fresh = corpus.documents[cfg.skip_docs :]
        return [
            Document(doc_id=cfg.start_doc_id + i, fields=d.fields)
            for i, d in enumerate(fresh)
        ]

    def batches(self) -> list[tuple[Corpus, float]]:
        """``(batch corpus, arrival_s)`` per batch, arrival order."""
        cfg = self.config
        docs = self._documents()
        rng = np.random.default_rng(cfg.seed)
        gaps = rng.exponential(
            cfg.mean_interarrival_s, size=cfg.n_batches
        )
        arrivals = np.cumsum(gaps)
        frng = None
        if cfg.facet_sources:
            from repro.facets.stamp import FACET_STREAM_TAG, facet_meta

            frng = np.random.default_rng((cfg.seed, FACET_STREAM_TAG))
        out: list[tuple[Corpus, float]] = []
        prev_arrival = 0.0
        for i in range(cfg.n_batches):
            lo = i * cfg.batch_docs
            chunk = docs[lo : lo + cfg.batch_docs]
            corpus = Corpus(
                name=f"{cfg.dataset}-feed-{i:04d}",
                documents=chunk,
            )
            arrival = float(arrivals[i])
            if frng is not None:
                # documents in a batch arrived during the gap that
                # preceded its delivery, sorted so row order matches
                # arrival order (the block-pruning friendly layout)
                stamp_s = prev_arrival + np.sort(
                    frng.uniform(0.0, arrival - prev_arrival, len(chunk))
                )
                source = frng.integers(
                    0, cfg.facet_sources, size=len(chunk), dtype=np.int64
                )
                corpus.meta["facets"] = facet_meta(
                    stamp_s, source, cfg.facet_sources
                )
            out.append((corpus, arrival))
            prev_arrival = arrival
        return out
