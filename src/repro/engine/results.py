"""Engine result container."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.project.pca import PCATransform
from repro.signature.topicality import RankedTerm

from .timings import StageTimings


@dataclass
class EngineResult:
    """Everything the text engine produces for one corpus.

    The primary product is ``coords`` -- the per-document 2-D (or 3-D)
    view coordinates the ThemeView visualization consumes; signatures
    and statistics are the "valuable intermediate products" the paper
    persists.
    """

    corpus_name: str
    nprocs: int
    n_docs: int
    vocab_size: int

    #: ranked major terms (top-N by topicality), canonical order
    major_terms: list[RankedTerm]
    #: the top-M anchoring topic terms (prefix of ``major_terms``)
    topic_terms: list[RankedTerm]
    #: (N, M) association matrix
    association: np.ndarray

    #: global document ids, ascending
    doc_ids: np.ndarray
    #: (n_docs, projection_dim) view coordinates, doc order
    coords: np.ndarray
    #: (n_docs,) cluster labels, doc order
    assignments: np.ndarray
    #: (k, M) final cluster centroids
    centroids: np.ndarray
    inertia: float
    kmeans_iters: int

    #: fraction of documents with null signatures (after adaptation)
    null_fraction: float
    #: number of times the adaptive-dimensionality loop doubled N
    adapt_rounds: int

    #: (n_docs, M) signatures, doc order
    signatures: np.ndarray
    #: term -> (df, cf) over the whole collection
    term_stats: dict[str, tuple[int, int]]

    #: the fitted centroid-PCA projection (None in legacy results)
    projection: Optional[PCATransform] = None

    timings: Optional[StageTimings] = None
    #: runtime metrics snapshot (schema "repro-metrics/1"; see
    #: :mod:`repro.runtime.metrics`) -- counters, comm matrix inputs,
    #: per-stage busy/blocked seconds (None in legacy results)
    metrics: Optional[dict] = None
    meta: dict = field(default_factory=dict)

    @property
    def n_major(self) -> int:
        return len(self.major_terms)

    @property
    def n_topics(self) -> int:
        return len(self.topic_terms)

    @property
    def major_term_strings(self) -> list[str]:
        return [t.term for t in self.major_terms]

    @property
    def topic_term_strings(self) -> list[str]:
        return [t.term for t in self.topic_terms]

    def topic_summary(self, n_related: int = 5) -> list[dict]:
        """Per-topic view of the model: each anchoring dimension with
        the major terms most associated with it.

        Returns one dict per topic: ``term``, ``score`` (topicality),
        ``df``, and ``related`` -- the strongest other major terms on
        that dimension of the association matrix.
        """
        out: list[dict] = []
        for j, topic in enumerate(self.topic_terms):
            col = self.association[:, j]
            order = np.argsort(-col)
            related = []
            for i in order:
                term = self.major_terms[int(i)].term
                if term == topic.term or col[i] <= 0:
                    continue
                related.append(term)
                if len(related) >= n_related:
                    break
            out.append(
                {
                    "term": topic.term,
                    "score": topic.score,
                    "df": topic.df,
                    "related": related,
                }
            )
        return out

    def summary(self) -> str:
        """One-paragraph human-readable description."""
        lines = [
            f"corpus={self.corpus_name} docs={self.n_docs} "
            f"vocab={self.vocab_size} nprocs={self.nprocs}",
            f"major terms N={self.n_major} topics M={self.n_topics} "
            f"(adapted {self.adapt_rounds}x, null={self.null_fraction:.2%})",
            f"kmeans k={self.centroids.shape[0]} iters={self.kmeans_iters} "
            f"inertia={self.inertia:.5g}",
        ]
        if self.timings is not None:
            unit = "virtual s" if self.timings.virtual else "s"
            lines.append(f"wall time: {self.timings.wall_time:.4g} {unit}")
        return "\n".join(lines)
