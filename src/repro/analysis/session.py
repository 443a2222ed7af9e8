"""Interactive analysis over the engine's products.

The paper's conclusion names "the interactions associated with massive
datasets within a visual analytics environment" as the next frontier.
This module implements that layer over an :class:`EngineResult`: the
spatial and semantic queries an analyst issues against a ThemeView --
probing a region of the landscape, finding documents similar to one
being read, summarising a cluster, ranking documents against query
terms, and running tf·icf term search over an attached postings index.

All queries are vectorized over the persisted signatures/coordinates,
so they run interactively even for large collections.

Scoring kernels live at module level and are **shared with the serving
layer** (:mod:`repro.serve.query`): a shard executes exactly these
functions over its slice of the document rows, and every per-document
float is computed row-locally (or accumulated in query-term order), so
shard-parallel answers are bit-identical to this single-result path.
Ordering is always (score, global document row) with a *stable* sort,
never an unstable partial sort, so top-k results do not depend on how
the rows were split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.engine.results import EngineResult
from repro.index.termindex import (
    TermPostings,
    accumulate_tficf,
    icf_weights,
)


# ----------------------------------------------------------------------
# scoring kernels (shared with repro.serve.query)
# ----------------------------------------------------------------------
def unit_rows(sigs: np.ndarray) -> np.ndarray:
    """L2-normalize signature rows (null-safe).

    Each row is normalized independently, so normalizing a shard's
    slice yields bit-identical rows to normalizing the full matrix.
    """
    norms = np.linalg.norm(sigs, axis=1, keepdims=True)
    return np.divide(sigs, np.where(norms > 0, norms, 1.0))


def topk_desc(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest scores, ties broken by index.

    A stable sort on descending score: the canonical result order of
    every ranked query, identical across shard layouts (the merge key
    is (-score, global row)).
    """
    return np.argsort(-scores, kind="stable")[:k]


def topk_asc(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` smallest scores, ties broken by index."""
    return np.argsort(scores, kind="stable")[:k]


def cosine_scores(unit: np.ndarray, unit_query: np.ndarray) -> np.ndarray:
    """Cosine similarity of each (unit) row against a unit query.

    Deliberately an elementwise multiply + per-row ``np.sum`` rather
    than a BLAS matvec: gemv kernels switch accumulation strategy with
    the row count, which perturbs last-ulp results when the matrix is
    split across shards.  The per-row pairwise reduction depends only
    on the row length, so shard slices score bit-identically to the
    full matrix.
    """
    return np.sum(unit * unit_query, axis=1)


def pseudo_signature(
    association: np.ndarray, term_rows: list[int]
) -> Optional[np.ndarray]:
    """Unit pseudo-signature of a bag of known query terms.

    The association-matrix rows of the query terms are combined and
    L1-normalized exactly the way a document signature is built; the
    result is then L2-normalized for cosine scoring.  ``None`` when the
    combination has no mass.
    """
    if not term_rows:
        return None
    sig = association[term_rows].sum(axis=0)
    total = sig.sum()
    if total <= 0:
        return None
    sig = sig / total
    return sig / (np.linalg.norm(sig) or 1.0)


def top_positive_terms(
    weights: np.ndarray, names: list[str], n_terms: int
) -> list[str]:
    """The ``n_terms`` strongest strictly-positive dimensions, stably
    ordered by (weight desc, dimension asc)."""
    order = np.argsort(-weights, kind="stable")[:n_terms]
    return [names[j] for j in order if weights[j] > 0]


def centroid_distances(
    sigs: np.ndarray, centroid: np.ndarray
) -> np.ndarray:
    """Squared distance of each signature row to one centroid."""
    return np.sum((sigs - centroid) ** 2, axis=1)


def point_distances(coords: np.ndarray, x: float, y: float) -> np.ndarray:
    """Squared 2-D distance of each document to a landscape point."""
    point = np.array([x, y], dtype=np.float64)
    return np.sum((coords[:, :2] - point) ** 2, axis=1)


@dataclass(frozen=True)
class DocumentHit:
    """One document returned by a query, with its relevance score."""

    doc_id: int
    score: float
    cluster: int


@dataclass(frozen=True)
class ClusterSummary:
    """Descriptive statistics of one thematic grouping."""

    cluster: int
    size: int
    top_terms: list[str]
    representative_docs: list[int]
    centroid_norm: float


class AnalysisSession:
    """Query layer over one engine run's results.

    ``postings`` optionally attaches a major-term inverted index (see
    :func:`repro.index.termindex.build_term_postings`), enabling
    :meth:`term_search`.
    """

    def __init__(
        self,
        result: EngineResult,
        postings: Optional[TermPostings] = None,
    ):
        self.result = result
        self._sigs = result.signatures
        self._coords = result.coords
        self._assignments = result.assignments
        self._doc_ids = result.doc_ids
        # L2-normalized signatures for cosine similarity (null-safe)
        self._unit = unit_rows(self._sigs)
        self._term_row = {
            t.term: i for i, t in enumerate(result.major_terms)
        }
        self._postings: Optional[TermPostings] = None
        self._icf: Optional[np.ndarray] = None
        if postings is not None:
            self.attach_postings(postings)

    def attach_postings(self, postings: TermPostings) -> None:
        """Attach a term->document index for :meth:`term_search`."""
        if postings.n_docs != len(self._doc_ids):
            raise ValueError(
                f"postings cover {postings.n_docs} documents but the "
                f"result has {len(self._doc_ids)}"
            )
        self._postings = postings
        self._icf = icf_weights(
            np.array([t.df for t in self.result.major_terms]),
            self.result.n_docs,
        )

    def _hits(self, idx: np.ndarray, scores: np.ndarray) -> list[DocumentHit]:
        return [
            DocumentHit(
                doc_id=int(self._doc_ids[i]),
                score=float(scores[i]),
                cluster=int(self._assignments[i]),
            )
            for i in idx
        ]

    # ------------------------------------------------------------------
    # spatial queries (ThemeView interactions)
    # ------------------------------------------------------------------
    def nearest_documents(self, x: float, y: float, k: int = 10) -> list[DocumentHit]:
        """The ``k`` documents closest to a point of the landscape."""
        k = min(max(1, k), len(self._doc_ids))
        d2 = point_distances(self._coords, x, y)
        idx = topk_asc(d2, k)
        return self._hits(idx, -np.sqrt(d2))

    def region_terms(
        self, x: float, y: float, radius: float, n_terms: int = 6
    ) -> list[str]:
        """Dominant topic terms of the documents inside a circle.

        This is the "what is this mountain about?" interaction: the
        mean signature of the region's documents names its strongest
        topic dimensions.
        """
        d2 = point_distances(self._coords, x, y)
        mask = d2 <= radius * radius
        if not mask.any():
            return []
        mean_sig = self._sigs[mask].mean(axis=0)
        return top_positive_terms(
            mean_sig, self.result.topic_term_strings, n_terms
        )

    # ------------------------------------------------------------------
    # semantic queries (signature space)
    # ------------------------------------------------------------------
    def _row_of_doc(self, doc_id: int) -> int:
        rows = np.flatnonzero(self._doc_ids == doc_id)
        if rows.size == 0:
            raise KeyError(f"unknown doc_id {doc_id}")
        return int(rows[0])

    def similar_documents(
        self, doc_id: int, k: int = 10, include_self: bool = False
    ) -> list[DocumentHit]:
        """Documents most similar (cosine over signatures) to one doc."""
        row = self._row_of_doc(doc_id)
        sims = cosine_scores(self._unit, self._unit[row])
        if not include_self:
            sims[row] = -np.inf
        k = min(max(1, k), len(sims) - (0 if include_self else 1))
        idx = topk_desc(sims, k)
        return self._hits(idx, sims)

    def query(self, terms: list[str], k: int = 10) -> list[DocumentHit]:
        """Rank documents against a bag of query terms.

        The query is turned into a pseudo-signature exactly the way a
        document would be: the association-matrix rows of the known
        query terms are combined and L1-normalized.  Unknown terms
        (outside the major-term model) are ignored; an empty overlap
        returns no hits.
        """
        rows = [self._term_row[t] for t in terms if t in self._term_row]
        unit = pseudo_signature(self.result.association, rows)
        if unit is None:
            return []
        sims = cosine_scores(self._unit, unit)
        k = min(max(1, k), len(sims))
        idx = topk_desc(sims, k)
        return self._hits(idx, sims)

    def term_search(self, terms: list[str], k: int = 10) -> list[DocumentHit]:
        """Ranked term search: tf·icf over the major-term postings.

        Each document scores the sum over matching query terms of its
        term frequency times the term's inverse collection frequency;
        only documents containing at least one query term are returned.
        Requires an attached postings index (see
        :meth:`attach_postings`).
        """
        if self._postings is None or self._icf is None:
            raise ValueError(
                "term_search needs a postings index; build one with "
                "repro.index.termindex.build_term_postings and attach it"
            )
        rows = [self._term_row[t] for t in terms if t in self._term_row]
        if not rows:
            return []
        scores = np.zeros(len(self._doc_ids), dtype=np.float64)
        accumulate_tficf(self._postings, rows, self._icf, scores)
        k = min(max(1, k), len(scores))
        idx = topk_desc(scores, k)
        idx = idx[scores[idx] > 0]
        return self._hits(idx, scores)

    # ------------------------------------------------------------------
    # cluster-level interactions
    # ------------------------------------------------------------------
    def cluster_summary(
        self, cluster: int, n_terms: int = 6, n_docs: int = 5
    ) -> ClusterSummary:
        """Size, labels and representative documents of one cluster."""
        kmax = self.result.centroids.shape[0]
        if not 0 <= cluster < kmax:
            raise KeyError(f"cluster {cluster} out of range [0, {kmax})")
        centroid = self.result.centroids[cluster]
        members = np.flatnonzero(self._assignments == cluster)
        top_terms = top_positive_terms(
            centroid, self.result.topic_term_strings, n_terms
        )
        reps: list[int] = []
        if members.size:
            d2 = centroid_distances(self._sigs[members], centroid)
            take = min(n_docs, members.size)
            best = members[topk_asc(d2, take)]
            reps = [int(self._doc_ids[i]) for i in best]
        return ClusterSummary(
            cluster=cluster,
            size=int(members.size),
            top_terms=top_terms,
            representative_docs=reps,
            centroid_norm=float(np.linalg.norm(centroid)),
        )

    def describe_selection(
        self, doc_ids: list[int], n_terms: int = 6
    ) -> list[str]:
        """Discriminating topic terms of a brushed document selection.

        The analyst lassos a set of documents on the landscape and asks
        what distinguishes them: we return the topic dimensions where
        the selection's mean signature most exceeds the collection's
        mean (not merely its strongest dimensions, which may be
        collection-wide commonplaces).
        """
        rows = [self._row_of_doc(d) for d in doc_ids]
        if not rows:
            return []
        sel_mean = self._sigs[rows].mean(axis=0)
        all_mean = self._sigs.mean(axis=0)
        excess = sel_mean - all_mean
        return top_positive_terms(
            excess, self.result.topic_term_strings, n_terms
        )

    def outliers(self, k: int = 10) -> list[DocumentHit]:
        """Documents farthest from their cluster centroid.

        These are the weakly-themed documents an analyst may want to
        inspect individually (or the null signatures the adaptive-
        dimensionality remedy targets).
        """
        cents = self.result.centroids[self._assignments]
        d2 = np.sum((self._sigs - cents) ** 2, axis=1)
        k = min(max(1, k), len(d2))
        idx = topk_desc(d2, k)
        return self._hits(idx, np.sqrt(d2))
