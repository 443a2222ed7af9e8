"""Incremental projection of new documents into an existing model.

The paper's motivating data streams -- newswire feeds, message
traffic, crawls -- grow continuously, but the engine's expensive
stages (vocabulary, statistics, topicality, association matrix,
clustering, PCA) need not be recomputed per arrival: a new record can
be *projected* into the existing model exactly the way the original
documents were:

1. scan the record onto the frozen model's major-term rows
   (:func:`repro.index.termindex.scan_major_rows`),
2. combine the association-matrix rows (frequency-weighted, L1
   normalized) into a signature,
3. assign to the nearest existing centroid,
4. project with the fitted centroid-PCA transform.

Steps 2-4 are :func:`project_major_rows`, so live ingest projects and
inverts the rows of one scan.

Documents whose vocabulary the model has never seen become null
signatures, and a rising null rate is the natural trigger for a full
re-run (the batch analogue of the §4.2 adaptive-dimensionality
remedy).  :func:`refresh_recommended` encodes that policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.cluster.kmeans import assign_points
from repro.index.termindex import scan_major_rows
from repro.signature.association import major_row_table
from repro.signature.docvec import compute_signatures
from repro.text.documents import Document
from repro.text.tokenizer import TokenizerConfig

from .results import EngineResult


@dataclass
class ProjectedBatch:
    """New documents placed into an existing model's landscape."""

    doc_ids: np.ndarray
    signatures: np.ndarray
    coords: np.ndarray
    assignments: np.ndarray
    null_mask: np.ndarray

    @property
    def null_fraction(self) -> float:
        if self.null_mask.size == 0:
            return 0.0
        return float(self.null_mask.mean())


def project_new_documents(
    result: EngineResult,
    documents: Sequence[Document],
    tokenizer_config: TokenizerConfig | None = None,
) -> ProjectedBatch:
    """Place ``documents`` into ``result``'s signature space and view.

    Requires the result to carry its fitted projection (results from
    this package's engines always do).
    """
    return project_major_rows(
        result,
        [d.doc_id for d in documents],
        scan_major_rows(documents, result, tokenizer_config),
    )


def project_major_rows(
    result: EngineResult,
    doc_ids: Sequence[int],
    doc_rows: list[np.ndarray],
) -> ProjectedBatch:
    """Place scanned documents (``doc_rows`` from ``scan_major_rows``)."""
    if result.projection is None:
        raise ValueError(
            "result carries no fitted projection; re-run the engine"
        )
    # rows are already dense 0..N-1: the gid lookup is the identity
    table = major_row_table(np.arange(len(result.major_terms)))
    batch = compute_signatures(doc_rows, table, result.association)
    sigs = batch.signatures
    labels, _ = assign_points(sigs, result.centroids)
    coords = result.projection.project(sigs)
    return ProjectedBatch(
        doc_ids=np.array(doc_ids, dtype=np.int64),
        signatures=sigs,
        coords=coords,
        assignments=labels,
        null_mask=batch.null_mask,
    )


def refresh_recommended(
    batch: ProjectedBatch,
    max_null_fraction: float = 0.25,
    min_docs: int = 1,
) -> bool:
    """Should the full engine re-run on the grown collection?

    True when the incoming stream's vocabulary has drifted far enough
    from the frozen model that more than ``max_null_fraction`` of a
    batch of at least ``min_docs`` new documents land as null
    signatures (live ingest sets both from
    :class:`~repro.ingest.live.IngestConfig`).
    """
    if batch.null_mask.size < min_docs:
        return False
    return batch.null_fraction > max_null_fraction
