"""Per-document reference kernels for the association matrix and DocVecs.

These are the engine's former per-document loops, kept verbatim as
oracles: one ``searchsorted`` lookup, one ``unique`` and one ``np.ix_``
add per document for the co-occurrence counts, and one
``searchsorted`` + ``bincount`` + gemv per document for the
signatures.  The block kernels in :mod:`repro.signature` must equal
them byte for byte.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.signature import SignatureBatch


def major_lookup_arrays(
    major_gids: list[int],
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted-gid lookup arrays for the canonical major ranking.

    Returns ``(major_gids_sorted, major_positions)`` such that
    ``major_positions[k]`` is the canonical rank of the k-th smallest
    gid.
    """
    gids = np.asarray(major_gids, dtype=np.int64)
    order = np.argsort(gids)
    # sorted[k] == gids[order[k]], whose canonical rank is order[k]
    return gids[order], order.astype(np.int64)


def doc_presence_indices(
    doc_gids: np.ndarray,
    major_gids_sorted: np.ndarray,
    major_positions: np.ndarray,
) -> np.ndarray:
    """Indices (into the canonical major ranking) present in a document."""
    if doc_gids.size == 0 or major_gids_sorted.size == 0:
        return np.empty(0, dtype=np.int64)
    pos = np.searchsorted(major_gids_sorted, doc_gids)
    pos = np.clip(pos, 0, major_gids_sorted.size - 1)
    hit = major_gids_sorted[pos] == doc_gids
    return np.unique(major_positions[pos[hit]])


def cooccurrence_counts(
    docs_major_indices: Iterable[np.ndarray],
    n_major: int,
    n_topics: int,
) -> np.ndarray:
    """Count documents containing (major_i, topic_j) pairs, doc by doc."""
    counts = np.zeros((n_major, n_topics), dtype=np.int64)
    for mi in docs_major_indices:
        if mi.size == 0:
            continue
        ti = mi[mi < n_topics]
        if ti.size == 0:
            continue
        counts[np.ix_(mi, ti)] += 1
    return counts


def per_doc_signatures(
    doc_gid_arrays: list[np.ndarray],
    major_gids_sorted: np.ndarray,
    major_positions: np.ndarray,
    association: np.ndarray,
) -> SignatureBatch:
    """L1-normalized frequency-weighted signature, one document at a time."""
    n_major, n_topics = association.shape
    ndocs = len(doc_gid_arrays)
    out = np.zeros((ndocs, n_topics), dtype=np.float64)
    null_mask = np.zeros(ndocs, dtype=bool)
    for i, gids in enumerate(doc_gid_arrays):
        if gids.size and major_gids_sorted.size:
            pos = np.searchsorted(major_gids_sorted, gids)
            pos = np.clip(pos, 0, major_gids_sorted.size - 1)
            hit = major_gids_sorted[pos] == gids
            rows = major_positions[pos[hit]]
            if rows.size:
                tf = np.bincount(rows, minlength=n_major).astype(np.float64)
                sig = tf @ association
                norm = sig.sum()
                if norm > 0.0:
                    out[i] = sig / norm
                    continue
        null_mask[i] = True
    return SignatureBatch(signatures=out, null_mask=null_mask)
