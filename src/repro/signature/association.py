"""Association matrix: relating topic terms to major terms.

Paper §3.4 (steps 5-6): an N x M matrix relates the N major terms to
the M topic dimensions, with entries being "the conditional
probabilities of occupance, modified by the independent probability of
occurrence".  We implement the positive excess association

    A[i, j] = max(0,  P(topic_j | major_i) - P(topic_j))

where ``P(topic_j | major_i) = |docs with both| / df(major_i)`` and
``P(topic_j) = df(topic_j) / D``.  The subtraction of the independent
probability zeroes out coincidental co-occurrence, and clipping keeps
signature components non-negative so the L1 normalization of document
vectors is well defined.  A topic term's own row carries the strongest
self-association (``P = 1``), anchoring that dimension.

Each process accumulates co-occurrence counts over its local documents
only; the integer partial matrices are summed with ``MPI_Allreduce``,
making the final matrix bit-identical for every processor count.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

import numpy as np

#: documents per kernel block: larger blocks raise peak RSS, smaller ones
#: pay more per-block Python.  The dense per-block temporaries are one
#: ``BLOCK_DOCS x N`` matrix and a count product of at most
#: :data:`PRODUCT_ENTRIES`: about 2 MB at N = 1 500, growing with N to
#: about 8 MB at the adaptive cap N = 6 400
BLOCK_DOCS = 128

#: float32 entries (1 MB) in one count product: a block's ``N x M``
#: product runs in slices of rows once N * M exceeds it
PRODUCT_ENTRIES = 1 << 18


def major_row_table(major_gids: Sequence[int]) -> np.ndarray:
    """Dense gid -> canonical-row lookup table for the major ranking.

    ``table[g]`` is the rank of gid ``g`` in the canonical
    (score-ordered) major list, or -1 when ``g`` is not a major term.
    The last entry is always -1, so a gid past the largest major gid is
    looked up as ``table[minimum(gid, table.size - 1)]``.
    """
    gids = np.asarray(major_gids, dtype=np.int64)
    if gids.size and gids.min() < 0:
        raise ValueError("major gids must be non-negative")
    size = int(gids.max()) + 2 if gids.size else 1
    table = np.full(size, -1, dtype=np.int64)
    table[gids] = np.arange(gids.size, dtype=np.int64)
    return table


def major_blocks(
    doc_gid_arrays: Sequence[np.ndarray],
    table: np.ndarray,
    doc_weight_arrays: Optional[Sequence[np.ndarray]] = None,
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray, Optional[np.ndarray]]]:
    """Major-term hits of each block of at most :data:`BLOCK_DOCS` docs.

    Yields ``(lo, nb, doc, rows, weights)``: the block covers documents
    ``lo .. lo + nb - 1``; ``doc[k]`` (block-local) and ``rows[k]``
    (canonical major row) locate the k-th hit, in token order within
    each document, and ``weights`` holds the hits' token weights (None
    when ``doc_weight_arrays`` is None).  One table lookup serves the
    whole block's concatenated gid stream.
    """
    last = table.size - 1
    for lo in range(0, len(doc_gid_arrays), BLOCK_DOCS):
        block = doc_gid_arrays[lo : lo + BLOCK_DOCS]
        nb = len(block)
        gids = np.concatenate(block).astype(np.int64, copy=False)
        if gids.size and gids.min() < 0:
            raise ValueError("document gids must be non-negative")
        rows = table[np.minimum(gids, last)]
        hit = rows >= 0
        lengths = [g.size for g in block]
        doc = np.repeat(np.arange(nb, dtype=np.int64), lengths)[hit]
        weights = None
        if doc_weight_arrays is not None:
            weights = np.concatenate(
                doc_weight_arrays[lo : lo + BLOCK_DOCS]
            ).astype(np.float64, copy=False)[hit]
        yield lo, nb, doc, rows[hit], weights


def count_cooccurrences(
    doc_gid_arrays: Sequence[np.ndarray],
    table: np.ndarray,
    n_major: int,
    n_topics: int,
) -> np.ndarray:
    """Count documents containing (major_i, topic_j) pairs.

    Topics are the first ``n_topics`` entries of the major ranking.
    Each block's 0/1 presence matrix ``B`` gives ``B.T @ B[:, :M]``:
    every entry is an integer sum of at most :data:`BLOCK_DOCS` ones,
    exact in float32 under any BLAS summation order, so the counts are
    the same integers however the documents are blocked or
    distributed.  The product runs in slices of rows of at most
    :data:`PRODUCT_ENTRIES` entries, each added into the int64 counts
    in place; the add runs in float64, exact while every count is below
    2**53.  Work per block is ``nb * N * M`` however sparse the
    documents are.  Returns an int64 ``(n_major, n_topics)`` matrix.
    """
    counts = np.zeros((n_major, n_topics), dtype=np.int64)
    step = max(1, PRODUCT_ENTRIES // max(1, n_topics))
    for _, nb, doc, rows, _ in major_blocks(doc_gid_arrays, table):
        if rows.size == 0:
            continue
        presence = np.zeros((nb, n_major), dtype=np.float32)
        presence[doc, rows] = 1.0
        topics = presence[:, :n_topics]
        for lo in range(0, n_major, step):
            part = counts[lo : lo + step]
            np.add(
                part,
                presence[:, lo : lo + step].T @ topics,
                out=part,
                casting="unsafe",
            )
    return counts


def association_matrix(
    counts: np.ndarray,
    df_major: np.ndarray,
    df_topic: np.ndarray,
    n_docs: int,
) -> np.ndarray:
    """Positive excess association from global co-occurrence counts."""
    n_major, n_topics = counts.shape
    if df_major.shape != (n_major,) or df_topic.shape != (n_topics,):
        raise ValueError("df vectors must match the counts shape")
    df_major = np.asarray(df_major, dtype=np.float64)
    cond = counts / np.maximum(df_major[:, None], 1.0)
    indep = np.asarray(df_topic, dtype=np.float64) / max(1, n_docs)
    return np.clip(cond - indep[None, :], 0.0, None)
