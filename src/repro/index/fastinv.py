"""FAST-INV style inversion of forward-index chunks.

FAST-INV (Fox & Lee, 1991) builds large inverted files without
sorting the whole posting stream: postings are counted per term,
offsets are computed by prefix sum, and postings are then scattered
into their preallocated buckets in one pass.  We implement exactly that
counting structure with NumPy primitives (``bincount`` + ``cumsum`` +
stable scatter), then run-length-encode equal keys to aggregate term
frequencies.

One product: the **term-to-document index** -- postings
``(gid, doc, tf)`` -- which is all global term statistics (df, cf)
need.  Chunks cover disjoint documents, so their postings never share
a ``(gid, doc)`` pair and statistics sum over chunks without a merge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Postings:
    """Columnar term-to-document postings, grouped by gid; within a
    gid, documents keep stream order."""

    gids: np.ndarray
    keys: np.ndarray  # doc id
    counts: np.ndarray

    def __len__(self) -> int:
        return int(self.gids.shape[0])

    @classmethod
    def empty(cls) -> "Postings":
        z = np.empty(0, dtype=np.int64)
        return cls(z, z.copy(), z.copy())


def _fastinv_order(gids: np.ndarray, nterms_hint: int | None = None) -> np.ndarray:
    """Permutation grouping postings by term, FAST-INV style.

    Equivalent to a stable counting sort on the term ID: bucket sizes
    via ``bincount``, bucket starts via ``cumsum``, then a stable
    scatter.  Preserves original (hence document) order within a term.
    Executable documentation and a test oracle: ``invert_chunk`` calls
    ``np.argsort(kind="stable")``, a radix/counting sort on integer
    keys, which is the same permutation and always faster.
    """
    if gids.size == 0:
        return np.empty(0, dtype=np.int64)
    nterms = int(gids.max()) + 1 if nterms_hint is None else nterms_hint
    counts = np.bincount(gids, minlength=nterms)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    order = np.empty(gids.size, dtype=np.int64)
    # stable scatter: positions within each bucket follow input order
    cursor = starts.copy()
    for i, g in enumerate(gids):
        order[cursor[g]] = i
        cursor[g] += 1
    return order


def invert_chunk(gids: np.ndarray, doc_ids: np.ndarray) -> Postings:
    """Invert one forward-index chunk into term-to-document postings.

    ``gids`` and ``doc_ids`` are parallel per-token arrays as produced
    by :meth:`repro.scan.ForwardIndex.chunk_streams`; each document's
    tokens must be contiguous.
    """
    if gids.shape != doc_ids.shape:
        raise ValueError("parallel posting arrays must share a shape")
    if gids.size == 0:
        return Postings.empty()
    order = np.argsort(gids, kind="stable")
    g = gids[order]
    d = doc_ids[order]
    # Within a term, tokens keep stream order (stable sort), and each
    # document's tokens are contiguous in the stream, so equal
    # (gid, doc) pairs are consecutive runs.
    boundary = np.empty(g.size, dtype=bool)
    boundary[0] = True
    boundary[1:] = (g[1:] != g[:-1]) | (d[1:] != d[:-1])
    idx = np.flatnonzero(boundary)
    counts = np.diff(np.concatenate([idx, [g.size]]))
    return Postings(g[idx], d[idx], counts.astype(np.int64))


def invert_bruteforce(gids: np.ndarray, doc_ids: np.ndarray) -> dict:
    """Oracle inversion used by tests: plain dict counting of
    ``(gid, doc) -> tf``."""
    t2d: dict[tuple[int, int], int] = {}
    for g, d in zip(gids, doc_ids):
        t2d[(int(g), int(d))] = t2d.get((int(g), int(d)), 0) + 1
    return t2d
