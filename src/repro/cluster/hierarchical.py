"""Agglomerative clustering alternatives.

Paper §3.5: "other types of clustering could be applied that would
enable different means to explore the relationships of the data (e.g.,
hierarchical clustering: single-link, complete, and various adaptive
cutting approaches)".  This module implements that extension: plain
agglomerative clustering with single / complete / average linkage and
two cutting strategies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_LINKAGES = ("single", "complete", "average")


@dataclass
class Dendrogram:
    """Merge history: row i merges clusters a, b at the given distance."""

    merges: np.ndarray  # (n-1, 2) int: merged cluster ids
    heights: np.ndarray  # (n-1,) float: merge distances
    n_points: int

    def cut_k(self, k: int) -> np.ndarray:
        """Labels for exactly ``k`` clusters (0..k-1, relabelled densely)."""
        if not 1 <= k <= self.n_points:
            raise ValueError(
                f"k={k} out of range [1, {self.n_points}]"
            )
        return self._labels_after(self.n_points - k)

    def _labels_after(self, n_merges: int) -> np.ndarray:
        parent = np.arange(self.n_points + n_merges)

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i in range(n_merges):
            a, b = self.merges[i]
            new = self.n_points + i
            parent[find(int(a))] = new
            parent[find(int(b))] = new
        roots = {}
        labels = np.empty(self.n_points, dtype=np.int64)
        for p in range(self.n_points):
            r = find(p)
            if r not in roots:
                roots[r] = len(roots)
            labels[p] = roots[r]
        return labels


def agglomerative(points: np.ndarray, linkage: str = "single") -> Dendrogram:
    """O(n^3) agglomerative clustering (reference implementation).

    Suitable for clustering *centroids* or samples, as the paper
    suggests, not the full multi-million-document collection.
    """
    if linkage not in _LINKAGES:
        raise ValueError(f"linkage must be one of {_LINKAGES}")
    n = points.shape[0]
    if n < 1:
        raise ValueError("need at least one point")
    # pairwise distances
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt(np.sum(diff**2, axis=2))
    np.fill_diagonal(dist, np.inf)
    active = list(range(n))
    sizes = {i: 1 for i in range(n)}
    cluster_id = {i: i for i in range(n)}
    next_id = n
    merges = np.zeros((max(0, n - 1), 2), dtype=np.int64)
    heights = np.zeros(max(0, n - 1), dtype=np.float64)
    d = dist.copy()
    for step in range(n - 1):
        # closest active pair (ties: lowest indices, deterministic)
        sub = d[np.ix_(active, active)]
        flat = int(np.argmin(sub))
        ai, bi = divmod(flat, len(active))
        if ai > bi:
            ai, bi = bi, ai
        a, b = active[ai], active[bi]
        merges[step] = (cluster_id[a], cluster_id[b])
        heights[step] = float(d[a, b])
        # merge b into a with the requested linkage update
        for other in active:
            if other in (a, b):
                continue
            if linkage == "single":
                v = min(d[a, other], d[b, other])
            elif linkage == "complete":
                v = max(d[a, other], d[b, other])
            else:  # average
                v = (
                    sizes[a] * d[a, other] + sizes[b] * d[b, other]
                ) / (sizes[a] + sizes[b])
            d[a, other] = d[other, a] = v
        sizes[a] = sizes[a] + sizes[b]
        cluster_id[a] = next_id
        next_id += 1
        active.remove(b)
    return Dendrogram(merges=merges, heights=heights, n_points=n)
