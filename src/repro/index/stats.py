"""Global term statistics (paper §3.3, "Global term statistics").

After inverted-file indexing, each term owner holds the complete
term-to-document postings for its vocabulary block; document frequency
(df) and collection frequency (cf) follow directly.  In the parallel
engine these land in global arrays (one row per dense term ID) so any
process can consult them during signature generation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class TermStats:
    """df / cf arrays over a contiguous dense-gid range ``[lo, hi)``."""

    gid_lo: int
    gid_hi: int
    df: np.ndarray  # documents containing the term
    cf: np.ndarray  # total occurrences of the term

    @property
    def nterms(self) -> int:
        return self.gid_hi - self.gid_lo


def stats_from_doc_postings(
    gids: np.ndarray, counts: np.ndarray, gid_lo: int, gid_hi: int
) -> TermStats:
    """Compute df/cf for terms in ``[gid_lo, gid_hi)`` from postings.

    ``gids`` and ``counts`` are the term and tf columns of term-to-
    document postings with one row per (term, doc) pair, in any order
    and covering at least the gid range.
    """
    n = gid_hi - gid_lo
    if n < 0:
        raise ValueError(f"bad gid range [{gid_lo}, {gid_hi})")
    df = np.zeros(n, dtype=np.int64)
    cf = np.zeros(n, dtype=np.int64)
    if gids.size and n:
        mask = (gids >= gid_lo) & (gids < gid_hi)
        g = gids[mask] - gid_lo
        df = np.bincount(g, minlength=n).astype(np.int64)
        cf = np.bincount(
            g, weights=counts[mask], minlength=n
        ).astype(np.int64)
    return TermStats(gid_lo=gid_lo, gid_hi=gid_hi, df=df, cf=cf)
