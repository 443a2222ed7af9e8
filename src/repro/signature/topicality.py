"""Topicality: Bookstein serial-clustering condensation measure.

Paper §3.4: "Topicality is a measure that defines discriminating terms
within a set of documents.  Our approach to compute topicality is based
on Bookstein's serial clustering method" (Bookstein, Klein & Raita,
SIGIR 1992).  Content-bearing words *clump*: their occurrences
concentrate in few documents, while function words scatter randomly.

We use the condensation form of the measure: if a term's ``cf``
occurrences were scattered uniformly at random over ``D`` documents,
the expected number of distinct documents hit is

    E[df] = D * (1 - (1 - 1/D) ** cf)

with variance approximately ``D * q * (1 - q)`` for the per-document
occupancy probability ``q``.  The topicality score is the z-score of
the observed *condensation* ``E[df] - df``: strongly positive for
clumped (content-bearing) terms, near zero for random scatter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_EPS = 1e-12


def condensation_scores(
    df: np.ndarray, cf: np.ndarray, n_docs: int
) -> np.ndarray:
    """Vectorized Bookstein condensation z-scores.

    Terms with ``df == 0`` get ``-inf`` so they never rank.
    """
    if n_docs < 1:
        return np.full(df.shape, -np.inf)
    df = np.asarray(df, dtype=np.float64)
    cf = np.asarray(cf, dtype=np.float64)
    d = float(n_docs)
    # occupancy probability of one document under random scatter
    q = 1.0 - np.power(1.0 - 1.0 / d, cf)
    expected_df = d * q
    var = d * q * (1.0 - q)
    z = (expected_df - df) / np.sqrt(var + _EPS)
    return np.where(df > 0, z, -np.inf)


@dataclass(frozen=True)
class RankedTerm:
    """One candidate major term with the stats later stages need."""

    term: str
    gid: int
    score: float
    df: int
    cf: int

    def sort_key(self) -> tuple[float, str]:
        """Canonical ranking key: score descending, term ascending.

        Breaking ties on the term *string* (never on the gid) keeps the
        ranking identical across processor counts, where gid numbering
        differs.
        """
        return (-self.score, self.term)


def rank_candidates(candidates: list[RankedTerm]) -> list[RankedTerm]:
    """Sort candidates by the canonical (score desc, term asc) order."""
    # decorate-sort-undecorate: plain tuple comparison avoids one
    # Python-level sort_key call per element; the input index keeps
    # the sort stable, matching sorted(key=RankedTerm.sort_key)
    decorated = [
        (-c.score, c.term, i) for i, c in enumerate(candidates)
    ]
    decorated.sort()
    return [candidates[i] for _, _, i in decorated]


def local_candidates(
    terms: list[str],
    gid_lo: int,
    df: np.ndarray,
    cf: np.ndarray,
    n_docs: int,
    min_df: int,
    limit: int,
) -> list[RankedTerm]:
    """A rank's top candidate major terms from its owned stats block.

    ``terms[i]`` corresponds to dense gid ``gid_lo + i``.  Because each
    owner contributes its own top ``limit``, the global top ``limit``
    is contained in the union of the per-owner candidate lists.
    """
    scores = condensation_scores(df, cf, n_docs)
    eligible = np.flatnonzero(df >= min_df)
    if eligible.size == 0:
        return []
    if eligible.size > limit:
        # cheap pre-selection before the exact sort
        part = np.argpartition(-scores[eligible], limit - 1)[:limit]
        eligible = eligible[part]
    cands = [
        RankedTerm(
            term=terms[i],
            gid=gid_lo + int(i),
            score=float(scores[i]),
            df=int(df[i]),
            cf=int(cf[i]),
        )
        for i in eligible
    ]
    return rank_candidates(cands)[:limit]


def select_major_terms(
    candidates: list[RankedTerm], n_major: int, topic_fraction: float
) -> tuple[list[RankedTerm], list[RankedTerm]]:
    """Global selection: top N major terms, top M of those as topics.

    Paper §3.4: from the top N terms by topicality ("major terms") the
    top M (typically 10% of N) become the anchoring dimensions that
    discriminate the topic space.
    """
    ranked = rank_candidates(candidates)
    majors = ranked[: max(0, n_major)]
    if not majors:
        return [], []
    n_topics = max(2, int(round(len(majors) * topic_fraction)))
    n_topics = min(n_topics, len(majors))
    topics = majors[:n_topics]
    return majors, topics
