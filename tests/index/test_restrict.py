"""Parity of the searchsorted ``TermPostings.restrict`` fast path.

The shard partitioner used to mask every posting and ``np.repeat`` a
term-id column to regroup survivors; the current implementation finds
each term's contiguous sub-run with one ``searchsorted`` pair.  The
two must agree array-for-array on any input, and a blocked input must
come back blocked (the block table is a pure function of the restricted
run layout, so re-deriving it is the identity the shard format needs).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.termindex import TermPostings


def _random_postings(
    rng: np.random.Generator, n_docs: int, n_terms: int
) -> TermPostings:
    offsets = [0]
    rows_parts: list[np.ndarray] = []
    tf_parts: list[np.ndarray] = []
    for _ in range(n_terms):
        df = int(rng.integers(0, n_docs + 1))
        rows_parts.append(
            np.sort(
                rng.choice(n_docs, size=df, replace=False)
            ).astype(np.int64)
        )
        tf_parts.append(rng.integers(1, 9, size=df).astype(np.int64))
        offsets.append(offsets[-1] + df)
    return TermPostings(
        n_docs=n_docs,
        offsets=np.asarray(offsets, dtype=np.int64),
        rows=np.concatenate(rows_parts)
        if rows_parts
        else np.empty(0, np.int64),
        tf=np.concatenate(tf_parts)
        if tf_parts
        else np.empty(0, np.int64),
    )


def _restrict_reference(
    p: TermPostings, row_lo: int, row_hi: int
) -> TermPostings:
    """The old implementation: boolean mask + repeated term column."""
    lengths = np.diff(p.offsets)
    term_of = np.repeat(np.arange(p.n_terms, dtype=np.int64), lengths)
    keep = (p.rows >= row_lo) & (p.rows < row_hi)
    counts = np.bincount(term_of[keep], minlength=p.n_terms)
    offsets = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(counts)]
    ).astype(np.int64)
    return TermPostings(
        n_docs=row_hi - row_lo,
        offsets=offsets,
        rows=(p.rows[keep] - row_lo).astype(np.int64),
        tf=p.tf[keep].astype(np.int64),
    )


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_restrict_matches_mask_reference(data):
    seed = data.draw(st.integers(0, 2**31 - 1), label="seed")
    n_docs = data.draw(st.integers(1, 80), label="n_docs")
    n_terms = data.draw(st.integers(0, 10), label="n_terms")
    row_lo = data.draw(st.integers(0, n_docs), label="row_lo")
    row_hi = data.draw(st.integers(row_lo, n_docs), label="row_hi")
    rng = np.random.default_rng(seed)
    p = _random_postings(rng, n_docs, n_terms)
    got = p.restrict(row_lo, row_hi)
    want = _restrict_reference(p, row_lo, row_hi)
    np.testing.assert_array_equal(got.offsets, want.offsets)
    np.testing.assert_array_equal(got.rows, want.rows)
    np.testing.assert_array_equal(got.tf, want.tf)
    assert got.n_docs == row_hi - row_lo
