"""The broker's merge of ranked shard replies vs a brute-force sort.

Shards reply with ``(score, row, doc, cluster)`` columns; ``merge_desc``
selects the global top-k by ``(-score, row)`` over their concatenation
and builds :class:`Candidate`\\ s for the selected hits only.  These
properties pin it to ``sorted(key=(-score, row))[:k]`` over the
per-shard tuples -- ties across shards, empty shards, one shard,
``k`` at or past the total -- and pin the cluster merge, which ships
negated squared distances, to the ascending ``(distance, row)`` order
it replaced.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.query import merge_desc

# a coarse grid, so equal scores land on different shards
_grid = st.integers(0, 12).map(lambda v: v / 4.0)


@st.composite
def sharded_hits(draw, values=_grid):
    """Per-shard hit tuples over distinct global rows, and a ``k``."""
    n_shards = draw(st.integers(1, 5))
    rows = draw(st.lists(st.integers(0, 199), max_size=40, unique=True))
    owner = draw(
        st.lists(
            st.integers(0, n_shards - 1),
            min_size=len(rows),
            max_size=len(rows),
        )
    )
    shards = [[] for _ in range(n_shards)]
    for row, s in zip(rows, owner):
        shards[s].append((draw(values), row, 1000 + row, row % 7))
    k = draw(st.integers(0, len(rows) + 3))
    return shards, k


def _columns(hits):
    score, row, doc, cluster = zip(*hits) if hits else ((),) * 4
    return (
        np.array(score, dtype=np.float64),
        np.array(row, dtype=np.int64),
        np.array(doc, dtype=np.int64),
        np.array(cluster, dtype=np.int64),
    )


def _fields(cands):
    return [(c.score, c.row, c.doc_id, c.cluster) for c in cands]


@settings(max_examples=300, deadline=None)
@given(sharded_hits())
def test_merge_is_the_sorted_concatenation(case):
    shards, k = case
    merged = merge_desc([_columns(h) for h in shards], k)
    flat = [t for hits in shards for t in hits]
    assert _fields(merged) == sorted(flat, key=lambda t: (-t[0], t[1]))[:k]
    for c in merged:
        assert type(c.score) is float
        assert type(c.row) is int
        assert type(c.doc_id) is int
        assert type(c.cluster) is int


@settings(max_examples=300, deadline=None)
@given(sharded_hits(values=st.floats(0.0, 1e6, allow_nan=False)))
def test_cluster_merge_keeps_ascending_distance_order(case):
    shards, k = case
    negated = [[(-d2, r, d, c) for d2, r, d, c in h] for h in shards]
    merged = merge_desc([_columns(h) for h in negated], k)
    flat = [t for hits in shards for t in hits]
    want = sorted(flat, key=lambda t: (t[0], t[1]))[:k]
    assert [(-c.score, c.row, c.doc_id) for c in merged] == [
        (d2, r, d) for d2, r, d, _c in want
    ]


def test_no_shards_merge_to_nothing():
    assert merge_desc([], 5) == []
    assert merge_desc([_columns([]), _columns([])], 5) == []
