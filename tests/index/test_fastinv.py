"""FAST-INV inversion tests: reference loop, vectorized path, oracle."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index import Postings, invert_bruteforce, invert_chunk
from repro.index.fastinv import _fastinv_order


def _postings_to_dict(p: Postings) -> dict:
    return {
        (int(g), int(k)): int(c)
        for g, k, c in zip(p.gids, p.keys, p.counts)
    }


def _stream(tokens_by_doc):
    """Build (gids, docs) streams from per-document gid lists."""
    g, d = [], []
    for doc, toks in enumerate(tokens_by_doc):
        g.extend(toks)
        d.extend([doc] * len(toks))
    return np.array(g, dtype=np.int64), np.array(d, dtype=np.int64)


def test_small_example():
    # doc0: [2, 0, 2]; doc1: [0, 0]
    g, d = _stream([[2, 0, 2], [0, 0]])
    t2d = invert_chunk(g, d)
    assert _postings_to_dict(t2d) == {
        (2, 0): 2,
        (0, 0): 1,
        (0, 1): 2,
    }
    # sorted by (gid, doc)
    assert list(zip(t2d.gids, t2d.keys)) == [(0, 0), (0, 1), (2, 0)]


def test_matches_bruteforce_oracle():
    rng = np.random.default_rng(0)
    g = rng.integers(0, 30, size=500).astype(np.int64)
    d = np.sort(rng.integers(0, 20, size=500)).astype(np.int64)
    assert _postings_to_dict(invert_chunk(g, d)) == invert_bruteforce(g, d)


def test_reference_loop_equals_vectorized():
    rng = np.random.default_rng(1)
    g = rng.integers(0, 50, size=400).astype(np.int64)
    np.testing.assert_array_equal(
        _fastinv_order(g), np.argsort(g, kind="stable")
    )


def test_empty_input():
    z = np.empty(0, dtype=np.int64)
    assert len(invert_chunk(z, z.copy())) == 0


@settings(max_examples=80, deadline=None)
@given(
    data=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=15),  # gid
            st.integers(min_value=0, max_value=8),  # doc
        ),
        min_size=0,
        max_size=150,
    )
)
def test_property_inversion_matches_oracle(data):
    """Any token stream (docs grouped) inverts to oracle counts."""
    # group by doc to satisfy the contiguity precondition
    data = sorted(data, key=lambda t: t[1])
    g = np.array([t[0] for t in data], dtype=np.int64)
    d = np.array([t[1] for t in data], dtype=np.int64)
    t2d = invert_chunk(g, d)
    assert _postings_to_dict(t2d) == invert_bruteforce(g, d)
    # df/cf consistency: sum of counts equals token count
    assert t2d.counts.sum() == g.size
