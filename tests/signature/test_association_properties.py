"""Property-based tests of the association-matrix pipeline."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.signature import association_matrix, major_row_table
from tests.signature.oracles import (
    cooccurrence_counts,
    doc_presence_indices,
    major_lookup_arrays,
)
from tests.signature.test_association import identity_counts


def _brute_cooccurrence(doc_sets, n_major, n_topics):
    c = np.zeros((n_major, n_topics), dtype=np.int64)
    for present in doc_sets:
        for i in present:
            for j in present:
                if j < n_topics:
                    c[i, j] += 1
    return c


@settings(max_examples=100)
@given(
    n_major=st.integers(min_value=1, max_value=12),
    docs=st.lists(
        st.sets(st.integers(min_value=0, max_value=11), max_size=8),
        max_size=25,
    ),
)
def test_cooccurrence_matches_bruteforce(n_major, docs):
    n_topics = max(1, n_major // 2)
    doc_sets = [
        sorted(x for x in d if x < n_major) for d in docs
    ]
    arrays = [np.array(d, dtype=np.int64) for d in doc_sets]
    want = _brute_cooccurrence(doc_sets, n_major, n_topics)
    np.testing.assert_array_equal(
        cooccurrence_counts(arrays, n_major, n_topics), want
    )
    np.testing.assert_array_equal(
        identity_counts(arrays, n_major, n_topics), want
    )


@settings(max_examples=100)
@given(
    docs=st.lists(
        st.sets(st.integers(min_value=0, max_value=9), max_size=6),
        min_size=1,
        max_size=20,
    )
)
def test_diagonal_counts_equal_df(docs):
    """C[j, j] for a topic j equals that term's document frequency."""
    n_major, n_topics = 10, 4
    arrays = [np.array(sorted(d), dtype=np.int64) for d in docs]
    c = identity_counts(arrays, n_major, n_topics)
    for j in range(n_topics):
        df_j = sum(1 for d in docs if j in d)
        assert c[j, j] == df_j


@settings(max_examples=100)
@given(
    docs=st.lists(
        st.sets(st.integers(min_value=0, max_value=7), max_size=6),
        min_size=1,
        max_size=20,
    )
)
def test_association_bounds_hold(docs):
    """0 <= A <= 1 and A[i,j] <= P(j|i) for true counts and dfs."""
    n_major, n_topics = 8, 3
    arrays = [np.array(sorted(d), dtype=np.int64) for d in docs]
    c = identity_counts(arrays, n_major, n_topics)
    df = np.array(
        [sum(1 for d in docs if i in d) for i in range(n_major)],
        dtype=np.int64,
    )
    a = association_matrix(c, df, df[:n_topics], n_docs=len(docs))
    assert np.all(a >= 0.0)
    assert np.all(a <= 1.0 + 1e-12)
    cond = c / np.maximum(df[:, None], 1)
    assert np.all(a <= cond + 1e-12)


@settings(max_examples=100)
@given(
    major_gids=st.lists(
        st.integers(min_value=0, max_value=200),
        min_size=1,
        max_size=15,
        unique=True,
    ),
    doc=st.lists(st.integers(min_value=0, max_value=200), max_size=30),
)
def test_presence_indices_match_set_intersection(major_gids, doc):
    sorted_gids, positions = major_lookup_arrays(major_gids)
    got = doc_presence_indices(
        np.array(doc, dtype=np.int64), sorted_gids, positions
    )
    want = sorted(
        i for i, g in enumerate(major_gids) if g in set(doc)
    )
    assert got.tolist() == want
    table = major_row_table(major_gids)
    rows = table[np.minimum(np.array(doc, dtype=np.int64), table.size - 1)]
    assert sorted(set(rows[rows >= 0].tolist())) == want
