"""Association matrix tests."""

import numpy as np
import pytest

from repro.signature import (
    association_matrix,
    count_cooccurrences,
    major_row_table,
)
from tests.signature.oracles import (
    cooccurrence_counts,
    doc_presence_indices,
    major_lookup_arrays,
)


def identity_counts(docs, n_major, n_topics):
    """Block-kernel counts of docs given directly as major rows."""
    table = major_row_table(np.arange(n_major))
    return count_cooccurrences(docs, table, n_major, n_topics)


def test_doc_presence_maps_gids_to_canonical_ranks():
    # canonical major ranking: gids [9, 2, 7] at ranks [0, 1, 2]
    sorted_gids, positions = major_lookup_arrays([9, 2, 7])
    doc = np.array([7, 2, 7, 100], dtype=np.int64)
    idx = doc_presence_indices(doc, sorted_gids, positions)
    np.testing.assert_array_equal(idx, [1, 2])  # ranks of gid2, gid7
    table = major_row_table([9, 2, 7])
    rows = table[np.minimum(doc, table.size - 1)]
    np.testing.assert_array_equal(rows, [2, 1, 2, -1])


def test_doc_presence_empty_cases():
    sorted_gids, positions = major_lookup_arrays([3])
    assert doc_presence_indices(
        np.empty(0, dtype=np.int64), sorted_gids, positions
    ).size == 0
    assert doc_presence_indices(
        np.array([3]), *major_lookup_arrays([])
    ).size == 0


def test_cooccurrence_counts_pairs():
    # 3 majors, 2 topics (= majors 0, 1)
    docs = [
        np.array([0, 1]),  # doc contains majors 0,1 -> topics 0,1
        np.array([1, 2]),  # majors 1,2 -> topic 1
        np.array([2]),  # major 2, no topic
    ]
    c = cooccurrence_counts(docs, 3, 2)
    np.testing.assert_array_equal(identity_counts(docs, 3, 2), c)
    expected = np.array(
        [
            [1, 1],  # major 0 with topic 0 (doc0), topic 1 (doc0)
            [1, 2],  # major 1 with topic 0 (doc0), topic 1 (doc0, doc1)
            [0, 1],  # major 2 with topic 1 (doc1)
        ]
    )
    np.testing.assert_array_equal(c, expected)


def test_association_self_anchoring():
    """A topic term's own row should peak on its own dimension."""
    # topic 0 appears in docs {0,1}; major 2 appears in {0}
    docs = [np.array([0, 2]), np.array([0]), np.array([1])]
    c = identity_counts(docs, 3, 2)
    df_major = np.array([2, 1, 1])
    df_topic = np.array([2, 1])
    a = association_matrix(c, df_major, df_topic, n_docs=3)
    assert a[0, 0] == pytest.approx(1.0 - 2 / 3)  # P(t0|t0)=1 minus P(t0)
    assert a[0, 0] == a[:, 0].max()


def test_association_independent_terms_zero():
    """Co-occurrence at the independence rate clips to ~0."""
    # major 1 occurs in half the docs; topic 0 in half; together in 1/4
    n = 100
    c = np.array([[50], [25]])
    df_major = np.array([50, 50])
    df_topic = np.array([50])
    a = association_matrix(c, df_major, df_topic, n_docs=n)
    assert a[1, 0] == 0.0  # P(t0|t1)=0.5 == P(t0) -> excess 0
    assert a[0, 0] == 0.5


def test_association_nonnegative_and_bounded():
    rng = np.random.default_rng(0)
    n_major, n_topics, n_docs = 20, 5, 200
    df_major = rng.integers(1, n_docs, size=n_major)
    df_topic = df_major[:n_topics]
    c = np.minimum(
        rng.integers(0, n_docs, size=(n_major, n_topics)),
        df_major[:, None],
    )
    a = association_matrix(c, df_major, df_topic, n_docs)
    assert np.all(a >= 0)
    assert np.all(a <= 1.0 + 1e-12)


def test_association_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        association_matrix(
            np.zeros((3, 2)), np.zeros(4), np.zeros(2), 10
        )
