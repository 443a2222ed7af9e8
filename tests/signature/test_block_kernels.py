"""The block kernels equal the per-document oracles, byte for byte.

``count_cooccurrences`` and ``compute_signatures`` process documents in
blocks of :data:`repro.signature.association.BLOCK_DOCS`; the oracles
in :mod:`tests.signature.oracles` are the former per-document loops.
Counts must be the same int64 matrix, signatures the same float64
bytes and the null mask the same booleans, for any blocking.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.signature import (
    compute_signatures,
    count_cooccurrences,
    major_row_table,
)
from repro.signature import association as association_mod
from repro.signature.association import BLOCK_DOCS
from tests.signature.oracles import (
    cooccurrence_counts,
    doc_presence_indices,
    major_lookup_arrays,
    per_doc_signatures,
)


def oracle(docs, major_gids, n_topics, assoc, weights=None):
    sg, pos = major_lookup_arrays(major_gids)
    counts = cooccurrence_counts(
        [doc_presence_indices(g, sg, pos) for g in docs],
        len(major_gids),
        n_topics,
    )
    return counts, per_doc_signatures(docs, sg, pos, assoc, weights)


def blocked(docs, major_gids, n_topics, assoc, weights=None):
    table = major_row_table(major_gids)
    counts = count_cooccurrences(docs, table, len(major_gids), n_topics)
    return counts, compute_signatures(docs, table, assoc, weights)


def assert_identical(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_matches_oracle(docs, major_gids, n_topics, assoc, weights=None):
    want_counts, want = oracle(docs, major_gids, n_topics, assoc, weights)
    got_counts, got = blocked(docs, major_gids, n_topics, assoc, weights)
    assert_identical(got_counts, want_counts)
    assert_identical(got.signatures, want.signatures)
    assert_identical(got.null_mask, want.null_mask)


def random_model(rng, major_gids, n_topics, zero_rows=0.0):
    """Association matrix with some all-zero rows (null-prone docs)."""
    assoc = rng.random((len(major_gids), n_topics))
    assoc[rng.random(len(major_gids)) < zero_rows] = 0.0
    return assoc


@st.composite
def workloads(draw):
    n_major = draw(st.integers(min_value=0, max_value=12))
    major_gids = draw(
        st.lists(
            st.integers(min_value=0, max_value=40),
            min_size=n_major,
            max_size=n_major,
            unique=True,
        )
    )
    n_topics = draw(st.integers(min_value=min(1, n_major), max_value=n_major))
    # gids up to 60 reach past the largest major gid; lists repeat gids
    docs = draw(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=60), max_size=12),
            max_size=12,
        )
    )
    return major_gids, n_topics, docs


@settings(max_examples=200, deadline=None)
@given(
    work=workloads(),
    block=st.integers(min_value=1, max_value=5),
    product=st.integers(min_value=1, max_value=40),
    weighted=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_block_kernels_equal_per_document_oracles(
    work, block, product, weighted, seed
):
    major_gids, n_topics, doc_lists = work
    rng = np.random.default_rng(seed)
    docs = [np.array(d, dtype=np.int64) for d in doc_lists]
    assoc = random_model(rng, major_gids, n_topics, zero_rows=0.3)
    weights = None
    if weighted:
        weights = [rng.random(d.size) * 3.0 for d in docs]
    # small products split the count product into slices of rows
    with mock.patch.object(
        association_mod, "BLOCK_DOCS", block
    ), mock.patch.object(association_mod, "PRODUCT_ENTRIES", product):
        assert_matches_oracle(docs, major_gids, n_topics, assoc, weights)


@pytest.mark.parametrize(
    "n_docs", [0, BLOCK_DOCS - 1, BLOCK_DOCS, BLOCK_DOCS + 1]
)
@pytest.mark.parametrize("weighted", [False, True])
def test_engine_shape_matches_oracle_at_block_edges(n_docs, weighted):
    """N = 1 500, M = 150 as in the engine; mixed null and live docs."""
    rng = np.random.default_rng(n_docs)
    major_gids = rng.choice(6_000, size=1_500, replace=False).tolist()
    docs = [
        rng.integers(0, 8_000, size=rng.integers(0, 120)).astype(np.int64)
        for _ in range(n_docs)
    ]
    weights = None
    if weighted:
        field_weights = np.array([1.0, 3.0, 0.7])
        weights = [field_weights[rng.integers(0, 3, d.size)] for d in docs]
    assoc = random_model(rng, major_gids, 150, zero_rows=0.2)
    assert_matches_oracle(docs, major_gids, 150, assoc, weights)


def test_adaptive_cap_shape_matches_oracle():
    """N = 6 400, M = 640: the count product runs in row slices."""
    rng = np.random.default_rng(64)
    major_gids = rng.choice(20_000, size=6_400, replace=False).tolist()
    docs = [
        rng.integers(0, 24_000, size=rng.integers(0, 200)).astype(np.int64)
        for _ in range(BLOCK_DOCS + 1)
    ]
    assoc = random_model(rng, major_gids, 640, zero_rows=0.2)
    assert_matches_oracle(docs, major_gids, 640, assoc, None)


def test_all_topics_and_empty_documents():
    """M == N, empty docs and docs with no major term in one block."""
    rng = np.random.default_rng(5)
    major_gids = [4, 9, 2]
    docs = [
        np.empty(0, dtype=np.int64),
        np.array([100, 101], dtype=np.int64),
        np.array([9, 9, 2, 4, 9], dtype=np.int64),
        np.array([3], dtype=np.int64),
    ]
    assoc = random_model(rng, major_gids, 3)
    assert_matches_oracle(docs, major_gids, 3, assoc)
    _, batch = blocked(docs, major_gids, 3, assoc)
    assert batch.null_mask.tolist() == [True, True, False, True]


def test_no_majors_makes_every_document_null():
    docs = [np.array([1, 2], dtype=np.int64), np.empty(0, dtype=np.int64)]
    counts, batch = blocked(docs, [], 0, np.zeros((0, 0)))
    assert counts.shape == (0, 0)
    assert batch.signatures.shape == (2, 0)
    assert batch.null_mask.all()


def test_negative_gids_are_rejected():
    table = major_row_table([0, 3])
    docs = [np.array([3, -1], dtype=np.int64)]
    with pytest.raises(ValueError, match="non-negative"):
        count_cooccurrences(docs, table, 2, 1)
    with pytest.raises(ValueError, match="non-negative"):
        compute_signatures(docs, table, np.ones((2, 1)))
    with pytest.raises(ValueError, match="non-negative"):
        major_row_table([2, -3])


def _docs():
    # doc 0 holds a major term, doc 1 none
    return [np.array([4, 4], dtype=np.int64), np.array([8], dtype=np.int64)]


@pytest.mark.parametrize(
    "weights",
    [
        # misaligned weights on the document without a major term
        [np.ones(2), np.ones(3)],
        # more weight arrays than documents
        [np.ones(2), np.ones(1), np.ones(1)],
        # fewer weight arrays than documents
        [np.ones(2)],
    ],
    ids=["misaligned-null-doc", "too-many", "too-few"],
)
def test_bad_weights_raise_value_error(weights):
    table = major_row_table([4])
    with pytest.raises(ValueError, match="weight"):
        compute_signatures(_docs(), table, np.ones((1, 1)), weights)
