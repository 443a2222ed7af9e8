"""Knowledge signature (DocVec) tests."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.signature import compute_signatures, major_row_table
from tests.signature.oracles import major_lookup_arrays


def _setup():
    # majors (canonical order): gids [10, 4, 7]; topics = first 2 dims
    association = np.array(
        [
            [0.5, 0.0],
            [0.2, 0.3],
            [0.0, 1.0],
        ]
    )
    return association, major_row_table([10, 4, 7])


def test_frequency_weighted_l1_normalized():
    a, table = _setup()
    # doc: gid 10 twice, gid 7 once -> 2*row0 + 1*row2 = [1.0, 1.0]
    doc = np.array([10, 7, 10], dtype=np.int64)
    batch = compute_signatures([doc], table, a)
    np.testing.assert_allclose(batch.signatures[0], [0.5, 0.5])
    assert batch.n_null == 0


def test_signatures_sum_to_one_or_zero():
    a, table = _setup()
    rng = np.random.default_rng(0)
    docs = [
        rng.integers(0, 15, size=rng.integers(0, 12)).astype(np.int64)
        for _ in range(50)
    ]
    batch = compute_signatures(docs, table, a)
    sums = batch.signatures.sum(axis=1)
    for s, is_null in zip(sums, batch.null_mask):
        if is_null:
            assert s == 0.0
        else:
            assert abs(s - 1.0) < 1e-12


def test_doc_without_major_terms_is_null():
    a, table = _setup()
    batch = compute_signatures(
        [np.array([1, 2, 3], dtype=np.int64)], table, a
    )
    assert batch.n_null == 1
    assert np.all(batch.signatures[0] == 0.0)


def test_empty_doc_is_null():
    a, table = _setup()
    batch = compute_signatures([np.empty(0, dtype=np.int64)], table, a)
    assert batch.n_null == 1


def test_zero_association_row_can_null():
    """A doc whose only major term has an all-zero row is null."""
    a = np.zeros((1, 2))
    table = major_row_table([5])
    batch = compute_signatures([np.array([5, 5], dtype=np.int64)], table, a)
    assert batch.n_null == 1


def test_batch_shapes():
    a, table = _setup()
    batch = compute_signatures([], table, a)
    assert batch.signatures.shape == (0, 2)
    assert batch.null_mask.shape == (0,)


def test_major_lookup_arrays_roundtrip():
    gids = [42, 3, 17, 99, 8]
    sg, pos = major_lookup_arrays(gids)
    assert list(sg) == sorted(gids)
    # position k of the sorted array maps back to the canonical rank
    for k, g in enumerate(sg):
        assert gids[pos[k]] == g
    # the block kernels' dense table agrees with the sorted lookup
    table = major_row_table(gids)
    assert table.size == max(gids) + 2
    for k, g in enumerate(sg):
        assert table[g] == pos[k]
    assert (table >= 0).sum() == len(gids)


@settings(max_examples=100)
@given(
    major_gids=st.lists(
        st.integers(min_value=0, max_value=100),
        min_size=1,
        max_size=20,
        unique=True,
    ),
    doc=st.lists(st.integers(min_value=0, max_value=100), max_size=40),
)
def test_property_signature_l1_invariant(major_gids, doc):
    rng = np.random.default_rng(7)
    a = rng.random((len(major_gids), 3))
    batch = compute_signatures(
        [np.array(doc, dtype=np.int64)], major_row_table(major_gids), a
    )
    s = batch.signatures[0].sum()
    assert np.all(batch.signatures >= 0)
    assert abs(s - 1.0) < 1e-9 or (s == 0.0 and batch.null_mask[0])
