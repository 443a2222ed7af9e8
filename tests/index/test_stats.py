"""Global term statistics tests."""

import numpy as np
import pytest

from repro.index import stats_from_doc_postings


def _stats(rows, lo, hi):
    """Stats over ``(gid, doc, tf)`` rows, passed as columns."""
    g, _, c = zip(*rows) if rows else ((), (), ())
    return stats_from_doc_postings(
        np.array(g, dtype=np.int64), np.array(c, dtype=np.int64), lo, hi
    )


def test_df_cf_basic():
    # term 0 in docs {0, 1}; term 2 in doc 1 with tf 5
    s = _stats([(0, 0, 1), (0, 1, 2), (2, 1, 5)], 0, 3)
    np.testing.assert_array_equal(s.df, [2, 0, 1])
    np.testing.assert_array_equal(s.cf, [3, 0, 5])
    assert s.nterms == 3


def test_range_restriction():
    s = _stats([(0, 0, 1), (5, 0, 4), (9, 2, 2)], 5, 10)
    assert s.gid_lo == 5 and s.gid_hi == 10
    np.testing.assert_array_equal(s.df, [1, 0, 0, 0, 1])
    np.testing.assert_array_equal(s.cf, [4, 0, 0, 0, 2])


def test_empty_postings():
    s = _stats([], 0, 4)
    assert s.df.sum() == 0 and s.cf.sum() == 0


def test_empty_range():
    s = _stats([(0, 0, 1)], 3, 3)
    assert s.nterms == 0


def test_bad_range_rejected():
    with pytest.raises(ValueError):
        _stats([], 5, 2)


def test_cf_at_least_df():
    rng = np.random.default_rng(0)
    rows = []
    seen = set()
    for _ in range(200):
        g, d = int(rng.integers(20)), int(rng.integers(30))
        if (g, d) in seen:
            continue
        seen.add((g, d))
        rows.append((g, d, int(rng.integers(1, 6))))
    s = _stats(rows, 0, 20)
    assert np.all(s.cf >= s.df)


def test_row_order_does_not_matter():
    # concatenated per-chunk postings are not globally sorted
    rows = [(3, 0, 2), (1, 0, 1), (3, 1, 4), (0, 2, 1), (1, 2, 3)]
    a = _stats(rows, 0, 4)
    b = _stats(rows[::-1], 0, 4)
    np.testing.assert_array_equal(a.df, b.df)
    np.testing.assert_array_equal(a.cf, b.cf)
