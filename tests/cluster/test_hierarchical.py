"""Agglomerative clustering extension tests."""

import numpy as np
import pytest

from repro.cluster import agglomerative


def _three_groups():
    return np.array(
        [
            [0.0, 0.0],
            [0.1, 0.0],
            [10.0, 10.0],
            [10.1, 10.0],
            [-10.0, 5.0],
        ]
    )


@pytest.mark.parametrize("linkage", ["single", "complete", "average"])
def test_cut_k_recovers_groups(linkage):
    pts = _three_groups()
    dend = agglomerative(pts, linkage=linkage)
    labels = dend.cut_k(3)
    assert labels[0] == labels[1]
    assert labels[2] == labels[3]
    assert len({labels[0], labels[2], labels[4]}) == 3


def test_cut_k_extremes():
    pts = _three_groups()
    dend = agglomerative(pts)
    assert len(set(dend.cut_k(1).tolist())) == 1
    assert len(set(dend.cut_k(5).tolist())) == 5


def test_cut_k_out_of_range():
    dend = agglomerative(_three_groups())
    with pytest.raises(ValueError):
        dend.cut_k(0)
    with pytest.raises(ValueError):
        dend.cut_k(6)


def test_heights_nondecreasing_single_linkage():
    rng = np.random.default_rng(0)
    pts = rng.random((12, 3))
    dend = agglomerative(pts, linkage="single")
    assert np.all(np.diff(dend.heights) >= -1e-12)


def test_single_vs_complete_differ_on_chains():
    """A chain of points: single-link merges it, complete-link splits."""
    pts = np.array([[float(i), 0.0] for i in range(6)])
    single = agglomerative(pts, linkage="single").cut_k(2)
    complete = agglomerative(pts, linkage="complete").cut_k(2)
    # single link chains everything and peels one point off last;
    # complete link produces a more balanced split
    assert sorted(np.bincount(single).tolist()) == [1, 5]
    assert sorted(np.bincount(complete).tolist()) == [2, 4]
    assert not np.array_equal(single, complete)


def test_bad_linkage_rejected():
    with pytest.raises(ValueError):
        agglomerative(_three_groups(), linkage="ward")


def test_single_point():
    dend = agglomerative(np.array([[1.0, 2.0]]))
    assert dend.cut_k(1).tolist() == [0]
