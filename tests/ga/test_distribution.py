"""Tests for block distributions, incl. property-based coverage."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ga import BlockDistribution
from repro.runtime import RuntimeMisuseError


def test_even_split():
    d = BlockDistribution(8, 4)
    assert [d.local_range(r) for r in range(4)] == [
        (0, 2),
        (2, 4),
        (4, 6),
        (6, 8),
    ]


def test_uneven_split_front_loaded():
    d = BlockDistribution(10, 4)
    assert [d.local_range(r) for r in range(4)] == [
        (0, 3),
        (3, 6),
        (6, 8),
        (8, 10),
    ]


def test_more_procs_than_rows():
    d = BlockDistribution(2, 5)
    counts = [d.local_count(r) for r in range(5)]
    assert counts == [1, 1, 0, 0, 0]


def test_empty_array():
    d = BlockDistribution(0, 3)
    assert all(d.local_count(r) == 0 for r in range(3))


def test_owner_errors():
    d = BlockDistribution(4, 2)
    with pytest.raises(RuntimeMisuseError):
        d.owner_of(4)
    with pytest.raises(RuntimeMisuseError):
        d.local_range(2)


@settings(max_examples=200)
@given(
    nrows=st.integers(min_value=0, max_value=500),
    nprocs=st.integers(min_value=1, max_value=33),
)
def test_ranges_partition_rows(nrows, nprocs):
    """Local ranges tile [0, nrows) exactly, with balanced sizes."""
    d = BlockDistribution(nrows, nprocs)
    cursor = 0
    sizes = []
    for r in range(nprocs):
        lo, hi = d.local_range(r)
        assert lo == cursor
        assert hi >= lo
        cursor = hi
        sizes.append(hi - lo)
    assert cursor == nrows
    assert max(sizes) - min(sizes) <= 1


@settings(max_examples=200)
@given(
    nrows=st.integers(min_value=1, max_value=300),
    nprocs=st.integers(min_value=1, max_value=17),
    data=st.data(),
)
def test_owner_of_matches_local_range(nrows, nprocs, data):
    d = BlockDistribution(nrows, nprocs)
    row = data.draw(st.integers(min_value=0, max_value=nrows - 1))
    owner = d.owner_of(row)
    lo, hi = d.local_range(owner)
    assert lo <= row < hi
