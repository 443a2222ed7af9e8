"""Property-based tests of GlobalArray semantics.

Random sequences of *commutative* fetch-and-add operations from random
ranks must leave the array in the state an order-independent shadow
computation predicts, for any processor count.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ga import GlobalArray
from repro.runtime import Cluster


@settings(max_examples=25, deadline=None)
@given(
    nprocs=st.integers(min_value=1, max_value=5),
    size=st.integers(min_value=1, max_value=12),
    ops=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=4),  # issuing rank mod
            st.integers(min_value=0, max_value=11),  # row mod
            st.integers(min_value=-5, max_value=5),  # value
        ),
        max_size=40,
    ),
)
def test_accumulate_matches_shadow(nprocs, size, ops):
    """``read_inc`` by arbitrary amounts on arbitrary (local or remote)
    elements sums like a shadow array; the owners' blocks hold it."""
    shadow = np.zeros(size, dtype=np.int64)
    plan = [[] for _ in range(nprocs)]
    for who, row, val in ops:
        r = who % nprocs
        i = row % size
        plan[r].append((i, val))
        shadow[i] += val

    def program(ctx):
        ga = GlobalArray.create(ctx, "acc", (size,), dtype=np.int64)
        ga.sync()
        for i, val in plan[ctx.rank]:
            ga.read_inc(i, val)
        ga.sync()
        return ga.local_view().copy()

    res = Cluster(nprocs).run(program)
    np.testing.assert_array_equal(np.concatenate(res.rank_results), shadow)


@settings(max_examples=20, deadline=None)
@given(
    nprocs=st.integers(min_value=1, max_value=5),
    counts=st.lists(
        st.integers(min_value=0, max_value=15), min_size=1, max_size=5
    ),
)
def test_read_inc_tickets_partition_range(nprocs, counts):
    """Per-rank read_inc draws partition [0, total) with no gaps."""
    per_rank = [counts[r % len(counts)] for r in range(nprocs)]
    total = sum(per_rank)

    def program(ctx):
        ga = GlobalArray.create(ctx, "ctr", (1,), dtype=np.int64)
        ga.sync()
        got = [ga.read_inc(0) for _ in range(per_rank[ctx.rank])]
        ga.sync()
        return got

    res = Cluster(nprocs).run(program)
    tickets = sorted(t for got in res.rank_results for t in got)
    assert tickets == list(range(total))


@settings(max_examples=20, deadline=None)
@given(
    nprocs=st.integers(min_value=1, max_value=4),
    size=st.integers(min_value=1, max_value=10),
    seed=st.integers(min_value=0, max_value=100),
)
def test_disjoint_puts_compose(nprocs, size, seed):
    """Each rank writes its own block through its local view; the
    blocks tile the array exactly (empty blocks included)."""
    rng = np.random.default_rng(seed)
    data = rng.integers(-100, 100, size=size).astype(np.float64)

    def program(ctx):
        ga = GlobalArray.create(ctx, "p", (size,))
        ga.sync()
        lo, hi = ga.local_range()
        ga.local_view()[:] = data[lo:hi]
        ga.sync()
        return ga.local_view().copy()

    res = Cluster(nprocs).run(program)
    np.testing.assert_allclose(np.concatenate(res.rank_results), data)
