"""Tests for the distributed vocabulary hashmap."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ga import GlobalHashMap, term_owner
from repro.runtime import Cluster


def test_ids_unique_and_stable():
    words = [f"word{i}" for i in range(50)]

    def program(ctx):
        hm = GlobalHashMap.create(ctx, "v")
        # overlapping insertions from all ranks
        mine = {w: hm.get_or_insert(w) for w in words}
        ctx.comm.barrier()
        again = {w: hm.get_or_insert(w) for w in words}
        return (mine, again)

    res = Cluster(4).run(program)
    ids0 = res.rank_results[0][0]
    assert len(set(ids0.values())) == len(words)  # all unique
    for mine, again in res.rank_results:
        assert mine == ids0  # every rank agrees
        assert again == mine  # reinsertion is idempotent


def test_global_size_counts_once():
    def program(ctx):
        hm = GlobalHashMap.create(ctx, "v")
        for w in ["a", "b", "c"]:
            hm.get_or_insert(w)  # same three words from every rank
        hm.get_or_insert(f"rank-only-{ctx.rank}")
        ctx.comm.barrier()
        return hm.global_size()

    res = Cluster(4).run(program)
    assert res.rank_results == [3 + 4] * 4


def test_local_items_partition_by_owner():
    words = [f"t{i}" for i in range(30)]

    def program(ctx):
        hm = GlobalHashMap.create(ctx, "v")
        for w in words:
            hm.get_or_insert(w)
        ctx.comm.barrier()
        return hm.local_items()

    res = Cluster(3).run(program)
    seen = {}
    for rank, items in enumerate(res.rank_results):
        for term, gid in items:
            assert term_owner(term, 3) == rank
            assert gid % 3 == rank  # strided ID encodes the owner
            assert term not in seen
            seen[term] = gid
    assert set(seen) == set(words)


def test_remote_insert_costs_more_than_local():
    def program(ctx):
        hm = GlobalHashMap.create(ctx, "v")
        # find a term owned locally and one owned remotely
        local = next(
            f"l{i}" for i in range(1000) if term_owner(f"l{i}", 2) == ctx.rank
        )
        remote = next(
            f"r{i}" for i in range(1000) if term_owner(f"r{i}", 2) != ctx.rank
        )
        t0 = ctx.now
        hm.get_or_insert(local)
        local_cost = ctx.now - t0
        t0 = ctx.now
        hm.get_or_insert(remote)
        remote_cost = ctx.now - t0
        return (local_cost, remote_cost)

    res = Cluster(2).run(program)
    for local_cost, remote_cost in res.rank_results:
        assert remote_cost > local_cost > 0.0


@settings(max_examples=30, deadline=None)
@given(
    terms=st.lists(
        st.text(
            alphabet=st.characters(min_codepoint=97, max_codepoint=122),
            min_size=1,
            max_size=8,
        ),
        min_size=1,
        max_size=40,
    ),
    nprocs=st.integers(min_value=1, max_value=5),
)
def test_property_unique_consistent_ids(terms, nprocs):
    """All ranks agree on IDs; IDs are unique per distinct term."""

    def program(ctx):
        hm = GlobalHashMap.create(ctx, "v")
        # each rank inserts a rank-dependent shuffle of the same terms
        order = terms[ctx.rank :] + terms[: ctx.rank]
        out = {t: hm.get_or_insert(t) for t in order}
        ctx.comm.barrier()
        return out

    res = Cluster(nprocs).run(program)
    base = res.rank_results[0]
    distinct = set(terms)
    assert len(set(base.values())) == len(distinct)
    for m in res.rank_results[1:]:
        assert m == base
