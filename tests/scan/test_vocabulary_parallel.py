"""Parallel vocabulary finalization tests."""

from repro.ga import GlobalHashMap
from repro.runtime import Cluster
from repro.scan import finalize_vocabulary


def _run(nprocs, rank_terms):
    def program(ctx):
        hm = GlobalHashMap.create(ctx, "v")
        hm.get_or_insert_batch(rank_terms[ctx.rank])
        ctx.comm.barrier()
        return finalize_vocabulary(ctx, hm)

    return Cluster(nprocs).run(program).rank_results


def test_dense_ids_cover_all_terms():
    vocabs = _run(3, [["apple", "pear"], ["pear", "plum"], ["fig"]])
    v0 = vocabs[0]
    assert sorted(v0.gid_to_term) == ["apple", "fig", "pear", "plum"]
    assert sorted(v0.term_to_gid.values()) == [0, 1, 2, 3]


def test_all_ranks_agree():
    vocabs = _run(4, [[f"t{i}{r}" for i in range(5)] for r in range(4)])
    base = vocabs[0]
    for v in vocabs[1:]:
        assert v.term_to_gid == base.term_to_gid
        assert v.gid_to_term == base.gid_to_term


def test_owner_blocks_contiguous_and_sorted():
    terms = [f"word{i}" for i in range(40)]
    vocabs = _run(4, [terms, terms, terms, terms])
    v = vocabs[0]
    assert v.size == 40
    for r in range(4):
        lo, hi = v.dist.local_range(r)
        block = v.gid_to_term[lo:hi]
        assert block == sorted(block)  # sorted within owner


def test_assignment_independent_of_discovery_order():
    """Different ranks discovering terms in different orders must not
    change the final dense assignment."""
    terms = [f"w{i}" for i in range(20)]
    v_fwd = _run(2, [terms, terms])[0]
    v_rev = _run(2, [terms[::-1], terms[::-1]])[0]
    assert v_fwd.term_to_gid == v_rev.term_to_gid


def test_owner_of_gid_matches_distribution():
    vocabs = _run(3, [[f"q{i}" for i in range(30)]] * 3)
    v = vocabs[0]
    for gid in range(v.size):
        owner = v.dist.owner_of(gid)
        lo, hi = v.dist.local_range(owner)
        assert lo <= gid < hi
