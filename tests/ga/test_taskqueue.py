"""Tests for the shared task queue / dynamic load balancer."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ga import SharedTaskQueue
from repro.runtime import Cluster


def _drain(ctx, counts, chunk):
    q = SharedTaskQueue(ctx, "q", counts, chunk=chunk)
    claimed = []
    while True:
        got = q.next_chunk()
        if got is None:
            break
        lo, hi = got
        claimed.extend(range(lo, hi))
    ctx.comm.barrier()
    return claimed


def test_every_task_claimed_exactly_once():
    def program(ctx):
        return _drain(ctx, [5, 7, 0, 3], chunk=2)

    res = Cluster(4).run(program)
    all_tasks = sorted(t for claims in res.rank_results for t in claims)
    assert all_tasks == list(range(15))


def test_own_tasks_claimed_first():
    def program(ctx):
        q = SharedTaskQueue(ctx, "q", [4, 4], chunk=1)
        first = q.next_chunk()
        ctx.comm.barrier()
        return first

    res = Cluster(2).run(program)
    lo0, _ = res.rank_results[0]
    lo1, _ = res.rank_results[1]
    assert 0 <= lo0 < 4  # rank 0's own range
    assert 4 <= lo1 < 8  # rank 1's own range


def test_idle_rank_steals():
    """A rank with no tasks of its own still gets work."""

    def program(ctx):
        claims = _drain(ctx, [20, 0], chunk=3)
        return claims

    res = Cluster(2).run(program)
    # rank 1 owned nothing but must have stolen something: rank 0 and
    # rank 1 interleave claims in virtual time, so both make progress.
    assert len(res.rank_results[1]) > 0
    both = sorted(res.rank_results[0] + res.rank_results[1])
    assert both == list(range(20))


def test_chunking_respects_boundaries():
    def program(ctx):
        q = SharedTaskQueue(ctx, "q", [5, 0, 0], chunk=4)
        if ctx.rank == 0:
            chunks = []
            while (got := q.next_chunk()) is not None:
                chunks.append(got)
            ctx.comm.barrier()
            return chunks
        ctx.comm.barrier()
        return None

    res = Cluster(3).run(program)
    assert res.rank_results[0] == [(0, 4), (4, 5)]


def test_empty_queue():
    def program(ctx):
        q = SharedTaskQueue(ctx, "q", [0, 0], chunk=1)
        return q.next_chunk()

    res = Cluster(2).run(program)
    assert res.rank_results == [None, None]


@settings(max_examples=25, deadline=None)
@given(
    counts=st.lists(
        st.integers(min_value=0, max_value=25), min_size=1, max_size=6
    ),
    chunk=st.integers(min_value=1, max_value=7),
)
def test_property_exactly_once_any_shape(counts, chunk):
    nprocs = len(counts)

    def program(ctx):
        return _drain(ctx, counts, chunk)

    res = Cluster(nprocs).run(program)
    all_tasks = sorted(t for claims in res.rank_results for t in claims)
    assert all_tasks == list(range(sum(counts)))
