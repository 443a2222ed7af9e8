"""Wildcard-receive (``recv_any``) tests."""

import pytest

from repro.runtime import Cluster, DeadlockError


def test_recv_any_takes_earliest():
    def program(ctx):
        if ctx.rank == 1:
            ctx.charge(2.0)
            ctx.comm.send(0, "slow")
            return None
        if ctx.rank == 2:
            ctx.charge(0.5)
            ctx.comm.send(0, "fast")
            return None
        a = ctx.comm.recv_any([1, 2])
        b = ctx.comm.recv_any([1, 2])
        return [a, b]

    res = Cluster(3).run(program)
    assert res.rank_results[0] == [(2, "fast"), (1, "slow")]


def test_recv_any_defaults_to_every_source():
    """No ``sources``: any rank of the communicator may answer."""

    def program(ctx):
        comm = ctx.comm
        assert (comm.rank, comm.nprocs) == (ctx.rank, ctx.nprocs)
        if comm.rank == 0:
            return sorted(comm.recv_any() for _ in range(comm.nprocs - 1))
        comm.send(0, f"m{comm.rank}")
        return None

    res = Cluster(4).run(program)
    assert res.rank_results[0] == [(1, "m1"), (2, "m2"), (3, "m3")]


def test_recv_any_blocks_until_any_sender():
    def program(ctx):
        if ctx.rank == 0:
            src, msg = ctx.comm.recv_any([1, 2])
            return (src, msg, ctx.now)
        if ctx.rank == 2:
            ctx.charge(3.0)
            ctx.comm.send(0, "from2")
        return None
        # rank 1 never sends

    res = Cluster(3).run(program)
    src, msg, t = res.rank_results[0]
    assert (src, msg) == (2, "from2")
    assert t > 3.0


def test_recv_any_many_messages_one_wake():
    """Multiple senders racing the same waiter must not corrupt it."""

    def program(ctx):
        if ctx.rank == 0:
            got = [ctx.comm.recv_any([1, 2, 3]) for _ in range(6)]
            return sorted(m for _, m in got)
        for i in range(2):
            ctx.charge(0.1 * ctx.rank + 0.01 * i)
            ctx.comm.send(0, f"m{ctx.rank}.{i}")
        return None

    res = Cluster(4).run(program)
    assert res.rank_results[0] == sorted(
        f"m{r}.{i}" for r in (1, 2, 3) for i in range(2)
    )


def test_recv_any_deadlocks_when_nobody_sends():
    def program(ctx):
        if ctx.rank == 0:
            ctx.comm.recv_any([1])
        # rank 1 exits immediately

    with pytest.raises(DeadlockError):
        Cluster(2).run(program)


def test_recv_any_cleanup_allows_following_recv():
    def program(ctx):
        if ctx.rank == 0:
            src, m = ctx.comm.recv_any([1, 2])
            m2 = ctx.comm.recv(1)  # plain recv on a previously-watched box
            return (m, m2)
        if ctx.rank == 1:
            ctx.comm.send(0, "a")
            ctx.charge(1.0)
            ctx.comm.send(0, "b")
        return None

    res = Cluster(3).run(program)
    assert res.rank_results[0] == ("a", "b")
