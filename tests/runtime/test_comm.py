"""Tests for point-to-point and collective communication."""

import numpy as np
import pytest

from repro.runtime import Cluster, CollectiveMismatchError, RuntimeMisuseError


# ----------------------------------------------------------------------
# point to point
# ----------------------------------------------------------------------
def test_send_recv_value():
    def program(ctx):
        if ctx.rank == 0:
            ctx.comm.send(1, {"hello": [1, 2, 3]})
            return None
        return ctx.comm.recv(0)

    res = Cluster(2).run(program)
    assert res.rank_results[1] == {"hello": [1, 2, 3]}


def test_recv_blocks_until_send():
    def program(ctx):
        if ctx.rank == 0:
            ctx.charge(5.0)  # send happens late
            ctx.comm.send(1, "late")
            return ctx.now
        t_before = ctx.now
        msg = ctx.comm.recv(0)
        assert msg == "late"
        return (t_before, ctx.now)

    res = Cluster(2).run(program)
    t_before, t_after = res.rank_results[1]
    assert t_before == 0.0
    assert t_after > 5.0  # receiver waited for the late sender


def test_messages_fifo_per_channel():
    def program(ctx):
        if ctx.rank == 0:
            for i in range(10):
                ctx.comm.send(1, i)
            return None
        return [ctx.comm.recv(0) for _ in range(10)]

    res = Cluster(2).run(program)
    assert res.rank_results[1] == list(range(10))


def test_tags_separate_channels():
    def program(ctx):
        if ctx.rank == 0:
            ctx.comm.send(1, "a", tag=1)
            ctx.comm.send(1, "b", tag=2)
            return None
        b = ctx.comm.recv(0, tag=2)
        a = ctx.comm.recv(0, tag=1)
        return (a, b)

    res = Cluster(2).run(program)
    assert res.rank_results[1] == ("a", "b")


def test_send_to_invalid_rank():
    def program(ctx):
        ctx.comm.send(99, "x")

    with pytest.raises(RuntimeError, match="rank 0 failed") as exc:
        Cluster(2).run(program)
    assert isinstance(exc.value.__cause__, RuntimeMisuseError)
    assert "peer rank 99" in str(exc.value.__cause__)


def test_message_transfer_costs_time():
    def program(ctx):
        if ctx.rank == 0:
            ctx.comm.send(1, np.zeros(1_000_000))
            return None
        ctx.comm.recv(0)
        return ctx.now

    res = Cluster(2).run(program)
    # 8 MB over the modelled link must take noticeable virtual time
    assert res.rank_results[1] > 1e-3


# ----------------------------------------------------------------------
# collectives
# ----------------------------------------------------------------------
def test_barrier_aligns_clocks():
    def program(ctx):
        ctx.charge(float(ctx.rank))
        ctx.comm.barrier()
        return ctx.now

    res = Cluster(4).run(program)
    assert len(set(res.rank_results)) == 1
    assert res.rank_results[0] >= 3.0  # at least the slowest arriver


def test_bcast():
    def program(ctx):
        val = [1, 2, 3] if ctx.rank == 1 else None
        return ctx.comm.bcast(val, root=1)

    res = Cluster(4).run(program)
    assert all(r == [1, 2, 3] for r in res.rank_results)


def test_allreduce_numpy_arrays():
    def program(ctx):
        return ctx.comm.allreduce(np.full(3, ctx.rank, dtype=np.int64))

    res = Cluster(4).run(program)
    for r in res.rank_results:
        np.testing.assert_array_equal(r, [6, 6, 6])


def test_allreduce_custom_op():
    def program(ctx):
        return ctx.comm.allreduce(ctx.rank, op=max)

    res = Cluster(5).run(program)
    assert res.rank_results == [4] * 5


def test_gather_and_allgather():
    def program(ctx):
        g = ctx.comm.gather(ctx.rank * 2, root=0)
        ag = ctx.comm.allgather(ctx.rank + 100)
        return (g, ag)

    res = Cluster(3).run(program)
    assert res.rank_results[0][0] == [0, 2, 4]
    assert res.rank_results[1][0] is None
    for g, ag in res.rank_results:
        assert ag == [100, 101, 102]


def test_alltoallv():
    def program(ctx):
        per_dest = [f"{ctx.rank}->{d}" for d in range(ctx.nprocs)]
        return ctx.comm.alltoallv(per_dest)

    res = Cluster(3).run(program)
    for d in range(3):
        assert res.rank_results[d] == [f"{s}->{d}" for s in range(3)]


def test_exscan():
    def program(ctx):
        return ctx.comm.exscan(ctx.rank + 1)

    res = Cluster(4).run(program)
    assert res.rank_results == [None, 1, 3, 6]


def test_collective_mismatch_detected():
    def program(ctx):
        if ctx.rank == 0:
            ctx.comm.barrier()
        else:
            ctx.comm.allreduce(1)

    with pytest.raises(RuntimeError, match="failed") as exc:
        Cluster(2).run(program)
    assert isinstance(exc.value.__cause__, CollectiveMismatchError)


def test_collective_results_independent_copies():
    """Each rank's allreduce array result must be mutable independently."""

    def program(ctx):
        out = ctx.comm.allreduce(np.ones(4))
        out += ctx.rank  # must not affect other ranks
        ctx.comm.barrier()
        return float(out[0])

    res = Cluster(3).run(program)
    assert res.rank_results == [3.0, 4.0, 5.0]


def test_collectives_cost_grows_with_procs():
    def program(ctx):
        ctx.comm.allreduce(np.ones(1000))
        return ctx.now

    t2 = Cluster(2).run(program).wall_time
    t16 = Cluster(16).run(program).wall_time
    assert t16 > t2 > 0.0


def test_single_rank_collectives_are_free_and_correct():
    def program(ctx):
        a = ctx.comm.allreduce(5)
        b = ctx.comm.allgather("x")
        c = ctx.comm.bcast("y")
        ctx.comm.barrier()
        return (a, b, c, ctx.now)

    res = Cluster(1).run(program)
    assert res.rank_results[0] == (5, ["x"], "y", 0.0)


def test_gates_cleaned_up():
    def program(ctx):
        for _ in range(20):
            ctx.comm.barrier()
        return len(ctx.world.gates)

    res = Cluster(3).run(program)
    # The final gate is deleted by whichever rank reads it last, so at
    # most that one in-flight gate may still be visible to the others.
    assert min(res.rank_results) == 0
    assert max(res.rank_results) <= 1
