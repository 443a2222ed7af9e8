"""Tests for the deterministic virtual-time scheduler."""

import pytest

from repro.runtime import Cluster, DeadlockError, MachineSpec


def test_single_rank_runs_and_returns():
    res = Cluster(1).run(lambda ctx: ctx.rank * 10 + 7)
    assert res.rank_results == [7]
    assert res.wall_time == 0.0


def test_all_ranks_run():
    res = Cluster(5).run(lambda ctx: ctx.rank)
    assert res.rank_results == [0, 1, 2, 3, 4]


def test_charge_advances_only_own_clock():
    def program(ctx):
        ctx.charge(float(ctx.rank))
        return ctx.now

    res = Cluster(4).run(program)
    assert res.rank_results == [0.0, 1.0, 2.0, 3.0]
    assert res.wall_time == 3.0


def test_min_clock_rank_runs_first():
    """Globally visible ops execute in virtual-time order."""
    order = []

    def program(ctx):
        # rank r charges (nprocs - r) seconds, so rank 3 has the
        # smallest clock and must win the next turn.
        ctx.charge(float(ctx.nprocs - ctx.rank))
        ctx.comm.barrier()  # sync point: yields the turn
        order.append((ctx.now, ctx.rank))

    Cluster(4).run(program)
    # After the barrier everyone has the same clock; arrival order into
    # the barrier must have been by increasing virtual time.
    assert len(order) == 4


def test_deterministic_interleaving():
    """The same program produces the identical event order every run."""

    def program(ctx):
        log = []
        for i in range(5):
            ctx.charge(0.001 * ((ctx.rank * 7 + i * 3) % 5 + 1))
            v = ctx.comm.allreduce(ctx.rank + i)
            log.append(v)
        return tuple(log)

    r1 = Cluster(6).run(program)
    r2 = Cluster(6).run(program)
    assert r1.rank_results == r2.rank_results
    assert list(r1.rank_times) == list(r2.rank_times)


def test_rank_exception_propagates():
    def program(ctx):
        if ctx.rank == 2:
            raise ValueError("boom on rank 2")
        ctx.comm.barrier()

    with pytest.raises(RuntimeError, match="rank 2 failed") as exc:
        Cluster(4).run(program)
    assert isinstance(exc.value.__cause__, ValueError)


def test_deadlock_detected():
    def program(ctx):
        # Everyone receives, nobody sends.
        ctx.comm.recv(source=(ctx.rank + 1) % ctx.nprocs)

    with pytest.raises(DeadlockError):
        Cluster(3).run(program)


def test_partial_collective_deadlocks():
    def program(ctx):
        if ctx.rank == 0:
            return 0  # rank 0 skips the barrier
        ctx.comm.barrier()

    with pytest.raises(DeadlockError):
        Cluster(3).run(program)


def test_nprocs_validation():
    with pytest.raises(ValueError):
        Cluster(0)


def test_clock_negative_charge_rejected():
    def program(ctx):
        ctx.charge(-1.0)

    with pytest.raises(RuntimeError, match="rank 0 failed") as exc:
        Cluster(1).run(program)
    assert isinstance(exc.value.__cause__, ValueError)
    assert "negative" in str(exc.value.__cause__)


def test_machine_spec_attached():
    spec = MachineSpec(net_latency_s=1e-3)
    c = Cluster(2, machine=spec)

    def program(ctx):
        return ctx.machine.net_latency_s

    assert c.run(program).rank_results == [1e-3, 1e-3]
