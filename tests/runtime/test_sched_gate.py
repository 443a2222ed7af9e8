"""The fast path's per-rank turn gates.

However a :meth:`Cluster.run` ends -- normally, with a rank raising,
in a deadlock, or under a crash fault plan -- it leaves no
``repro-rank-*`` thread behind (perfbench's ``assert_clean`` relies on
this), under both scheduler mechanisms.  An abort that reaches a gate
already opened for a grant is a no-op, never a second release.
"""

import threading

import pytest

from repro.runtime import (
    Cluster,
    CrashFault,
    DeadlockError,
    FaultPlan,
    RankFailedError,
)
from repro.runtime.scheduler import SLOWPATH_ENV, Scheduler

P = 4


def _rank_threads() -> list[str]:
    return [
        t.name
        for t in threading.enumerate()
        if t.name.startswith("repro-rank-")
    ]


def _ring(ctx, rounds: int = 5):
    """Every rank passes a token around the ring ``rounds`` times."""
    right = (ctx.rank + 1) % ctx.nprocs
    left = (ctx.rank - 1) % ctx.nprocs
    token = ctx.rank
    for _ in range(rounds):
        ctx.charge(1e-6 * (ctx.rank + 1))
        ctx.comm.send(right, token)
        token = ctx.comm.recv(left)
    return token


def _raises(ctx):
    _ring(ctx, rounds=2)
    if ctx.rank == 2:
        raise ValueError("rank 2 gives up")
    return _ring(ctx)


def _deadlocks(ctx):
    _ring(ctx, rounds=2)
    return ctx.comm.recv((ctx.rank + 1) % ctx.nprocs, tag=9)


@pytest.fixture(params=["fast", "slow"])
def mechanism(request, monkeypatch):
    if request.param == "slow":
        monkeypatch.setenv(SLOWPATH_ENV, "1")
    else:
        monkeypatch.delenv(SLOWPATH_ENV, raising=False)
    assert _rank_threads() == []
    yield request.param
    assert _rank_threads() == []


def test_normal_run_leaves_no_rank_thread(mechanism):
    res = Cluster(P).run(_ring)
    assert res.rank_results == [(r - 5) % P for r in range(P)]


def test_raising_rank_leaves_no_rank_thread(mechanism):
    with pytest.raises(RuntimeError, match="rank 2 gives up"):
        Cluster(P).run(_raises)


def test_deadlock_leaves_no_rank_thread(mechanism):
    with pytest.raises(DeadlockError):
        Cluster(P).run(_deadlocks)


def test_crash_plan_leaves_no_rank_thread(mechanism):
    plan = FaultPlan(
        faults=(CrashFault(rank=1, at_call=4),), comm_timeout_s=1.0
    )
    # the ring's survivor waiting on the dead rank reports the loss
    with pytest.raises(RankFailedError) as err:
        Cluster(P, faults=plan).run(_ring, raise_on_failure=False)
    assert err.value.failed == [1]


def test_abort_on_an_open_gate_is_a_noop(monkeypatch):
    monkeypatch.delenv(SLOWPATH_ENV, raising=False)
    sched = Scheduler(3)
    with sched._lock:
        sched._open_gate_locked(1)  # a grant not yet consumed
        sched._abort_wake_all_locked()  # must not release gate 1 again
        sched._abort_wake_all_locked()
        assert sched._gate_open == [True, True, True]
    for gate in sched._gate:
        # each gate was released exactly once: one acquire passes,
        # a second would block
        assert gate.acquire(blocking=False)
        assert not gate.acquire(blocking=False)
