"""Tests for deterministic fault injection and fault-tolerant runtime.

Covers the fault taxonomy (crash / straggler / delay / drop / rpc-flake
/ fs-stall), survivability semantics (FAILED state instead of world
abort, virtual-time timeouts, dead-peer detection), determinism of the
whole fault machinery, and the zero-overhead-when-idle guarantee.
"""

import math

import pytest

from repro.runtime import (
    Cluster,
    CommTimeoutError,
    CrashFault,
    DeadlockError,
    FaultInjector,
    FaultPlan,
    FsStallFault,
    MessageDelayFault,
    MessageDropFault,
    RankFailedError,
    RpcFlakeFault,
    StragglerFault,
    TransientRpcError,
)
from repro.runtime.scheduler import SLOWPATH_ENV


# ----------------------------------------------------------------------
# crash faults: fail-stop, survivors keep running
# ----------------------------------------------------------------------
def test_crash_does_not_abort_independent_survivors():
    plan = FaultPlan(faults=(CrashFault(rank=2, at_call=1),))

    def program(ctx):
        ctx.charge(1.0)
        return ctx.rank * 10

    res = Cluster(4, faults=plan).run(program, raise_on_failure=False)
    assert res.failed_ranks == [2]
    assert res.rank_results[2] is None
    assert [res.rank_results[r] for r in (0, 1, 3)] == [0, 10, 30]


def test_crash_detected_at_barrier_raises_rank_failed():
    plan = FaultPlan(
        faults=(CrashFault(rank=3, at_time=0.5),), comm_timeout_s=5.0
    )

    def program(ctx):
        ctx.charge(1.0)
        ctx.comm.barrier()

    with pytest.raises(RankFailedError) as ei:
        Cluster(4, faults=plan).run(program)
    assert ei.value.failed == [3]
    assert ei.value.rank_times is not None
    assert ei.value.wall_time > 0.0


def test_crash_on_recv_names_dead_sender():
    plan = FaultPlan(
        faults=(CrashFault(rank=1, at_time=0.0),), comm_timeout_s=2.0
    )

    def program(ctx):
        if ctx.rank == 0:
            return ctx.comm.recv(source=1)
        ctx.charge(1.0)  # never reaches the send: crashes at next call
        ctx.comm.send(0, "payload")

    with pytest.raises(RankFailedError) as ei:
        Cluster(2, faults=plan).run(program)
    assert ei.value.failed == [1]


def test_crash_after_last_sync_still_reported():
    # The crash fires at the victim's first runtime call; the survivor
    # never needs it, finishes cleanly, and the driver reports the loss.
    plan = FaultPlan(faults=(CrashFault(rank=1, at_call=1),))

    def program(ctx):
        ctx.charge(0.25)
        return "ok"

    with pytest.raises(RankFailedError) as ei:
        Cluster(2, faults=plan).run(program)
    assert ei.value.failed == [1]
    assert ei.value.rank_times is not None


def test_crash_consumed_across_restart_attempts():
    plan = FaultPlan(faults=(CrashFault(rank=0, at_call=1),))
    injector = FaultInjector(plan)

    def program(ctx):
        ctx.charge(1.0)
        return ctx.rank

    with pytest.raises(RankFailedError):
        Cluster(2, faults=injector).run(program)
    # Same injector, restarted world: the crash stays consumed.
    res = Cluster(2, faults=injector).run(program)
    assert res.rank_results == [0, 1]
    assert res.failed_ranks == []


def test_crash_emits_trace_instant():
    plan = FaultPlan(faults=(CrashFault(rank=1, at_call=1),))
    res = Cluster(2, faults=plan).run(
        lambda ctx: ctx.rank, raise_on_failure=False
    )
    names = [i.name for i in res.tracer.instants]
    assert "fault:crash" in names
    events = res.tracer.to_chrome_trace()
    assert any(e.get("name") == "fault:crash" for e in events)


def test_crash_fault_requires_a_trigger():
    with pytest.raises(ValueError):
        CrashFault(rank=0)


# ----------------------------------------------------------------------
# virtual-time timeouts
# ----------------------------------------------------------------------
def test_recv_timeout_with_alive_peer_is_comm_timeout():
    # No fault plan at all: explicit per-call timeouts work standalone.
    def program(ctx):
        if ctx.rank == 0:
            return ctx.comm.recv(source=1, timeout=0.5)
        ctx.charge(10.0)  # alive but silent past the deadline
        ctx.comm.send(0, "late")

    with pytest.raises(CommTimeoutError) as ei:
        Cluster(2).run(program)
    assert ei.value.timeout == 0.5


def test_recv_timeout_not_fired_when_message_arrives():
    def program(ctx):
        if ctx.rank == 0:
            return ctx.comm.recv(source=1, timeout=50.0)
        ctx.charge(0.01)
        ctx.comm.send(0, "in time")
        return None

    def program_no_timeout(ctx):
        if ctx.rank == 0:
            return ctx.comm.recv(source=1)
        ctx.charge(0.01)
        ctx.comm.send(0, "in time")
        return None

    r1 = Cluster(2).run(program)
    r2 = Cluster(2).run(program_no_timeout)
    assert r1.rank_results[0] == "in time"
    assert list(r1.rank_times) == list(r2.rank_times)


def test_recv_any_timeout():
    def program(ctx):
        if ctx.rank == 0:
            return ctx.comm.recv_any(sources=[1, 2], timeout=0.25)
        ctx.charge(5.0)
        ctx.comm.send(0, ctx.rank)

    with pytest.raises(CommTimeoutError):
        Cluster(3).run(program)


@pytest.fixture(params=["fast", "slow"])
def sched_path(request, monkeypatch):
    """Run the test under both scheduler mechanisms."""
    if request.param == "slow":
        monkeypatch.setenv(SLOWPATH_ENV, "1")
    else:
        monkeypatch.delenv(SLOWPATH_ENV, raising=False)


#: every message from rank 1 to rank 0 arrives 10 virtual seconds late
LATE_FROM_1 = FaultPlan(faults=(MessageDelayFault(extra_s=10.0, src=1, dst=0),))


@pytest.mark.parametrize("wait_s", [0.0, 0.5], ids=["blocked", "buffered"])
def test_recv_deadline_beats_late_arrival(sched_path, wait_s):
    """A message arriving after the receive's deadline leaves the
    receive timed out at the deadline, whether the receiver was
    already blocked when it was sent or finds it buffered; the message
    stays in the mailbox for the next receive."""

    def program(ctx):
        if ctx.rank == 1:
            ctx.comm.send(0, "late")
            return None
        ctx.charge(wait_s)
        with pytest.raises(CommTimeoutError):
            ctx.comm.recv(source=1, timeout=1.0)
        timed_out_at = ctx.now
        return timed_out_at, ctx.comm.recv(source=1), ctx.now

    res = Cluster(2, faults=LATE_FROM_1).run(program)
    timed_out_at, msg, done = res.rank_results[0]
    assert timed_out_at == wait_s + 1.0
    assert msg == "late" and done > 10.0


def test_recv_any_deadline_beats_late_arrival(sched_path):
    """``recv_any`` skips a buffered message that arrives after its
    deadline: it times out when nothing else is due, and takes an
    on-time message from another source before the late one."""

    def program(ctx):
        if ctx.rank == 1:
            ctx.comm.send(0, "late")
        elif ctx.rank == 2:
            ctx.charge(2.0)
            ctx.comm.send(0, "on time")
        else:
            with pytest.raises(CommTimeoutError):
                ctx.comm.recv_any(sources=[1, 2], timeout=1.0)
            timed_out_at = ctx.now
            first = ctx.comm.recv_any(sources=[1, 2], timeout=5.0)
            return timed_out_at, first, ctx.comm.recv_any(sources=[1, 2])

    res = Cluster(3, faults=LATE_FROM_1).run(program)
    timed_out_at, first, second = res.rank_results[0]
    assert timed_out_at == 1.0
    assert first == (2, "on time")
    assert second == (1, "late")


@pytest.mark.parametrize("wait_s", [0.0, 2.0], ids=["blocked", "buffered"])
def test_recv_any_of_one_source_is_recv(sched_path, wait_s):
    """``recv_any([s])`` ends when ``recv(s)`` ends and records the
    same metrics, whether the receiver blocks before the message is
    sent or finds it buffered: the receive overhead is paid once."""

    def run(wildcard: bool):
        def program(ctx):
            if ctx.rank == 1:
                ctx.charge(1.0)
                ctx.comm.send(0, list(range(8)))
                return None
            ctx.charge(wait_s)
            if wildcard:
                got = ctx.comm.recv_any([1])
            else:
                got = (1, ctx.comm.recv(1))
            return got, ctx.now

        res = Cluster(2).run(program)
        return res.rank_results[0], res.metrics.snapshot()

    (got, done), metrics = run(wildcard=False)
    assert got == (1, list(range(8)))
    assert done > max(1.0, wait_s)
    assert run(wildcard=True) == ((got, done), metrics)


# ----------------------------------------------------------------------
# stragglers, delays, drops, FS stalls
# ----------------------------------------------------------------------
def test_straggler_scales_local_charges():
    plan = FaultPlan(faults=(StragglerFault(rank=1, factor=3.0),))

    def program(ctx):
        ctx.charge(1.0)
        return ctx.now

    res = Cluster(2, faults=plan).run(program)
    assert res.rank_results[0] == pytest.approx(1.0)
    assert res.rank_results[1] == pytest.approx(3.0)


def test_straggler_window_bounds_the_slowdown():
    plan = FaultPlan(
        faults=(StragglerFault(rank=0, factor=2.0, t_start=0.0, t_end=1.5),)
    )

    def program(ctx):
        ctx.charge(1.0)  # inside the window: costs 2.0
        ctx.charge(1.0)  # now=2.0, outside: costs 1.0
        return ctx.now

    res = Cluster(1, faults=plan).run(program)
    assert res.rank_results[0] == pytest.approx(3.0)


def test_straggler_factor_validation():
    with pytest.raises(ValueError):
        StragglerFault(rank=0, factor=0.5)


def _ping(ctx):
    if ctx.rank == 1:
        ctx.comm.send(0, "x")
        return None
    ctx.comm.recv(source=1)
    return ctx.now


def test_message_delay_adds_transit_time():
    plan = FaultPlan(faults=(MessageDelayFault(extra_s=0.5, src=1, dst=0),))
    base = Cluster(2).run(_ping).rank_results[0]
    slow = Cluster(2, faults=plan).run(_ping).rank_results[0]
    assert slow - base == pytest.approx(0.5)


def test_message_drop_costs_a_retransmit():
    plan = FaultPlan(
        faults=(MessageDropFault(src=1, dst=0, nth=1, retransmit_s=0.25),)
    )
    base = Cluster(2).run(_ping).rank_results[0]
    dropped = Cluster(2, faults=plan).run(_ping).rank_results[0]
    assert dropped - base == pytest.approx(0.25)


def test_fs_stall_slows_io_charges():
    plan = FaultPlan(
        faults=(
            FsStallFault(t_start=0.0, t_end=math.inf, factor=2.0, extra_s=0.1),
        )
    )

    def program(ctx):
        ctx.charge_io(1_000_000.0, concurrent_readers=1)
        return ctx.now

    base = Cluster(1).run(program).rank_results[0]
    stalled = Cluster(1, faults=plan).run(program).rank_results[0]
    assert stalled == pytest.approx(2.0 * base + 0.1)


# ----------------------------------------------------------------------
# RPC faults
# ----------------------------------------------------------------------
def test_rpc_flake_raises_transient_error_then_recovers():
    plan = FaultPlan(faults=(RpcFlakeFault(rank=0, nth_calls=(1,)),))

    def program(ctx):
        if ctx.rank != 0:
            ctx.charge(1.0)
            return None
        flaked = 0
        while True:
            try:
                return (ctx.rpc(1, lambda: 42), flaked)
            except TransientRpcError:
                flaked += 1

    res = Cluster(2, faults=plan).run(program)
    assert res.rank_results[0] == (42, 1)


def test_rpc_to_dead_target_raises_rank_failed():
    plan = FaultPlan(faults=(CrashFault(rank=1, at_call=1),))

    def program(ctx):
        if ctx.rank != 0:
            return None
        ctx.charge(1.0)  # let the victim crash first
        try:
            ctx.rpc(1, lambda: 42)
        except RankFailedError as exc:
            return ("dead", exc.failed)
        return "unreachable"

    res = Cluster(2, faults=plan).run(program, raise_on_failure=False)
    assert res.rank_results[0] == ("dead", [1])
    assert res.failed_ranks == [1]


# ----------------------------------------------------------------------
# failure detector
# ----------------------------------------------------------------------
def test_failure_detector_latency():
    plan = FaultPlan(
        faults=(CrashFault(rank=3, at_call=1),), detection_latency_s=0.5
    )

    def program(ctx):
        if ctx.rank == 3:
            return None
        early = list(ctx.failed_ranks())  # t=0: crash not yet visible
        ctx.charge(1.0)
        late = list(ctx.failed_ranks())  # t=1.0 >= 0 + 0.5: visible
        return (early, late, ctx.is_alive(3), ctx.is_alive(0))

    res = Cluster(4, faults=plan).run(program, raise_on_failure=False)
    for r in (0, 1, 2):
        early, late, dead3_alive, rank0_alive = res.rank_results[r]
        assert early == []
        assert late == [3]
        assert dead3_alive is False
        assert rank0_alive is True


def test_failure_detector_empty_without_faults():
    res = Cluster(2).run(lambda ctx: ctx.failed_ranks())
    assert res.rank_results == [[], []]


# ----------------------------------------------------------------------
# deadlock diagnostics (satellite: enriched DeadlockError)
# ----------------------------------------------------------------------
def test_deadlock_error_carries_clocks_and_blocked_time():
    def program(ctx):
        ctx.charge(float(ctx.rank + 1))
        ctx.comm.recv(source=(ctx.rank + 1) % ctx.nprocs)

    with pytest.raises(DeadlockError) as ei:
        Cluster(3).run(program)
    err = ei.value
    assert set(err.clocks) == {0, 1, 2}
    assert err.clocks[2] == pytest.approx(3.0)
    assert set(err.blocked_time) == {0, 1, 2}
    msg = str(err)
    assert "t=" in msg and "blocked" in msg


# ----------------------------------------------------------------------
# determinism and zero overhead
# ----------------------------------------------------------------------
def _busy_program(ctx):
    log = []
    for i in range(4):
        ctx.charge(0.001 * ((ctx.rank * 5 + i) % 3 + 1))
        log.append(ctx.comm.allreduce(ctx.rank + i))
    ctx.comm.send((ctx.rank + 1) % ctx.nprocs, ctx.rank)
    ctx.comm.recv(source=(ctx.rank - 1) % ctx.nprocs)
    return tuple(log)


def test_fault_run_is_bit_reproducible():
    plan = FaultPlan(
        faults=(
            StragglerFault(rank=1, factor=2.5),
            MessageDelayFault(extra_s=0.01, src=2),
            MessageDropFault(src=0, dst=1, nth=2),
        ),
        comm_timeout_s=30.0,
    )
    r1 = Cluster(4, faults=plan).run(_busy_program)
    r2 = Cluster(4, faults=plan).run(_busy_program)
    assert r1.rank_results == r2.rank_results
    assert list(r1.rank_times) == list(r2.rank_times)
    assert r1.tracer.instants == r2.tracer.instants
    assert r1.tracer.to_chrome_trace() == r2.tracer.to_chrome_trace()


def test_empty_plan_has_zero_overhead():
    plain = Cluster(4).run(_busy_program)
    armed = Cluster(4, faults=FaultPlan()).run(_busy_program)
    assert plain.rank_results == armed.rank_results
    assert list(plain.rank_times) == list(armed.rank_times)
    assert list(plain.blocked_times) == list(armed.blocked_times)


# ----------------------------------------------------------------------
# plan serialization / generation
# ----------------------------------------------------------------------
def test_fault_plan_json_roundtrip():
    plan = FaultPlan(
        faults=(
            CrashFault(rank=2, at_time=1.5),
            CrashFault(rank=0, at_call=7),
            StragglerFault(rank=1, factor=3.0, net_factor=2.0, t_end=9.0),
            MessageDelayFault(extra_s=0.25, src=1, dst=0, t_start=1.0),
            MessageDropFault(src=3, dst=2, nth=4, retransmit_s=0.5),
            RpcFlakeFault(rank=1, nth_calls=(2, 5)),
            FsStallFault(t_start=0.5, t_end=2.5, factor=4.0, ranks=(0, 1)),
        ),
        seed=13,
        comm_timeout_s=17.0,
        detection_latency_s=0.02,
    )
    assert FaultPlan.from_json(plan.to_json()) == plan


def test_fault_plan_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultPlan.from_dict({"faults": [{"kind": "gremlin"}]})


def test_fault_plan_random_is_deterministic():
    p1 = FaultPlan.random(8, seed=3, n_crashes=2, n_stragglers=1)
    p2 = FaultPlan.random(8, seed=3, n_crashes=2, n_stragglers=1)
    assert p1 == p2
    assert len(p1.crash_faults) == 2
    victims = {f.rank for f in p1.crash_faults}
    assert len(victims) == 2
    assert FaultPlan.random(8, seed=4, n_crashes=2) != p1


def test_fault_plan_validation():
    with pytest.raises(ValueError):
        FaultPlan(comm_timeout_s=0.0)
    with pytest.raises(ValueError):
        FaultPlan(detection_latency_s=-1.0)


# ----------------------------------------------------------------------
# abort semantics preserved for ordinary failures
# ----------------------------------------------------------------------
def test_ordinary_exception_still_aborts_world_under_plan():
    plan = FaultPlan()

    def program(ctx):
        if ctx.rank == 1:
            raise ValueError("real bug, not a fault")
        ctx.comm.barrier()

    with pytest.raises(RuntimeError, match="rank 1 failed") as exc:
        Cluster(3, faults=plan).run(program)
    assert isinstance(exc.value.__cause__, ValueError)


def test_failed_rank_times_are_final_clocks():
    plan = FaultPlan(faults=(CrashFault(rank=0, at_time=0.75),))

    def program(ctx):
        ctx.charge(1.0)
        # charges are not sync points; the next runtime call is, and
        # rank 0's clock (1.0) is past the 0.75 trigger there
        ctx.rpc(ctx.rank, lambda: None)
        ctx.charge(1.0)
        return ctx.now

    res = Cluster(2, faults=plan).run(program, raise_on_failure=False)
    assert res.failed_ranks == [0]
    # the victim's clock froze where it died
    assert res.rank_times[0] == pytest.approx(1.0)
    assert res.rank_times[1] >= 2.0
