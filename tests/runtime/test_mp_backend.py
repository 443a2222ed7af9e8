"""Cross-backend oracle: the mp backend must be bit-identical to sim.

The multiprocessing backend runs the same SPMD programs as the
virtual-time simulator -- one OS process per rank instead of one
thread -- and the contract is *bit-exactness*: identical rank
results, identical virtual clocks, identical metrics, identical
failure reports.  These tests run the same program under both
backends and diff everything observable.
"""

import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import run_ga_queue
from repro.ga.array import GlobalArray
from repro.ga.hashmap import GlobalHashMap
from repro.runtime import (
    Cluster,
    CrashFault,
    FaultPlan,
    RankFailedError,
)


def _run_both(program, nprocs, faults=None, **kwargs):
    sim = Cluster(nprocs, faults=faults, backend="sim").run(
        program, **kwargs
    )
    mp = Cluster(nprocs, faults=faults, backend="mp").run(
        program, **kwargs
    )
    return sim, mp


def _assert_identical(sim, mp):
    enc = lambda r: json.dumps(  # noqa: E731
        r.rank_results, sort_keys=True, default=repr
    )
    assert enc(sim) == enc(mp)
    assert np.array_equal(sim.rank_times, mp.rank_times)
    assert np.array_equal(sim.blocked_times, mp.blocked_times)
    assert json.dumps(sim.metrics.snapshot(), sort_keys=True) == (
        json.dumps(mp.metrics.snapshot(), sort_keys=True)
    )


# ----------------------------------------------------------------------
# every primitive in one program, fixed processor counts
# ----------------------------------------------------------------------
def _kitchen_sink(ctx):
    r, n = ctx.rank, ctx.nprocs
    with ctx.region("scan"):
        ctx.charge(0.001 * (r + 1))
        total = ctx.comm.allreduce(r + 1)
        vec = ctx.comm.allreduce(np.arange(4.0) * r)
        vec[0] += 1.0  # results must arrive writable, as in sim
        root_msg = ctx.comm.bcast(
            {"v": 7} if r == 0 else None, root=0
        )
        rows = ctx.comm.gather(np.arange(3) * r, root=n - 1)
        pre = ctx.comm.exscan(float(r))
        shuffled = ctx.comm.alltoallv(
            [f"{r}->{d}" for d in range(n)]
        )
        squares = ctx.comm.allgather(r * r)
    with ctx.region("index"):
        ctx.comm.send((r + 1) % n, np.full(3, float(r)))
        left = ctx.comm.recv((r - 1) % n)
        ga = GlobalArray.create(ctx, "mpb", (n * 2,), fill=0.0)
        ctx.barrier()
        hm = GlobalHashMap.create(ctx, "mpb_terms")
        gids = hm.get_or_insert_batch([f"t{j}" for j in range(6)])
        ctx.barrier()
        rep = ctx.replicated(("k", 0), lambda: list(range(5)))
        rpc_val = ctx.rpc((r + 1) % n, lambda x: x + 1, r)
    return {
        "total": total,
        "vec": vec.tolist(),
        "root_msg": root_msg,
        "rows": None if rows is None else [x.tolist() for x in rows],
        "pre": pre,
        "shuffled": shuffled,
        "squares": squares,
        "left": left.tolist(),
        "mine": ga.local_view().tolist(),
        "ngids": len(set(gids)),
        "rep": rep,
        "rpc": rpc_val,
    }


@pytest.mark.parametrize("nprocs", [1, 2, 4])
def test_kitchen_sink_bitexact(nprocs):
    sim, mp = _run_both(_kitchen_sink, nprocs)
    _assert_identical(sim, mp)
    assert sim.wall_time == mp.wall_time


def test_ga_queue_hands_out_each_task_once_across_processes():
    """Without cost hints the shared task queue claims through live
    ``read_inc`` on the shared-memory counters, so every task must be
    handed out exactly once across the rank processes.  The claim
    order is racy under mp, so only the sets are compared."""
    costs = [[1e-3] * 5, [2e-3] * 7, [], [1e-3] * 3]
    res = Cluster(4, backend="mp").run(run_ga_queue, costs)
    claimed = [t for executed in res.rank_results for t, _ in executed]
    assert sorted(claimed) == list(range(15))


# ----------------------------------------------------------------------
# property: random collective sequences agree across backends
# ----------------------------------------------------------------------
_OPS = ("allreduce", "allgather", "exscan", "alltoallv", "bcast")


@settings(max_examples=10, deadline=None)
@given(
    nprocs=st.integers(min_value=1, max_value=4),
    ops=st.lists(
        st.sampled_from(_OPS), min_size=1, max_size=4
    ),
    values=st.lists(
        st.integers(min_value=-50, max_value=50),
        min_size=4,
        max_size=4,
    ),
    charge_ms=st.integers(min_value=0, max_value=5),
)
def test_random_collective_sequences_agree(
    nprocs, ops, values, charge_ms
):
    def program(ctx):
        r = ctx.rank
        out = []
        for i, op in enumerate(ops):
            ctx.charge(charge_ms * 1e-3 * ((r + i) % 3))
            base = values[r] + i
            if op == "allreduce":
                out.append(ctx.comm.allreduce(base))
            elif op == "allgather":
                out.append(ctx.comm.allgather(base))
            elif op == "exscan":
                out.append(ctx.comm.exscan(base))
            elif op == "alltoallv":
                out.append(
                    ctx.comm.alltoallv(
                        [base * 10 + d for d in range(ctx.nprocs)]
                    )
                )
            else:
                out.append(
                    ctx.comm.bcast(base if r == i % ctx.nprocs else None,
                                   root=i % ctx.nprocs)
                )
        return out

    sim, mp = _run_both(program, nprocs)
    _assert_identical(sim, mp)


# ----------------------------------------------------------------------
# failure parity: crashes surface identically
# ----------------------------------------------------------------------
def test_crash_at_barrier_reports_same_rank():
    plan = FaultPlan(
        faults=(CrashFault(rank=2, at_time=0.5),), comm_timeout_s=5.0
    )

    def program(ctx):
        ctx.charge(1.0)
        ctx.comm.barrier()

    errs = {}
    for backend in ("sim", "mp"):
        with pytest.raises(RankFailedError) as ei:
            Cluster(3, faults=plan, backend=backend).run(program)
        errs[backend] = ei.value
    assert errs["sim"].failed == errs["mp"].failed == [2]
    assert errs["sim"].detail == errs["mp"].detail
    assert np.array_equal(
        np.asarray(errs["sim"].rank_times),
        np.asarray(errs["mp"].rank_times),
    )


def test_crash_survivors_and_results_match():
    plan = FaultPlan(faults=(CrashFault(rank=1, at_call=1),))

    def program(ctx):
        ctx.charge(1.0)
        return ctx.rank * 10

    sim = Cluster(4, faults=plan, backend="sim").run(
        program, raise_on_failure=False
    )
    mp = Cluster(4, faults=plan, backend="mp").run(
        program, raise_on_failure=False
    )
    assert sim.failed_ranks == mp.failed_ranks == [1]
    assert sim.rank_results == mp.rank_results
    assert np.array_equal(sim.rank_times, mp.rank_times)


# ----------------------------------------------------------------------
# switchboard keys: (src, dst, tag) mailboxes
# ----------------------------------------------------------------------
def test_equal_clock_send_recv_both_directions():
    """At equal clocks the lower rank runs first: 1 -> 0 finds rank 0
    already blocked, 2 -> 3 is buffered before rank 3 receives."""

    def program(ctx):
        ctx.charge(1.0)
        r = ctx.rank
        if r == 1:
            ctx.comm.send(0, "to0")
        elif r == 2:
            ctx.comm.send(3, "to3")
        else:
            return ctx.comm.recv(1 if r == 0 else 2)
        return None

    sim, mp = _run_both(program, 4)
    _assert_identical(sim, mp)
    assert sim.rank_results == ["to0", None, None, "to3"]


def test_recv_parked_on_sender_that_crashes():
    """Rank 0 waits on rank 1, which crashes before sending: the receive
    times out ``comm_timeout_s`` after it was issued, on both backends."""
    plan = FaultPlan(
        faults=(CrashFault(rank=1, at_time=0.5),), comm_timeout_s=3.0
    )

    def program(ctx):
        if ctx.rank == 0:
            ctx.charge(0.2)
            return ctx.comm.recv(1)
        if ctx.rank == 1:
            ctx.charge(1.0)
            # real time only: lets rank 0's receive park first under mp,
            # so the crash must release a parked receive
            time.sleep(0.2)
            ctx.comm.send(0, "never")
        else:
            ctx.charge(0.1)
        return None

    for backend in ("sim", "mp"):
        with pytest.raises(RankFailedError) as ei:
            Cluster(3, faults=plan, backend=backend).run(program)
        err = ei.value
        assert err.failed == [1]
        assert err.detail == "recv(src=1, tag=0)"
        assert np.array_equal(np.asarray(err.rank_times), [3.2, 1.0, 0.1])
