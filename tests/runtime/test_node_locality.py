"""Intra-node communication model tests (dual-CPU nodes)."""

import numpy as np
import pytest

from repro.runtime import Cluster, MachineSpec


def test_same_node_mapping():
    m = MachineSpec(ranks_per_node=2)
    assert m.same_node(0, 1)
    assert not m.same_node(1, 2)
    assert m.same_node(4, 5)
    m4 = MachineSpec(ranks_per_node=4)
    assert m4.same_node(0, 3)
    assert not m4.same_node(3, 4)


def test_intra_node_p2p_cheaper():
    m = MachineSpec()
    _, remote = m.p2p_seconds(1_000_000, intra_node=False)
    _, local = m.p2p_seconds(1_000_000, intra_node=True)
    assert local < remote / 1.5


def test_intra_node_onesided_cheaper():
    m = MachineSpec()
    assert m.onesided_seconds(1e6, intra_node=True) < m.onesided_seconds(
        1e6, intra_node=False
    )


def test_send_latency_depends_on_node():
    payload = np.zeros(500_000)

    def program(ctx):
        if ctx.rank == 0:
            ctx.comm.send(1, payload)  # same node (ranks_per_node=2)
            ctx.comm.send(2, payload)  # other node
            return None
        src_t0 = ctx.now
        ctx.comm.recv(0)
        return ctx.now - src_t0

    res = Cluster(3).run(program)
    t_same_node = res.rank_results[1]
    t_cross_node = res.rank_results[2]
    assert t_same_node < t_cross_node


def test_results_unaffected_by_locality_model():
    """Node locality changes time, never data."""
    payload = {"k": [1, 2, 3]}

    def program(ctx):
        if ctx.rank == 0:
            ctx.comm.send(1, payload)
            return None
        return ctx.comm.recv(0)

    fast = Cluster(2, MachineSpec(ranks_per_node=2)).run(program)
    slow = Cluster(2, MachineSpec(ranks_per_node=1)).run(program)
    assert fast.rank_results[1] == slow.rank_results[1] == payload
    assert fast.wall_time < slow.wall_time
