"""Zero-redundancy payload sizing.

Every comms operation must measure a payload's wire size exactly once:
the size is cached on the in-flight :class:`~repro.runtime.comm.Message`
(point-to-point) or in the collective gate's arrival record, and a
caller-supplied ``nbytes_hint`` suppresses measurement entirely.
"""

import numpy as np
import pytest

import repro.runtime.comm as comm_mod
from repro.runtime import Cluster


@pytest.fixture
def count_sizing(monkeypatch):
    """Count payload_nbytes calls per payload object identity."""
    counts: dict[int, int] = {}
    real = comm_mod.payload_nbytes

    def counting(obj):
        counts[id(obj)] = counts.get(id(obj), 0) + 1
        return real(obj)

    monkeypatch.setattr(comm_mod, "payload_nbytes", counting)
    return counts


def test_sent_numpy_payload_sized_exactly_once(count_sizing):
    payload = np.arange(1024, dtype=np.float64)

    def program(ctx):
        if ctx.rank == 0:
            ctx.comm.send(1, payload)
        elif ctx.rank == 1:
            got = ctx.comm.recv(0)
            assert np.array_equal(got, payload)

    Cluster(2).run(program)
    assert count_sizing[id(payload)] == 1


def test_allgather_sizes_each_contribution_once(count_sizing):
    nprocs = 4
    payloads = [np.full(64, r, dtype=np.float64) for r in range(nprocs)]

    def program(ctx):
        out = ctx.comm.allgather(payloads[ctx.rank])
        assert len(out) == nprocs

    Cluster(nprocs).run(program)
    # one sizing per contributing rank -- not one per fan-out leg
    for p in payloads:
        assert count_sizing[id(p)] == 1


def test_bcast_sizes_root_payload_once(count_sizing):
    payload = np.zeros((32, 32))

    def program(ctx):
        got = ctx.comm.bcast(payload if ctx.rank == 0 else None, root=0)
        assert got.shape == (32, 32)

    Cluster(4).run(program)
    assert count_sizing[id(payload)] == 1


def test_nbytes_hint_suppresses_sizing(count_sizing):
    payload = np.zeros(4096)

    def program(ctx):
        ctx.comm.allgather(payload, nbytes_hint=4096.0)

    Cluster(4).run(program)
    assert id(payload) not in count_sizing


def test_self_send_is_zero_copy():
    payload = np.arange(10)

    def program(ctx):
        ctx.comm.send(ctx.rank, payload, tag=3)
        got = ctx.comm.recv(ctx.rank, tag=3)
        # delivered by reference, not pickled/copied
        assert got is payload

    Cluster(2).run(program)
