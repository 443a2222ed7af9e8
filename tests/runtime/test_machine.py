"""Cost model unit tests."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import MachineSpec, Scale


@pytest.fixture()
def m():
    return MachineSpec()


def test_scaled_factors():
    m = MachineSpec(workload_scale=10_000.0, vocab_scale_beta=0.65)
    assert m.scaled(2.0, Scale.STREAM) == 20_000.0
    assert m.scaled(2.0, Scale.VOCAB) == pytest.approx(
        2.0 * 10_000.0**0.65
    )
    assert m.scaled(2.0, Scale.FIXED) == 2.0


def test_with_scale_is_pure():
    m = MachineSpec()
    m2 = m.with_scale(50.0)
    assert m.workload_scale == 1.0
    assert m2.workload_scale == 50.0
    assert m2.scan_bytes_per_s == m.scan_bytes_per_s


def test_scan_seconds_additive(m):
    only_bytes = m.scan_seconds(1000, 0)
    only_tokens = m.scan_seconds(0, 100)
    assert m.scan_seconds(1000, 100) == pytest.approx(
        only_bytes + only_tokens
    )


def test_io_shared_fs_saturation(m):
    """Per-rank I/O time stops improving once the shared FS saturates."""
    t1 = m.io_seconds(1e8, concurrent_readers=1)
    t4 = m.io_seconds(1e8, concurrent_readers=4)
    t64 = m.io_seconds(1e8, concurrent_readers=64)
    assert t1 == t4  # rank link is the bottleneck at low P
    assert t64 > t1  # aggregate FS bandwidth bottleneck at high P


def test_p2p_transit_exceeds_sender_time(m):
    sender, transit = m.p2p_seconds(1_000_000)
    assert transit > sender > 0


def test_rpc_round_trip_cost(m):
    small = m.rpc_seconds(16)
    big = m.rpc_seconds(1_000_000)
    assert big > small > 2 * m.net_latency_s


def test_collective_unknown_kind(m):
    # reduce and scatter are not part of the modelled MPI subset
    for kind in ("alltoallw", "reduce", "scatter"):
        with pytest.raises(ValueError):
            m.collective_seconds(kind, 4, 100)


def test_collective_single_rank_free(m):
    for kind in ("barrier", "bcast", "allreduce", "gather", "alltoallv"):
        assert m.collective_seconds(kind, 1, 1e6) == 0.0


@settings(max_examples=100)
@given(
    p1=st.integers(min_value=2, max_value=64),
    p2=st.integers(min_value=2, max_value=64),
    nbytes=st.floats(min_value=0, max_value=1e8),
)
def test_collective_cost_monotone_in_procs(p1, p2, nbytes):
    m = MachineSpec()
    lo, hi = min(p1, p2), max(p1, p2)
    for kind in ("barrier", "bcast", "allreduce", "gather", "allgather"):
        assert m.collective_seconds(kind, lo, nbytes) <= m.collective_seconds(
            kind, hi, nbytes
        )


def test_allreduce_costlier_than_reduce(m):
    """An allreduce is a reduction plus a broadcast, so it costs more
    than its broadcast half alone."""
    assert m.collective_seconds(
        "allreduce", 16, 1e6
    ) > m.collective_seconds("bcast", 16, 1e6)


def test_barrier_cost_logarithmic(m):
    c8 = m.collective_seconds("barrier", 8, 0)
    c64 = m.collective_seconds("barrier", 64, 0)
    assert c64 == pytest.approx(c8 * (math.log2(64) / math.log2(8)))


def test_pressure_factor_knee():
    m = MachineSpec(
        node_mem_bytes=8e9,
        ranks_per_node=2,
        pressure_knee=0.85,
        pressure_slope=8.0,
        workload_scale=1.0,
    )
    share = 4e9
    assert m.pressure_factor(0.5 * share) == 1.0
    assert m.pressure_factor(0.85 * share) == 1.0
    over = m.pressure_factor(1.5 * share)
    assert over == pytest.approx(1.0 + 8.0 * (1.5 - 0.85))


def test_pressure_factor_respects_workload_scale():
    m = MachineSpec(workload_scale=1000.0)
    # 10 MB generated = 10 GB represented: thrashes
    assert m.pressure_factor(1e7) > 1.0
    assert m.with_scale(1.0).pressure_factor(1e7) == 1.0


def test_onesided_scales_with_bytes(m):
    assert m.onesided_seconds(1e6) > m.onesided_seconds(100)


def test_invert_and_unique_costs_positive(m):
    assert m.invert_seconds(1000) > 0
    assert m.unique_terms_seconds(1000) > 0
    assert m.memcpy_seconds(1000) > 0
    assert m.cpu_seconds(1000) > 0
    assert m.flops_seconds(1000) > 0
