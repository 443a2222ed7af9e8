"""Blocked-time accounting / utilization tests."""

import numpy as np
import pytest

from repro.runtime import Cluster


def test_barrier_wait_attributed_to_fast_ranks():
    def program(ctx):
        ctx.charge(float(ctx.rank))  # rank r busy for r seconds
        ctx.comm.barrier()
        return None

    res = Cluster(4).run(program)
    # rank 3 arrived last: essentially no waiting; rank 0 waited ~3s
    assert res.blocked_times[3] < 0.1
    assert res.blocked_times[0] == pytest.approx(3.0, abs=0.01)
    assert res.blocked_times[1] == pytest.approx(2.0, abs=0.01)


def test_no_communication_no_blocking():
    def program(ctx):
        ctx.charge(1.0)
        return None

    res = Cluster(3).run(program)
    np.testing.assert_allclose(res.blocked_times, 0.0)
    np.testing.assert_allclose(res.utilization, 1.0)


def test_recv_wait_counted():
    def program(ctx):
        if ctx.rank == 0:
            ctx.charge(5.0)
            ctx.comm.send(1, "late")
            return None
        ctx.comm.recv(0)
        return None

    res = Cluster(2).run(program)
    assert res.blocked_times[1] == pytest.approx(5.0, abs=0.01)
    assert res.blocked_times[0] == 0.0
    assert res.utilization[1] < 0.01


def test_utilization_reflects_imbalance():
    def program(ctx):
        # rank 0 does 4x the work of the others, then all synchronize
        ctx.charge(4.0 if ctx.rank == 0 else 1.0)
        ctx.comm.barrier()
        return None

    res = Cluster(4).run(program)
    u = res.utilization
    assert u[0] > 0.99
    for r in (1, 2, 3):
        assert u[r] == pytest.approx(0.25, abs=0.01)


def test_engine_utilization_accessible():
    """The engine's simulated runs expose meaningful utilization."""
    from repro.datasets import generate_pubmed
    from repro.engine import EngineConfig
    from repro.engine.parallel import _engine_rank_main
    from repro.runtime import MachineSpec
    from repro.text import partition_documents

    corpus = generate_pubmed(60_000, seed=3)
    cfg = EngineConfig(n_major_terms=80, n_clusters=3, kmeans_sample=24)
    parts = partition_documents(corpus.documents, 4)
    sim = Cluster(4, MachineSpec()).run(_engine_rank_main, parts, cfg)
    u = sim.utilization
    assert np.all(u > 0.0) and np.all(u <= 1.0)
    assert u.mean() > 0.4  # mostly-busy ranks on a balanced corpus
