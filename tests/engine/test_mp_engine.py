"""Engine-level cross-backend oracle: sim and mp runs byte-match.

The CI gate for the multiprocessing backend: the full pipeline run
on a small corpus must produce a byte-identical ``result.npz`` and a
bit-identical metrics snapshot under both execution backends, and an
injected crash must surface the same ``RankFailedError`` (same dead
rank, same stage detail) either way.
"""

import dataclasses
import hashlib
import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.datasets import generate_pubmed
from repro.engine import (
    EngineConfig,
    ParallelTextEngine,
    parallel,
    save_result,
)
from repro.runtime import CrashFault, FaultPlan, RankFailedError

NPROCS = 4


def _digests(result, tmp_path, tag):
    path = tmp_path / f"result_{tag}.npz"
    save_result(result, path)
    npz = hashlib.sha256(path.read_bytes()).hexdigest()
    metrics = hashlib.sha256(
        json.dumps(result.metrics, sort_keys=True).encode()
    ).hexdigest()
    return npz, metrics


def test_engine_digests_match_across_backends(
    pubmed_small, small_config, tmp_path
):
    digests = {}
    for backend in ("sim", "mp"):
        cfg = dataclasses.replace(small_config, backend=backend)
        result = ParallelTextEngine(NPROCS, config=cfg).run(
            pubmed_small
        )
        digests[backend] = _digests(result, tmp_path, backend)
    assert digests["sim"] == digests["mp"]


@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    nbytes=st.integers(min_value=20_000, max_value=60_000),
    seed=st.integers(min_value=0, max_value=50),
    nprocs=st.integers(min_value=2, max_value=4),
)
# one rank: the engine's P = 1 point under both backends
@example(nbytes=30_000, seed=7, nprocs=1)
def test_small_corpora_agree_on_digests(
    tmp_path_factory, nbytes, seed, nprocs
):
    """Any small corpus, any seed, any P: identical artifacts."""
    tmp_path = tmp_path_factory.mktemp("xbackend")
    corpus = generate_pubmed(nbytes, seed=seed)
    config = EngineConfig(
        n_major_terms=80,
        n_clusters=4,
        kmeans_sample=32,
        chunk_docs=4,
    )
    digests = {}
    for backend in ("sim", "mp"):
        cfg = dataclasses.replace(config, backend=backend)
        result = ParallelTextEngine(nprocs, config=cfg).run(corpus)
        digests[backend] = _digests(result, tmp_path, backend)
    assert digests["sim"] == digests["mp"]


@pytest.fixture(scope="module")
def scan_mid_time(pubmed_small, small_config):
    """A virtual time landing mid-way through the scan stage."""
    result = ParallelTextEngine(NPROCS, config=small_config).run(
        pubmed_small
    )
    return 0.5 * result.timings.component_seconds["scan"]


def test_crash_fault_plan_surfaces_same_error(
    pubmed_small, small_config, scan_mid_time, monkeypatch
):
    """A scan-stage crash reports the same rank and stage either way."""
    plan = FaultPlan(faults=(CrashFault(rank=2, at_time=scan_mid_time),))
    monkeypatch.setattr(parallel, "MAX_RESTARTS", 0)
    errs = {}
    for backend in ("sim", "mp"):
        cfg = dataclasses.replace(
            small_config, fault_plan=plan, backend=backend
        )
        with pytest.raises(RankFailedError) as ei:
            ParallelTextEngine(NPROCS, config=cfg).run(pubmed_small)
        errs[backend] = ei.value
    assert errs["sim"].failed == errs["mp"].failed == [2]
    assert errs["sim"].detail == errs["mp"].detail


def test_crash_recovery_matches_sim(
    pubmed_small, small_config, scan_mid_time
):
    """With restarts allowed, recovery under mp reproduces sim's
    recovered model and recovery metadata."""
    plan = FaultPlan(faults=(CrashFault(rank=1, at_time=scan_mid_time),))
    runs = {}
    for backend in ("sim", "mp"):
        cfg = dataclasses.replace(
            small_config, fault_plan=plan, backend=backend
        )
        runs[backend] = ParallelTextEngine(NPROCS, config=cfg).run(
            pubmed_small
        )
    sim, mp = runs["sim"], runs["mp"]
    assert sim.meta["recovery"]["restarts"] == (
        mp.meta["recovery"]["restarts"]
    )
    assert json.dumps(sim.metrics, sort_keys=True) == (
        json.dumps(mp.metrics, sort_keys=True)
    )
