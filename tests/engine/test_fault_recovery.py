"""Fault-tolerant engine tests: checkpoint-restart, determinism,
zero overhead, and transparent retry of transient faults.

The acceptance bar: an injected fail-stop crash in any pipeline stage
must still complete via stage checkpoint-restart with one rank fewer,
and the recovered model must equal the fault-free serial oracle.
"""

import dataclasses

import numpy as np
import pytest

from repro.engine import (
    EngineConfig,
    ParallelTextEngine,
    SerialTextEngine,
    parallel,
)
from repro.runtime import (
    CrashFault,
    FaultPlan,
    RankFailedError,
    RpcFlakeFault,
    StragglerFault,
)

NPROCS = 4


@pytest.fixture(scope="module")
def serial_oracle(pubmed_small, small_config):
    return SerialTextEngine(small_config).run(pubmed_small)


@pytest.fixture(scope="module")
def fault_free(pubmed_small, small_config):
    return ParallelTextEngine(NPROCS, config=small_config).run(pubmed_small)


@pytest.fixture(scope="module")
def stage_mid_times(fault_free):
    """Virtual times landing mid-way through each pipeline stage,
    derived from a fault-free run's component timings."""
    cs = fault_free.timings.component_seconds
    scan = cs.get("scan", 0.0)
    index = cs.get("index", 0.0)
    topic = cs.get("topic", 0.0)
    sig = cs.get("am", 0.0) + cs.get("docvec", 0.0)
    clusproj = cs.get("clusproj", 0.0)
    return {
        "scan": 0.5 * scan,
        "index": scan + 0.5 * index,
        "topic": scan + index + 0.5 * topic,
        "sig": scan + index + topic + 0.5 * sig,
        # not checkpointed itself: recovery replays it from "sig"
        "clusproj": scan + index + topic + sig + 0.5 * clusproj,
    }


def _assert_model_equals_oracle(result, oracle):
    assert result.n_docs == oracle.n_docs
    assert result.vocab_size == oracle.vocab_size
    assert result.major_term_strings == oracle.major_term_strings
    assert result.topic_term_strings == oracle.topic_term_strings
    np.testing.assert_array_equal(result.association, oracle.association)
    np.testing.assert_array_equal(result.signatures, oracle.signatures)
    assert result.null_fraction == oracle.null_fraction
    assert result.term_stats == oracle.term_stats
    np.testing.assert_allclose(result.centroids, oracle.centroids, atol=1e-8)
    np.testing.assert_allclose(result.coords, oracle.coords, atol=1e-7)


@pytest.mark.parametrize(
    "stage", ["scan", "index", "topic", "sig", "clusproj"]
)
def test_crash_in_each_stage_recovers_to_oracle(
    pubmed_small, small_config, serial_oracle, stage_mid_times, stage
):
    """A rank dies mid-stage; the run restarts on the survivors from
    the last completed checkpoint and still matches the serial model."""
    plan = FaultPlan(
        faults=(CrashFault(rank=2, at_time=stage_mid_times[stage]),)
    )
    cfg = dataclasses.replace(small_config, fault_plan=plan)
    result = ParallelTextEngine(NPROCS, config=cfg).run(pubmed_small)

    _assert_model_equals_oracle(result, serial_oracle)
    rec = result.meta["recovery"]
    assert rec["restarts"] == 1
    assert rec["final_nprocs"] == NPROCS - 1
    (attempt,) = rec["failed_attempts"]
    assert attempt["nprocs"] == NPROCS
    assert attempt["failed_ranks"] == [2]
    assert attempt["wall_time"] > 0.0


def test_two_successive_crashes_recover(
    pubmed_small, small_config, serial_oracle, stage_mid_times, tmp_path
):
    """Crashes in two different attempts: P -> P-1 -> P-2."""
    plan = FaultPlan(
        faults=(
            CrashFault(rank=1, at_time=stage_mid_times["index"]),
            CrashFault(rank=2, at_call=40),
        )
    )
    cfg = dataclasses.replace(
        small_config, fault_plan=plan, checkpoint_dir=str(tmp_path / "ck")
    )
    result = ParallelTextEngine(NPROCS, config=cfg).run(pubmed_small)
    _assert_model_equals_oracle(result, serial_oracle)
    rec = result.meta["recovery"]
    assert rec["restarts"] == 2
    assert rec["final_nprocs"] == NPROCS - 2
    assert len(rec["failed_attempts"]) == 2


def test_recovered_run_is_deterministic(
    pubmed_small, small_config, stage_mid_times
):
    """Same seed + same plan => bit-identical results and timings."""
    plan = FaultPlan(
        faults=(CrashFault(rank=3, at_time=stage_mid_times["index"]),)
    )
    cfg = dataclasses.replace(small_config, fault_plan=plan)
    r1 = ParallelTextEngine(NPROCS, config=cfg).run(pubmed_small)
    r2 = ParallelTextEngine(NPROCS, config=cfg).run(pubmed_small)
    np.testing.assert_array_equal(r1.signatures, r2.signatures)
    np.testing.assert_array_equal(r1.coords, r2.coords)
    np.testing.assert_array_equal(r1.assignments, r2.assignments)
    assert r1.timings.wall_time == r2.timings.wall_time
    assert r1.timings.component_seconds == r2.timings.component_seconds
    assert r1.meta["recovery"] == r2.meta["recovery"]


def test_empty_plan_is_zero_overhead(
    pubmed_small, small_config, fault_free
):
    """Arming the fault subsystem with no faults changes nothing:
    identical virtual times and identical results."""
    cfg = dataclasses.replace(small_config, fault_plan=FaultPlan())
    armed = ParallelTextEngine(NPROCS, config=cfg).run(pubmed_small)
    np.testing.assert_array_equal(armed.signatures, fault_free.signatures)
    np.testing.assert_array_equal(armed.coords, fault_free.coords)
    assert armed.timings.wall_time == fault_free.timings.wall_time
    assert (
        armed.timings.component_seconds
        == fault_free.timings.component_seconds
    )
    assert "recovery" in armed.meta  # armed runs do report recovery
    assert armed.meta["recovery"]["restarts"] == 0


def test_rpc_flakes_are_transparently_retried(
    pubmed_small, small_config, serial_oracle
):
    """Transient hashmap-insert RPC failures are absorbed by the
    retry-with-backoff policy: same model, slightly later clock."""
    plan = FaultPlan(
        faults=(RpcFlakeFault(rank=1, nth_calls=(1, 2, 5)),)
    )
    cfg = dataclasses.replace(small_config, fault_plan=plan)
    result = ParallelTextEngine(NPROCS, config=cfg).run(pubmed_small)
    _assert_model_equals_oracle(result, serial_oracle)
    assert result.meta["recovery"]["restarts"] == 0


def test_straggler_changes_time_not_model(
    pubmed_small, small_config, serial_oracle, fault_free
):
    plan = FaultPlan(faults=(StragglerFault(rank=1, factor=3.0),))
    cfg = dataclasses.replace(small_config, fault_plan=plan)
    result = ParallelTextEngine(NPROCS, config=cfg).run(pubmed_small)
    _assert_model_equals_oracle(result, serial_oracle)
    assert result.timings.wall_time > fault_free.timings.wall_time


def test_restart_budget_exhaustion_raises(
    pubmed_small, small_config, stage_mid_times, monkeypatch
):
    plan = FaultPlan(
        faults=(CrashFault(rank=2, at_time=stage_mid_times["scan"]),)
    )
    cfg = dataclasses.replace(small_config, fault_plan=plan)
    monkeypatch.setattr(parallel, "MAX_RESTARTS", 0)
    with pytest.raises(RankFailedError):
        ParallelTextEngine(NPROCS, config=cfg).run(pubmed_small)
