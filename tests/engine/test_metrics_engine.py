"""Engine-level metrics: the determinism oracle and report contents.

The issue's acceptance criterion: the full metrics dict of a P=8
pipeline run must be bit-identical between the fastpath scheduler and
``REPRO_SCHED_SLOWPATH=1``, and across repeated runs at the same seed.
The snapshot is also checked for the reportable content (comm matrix,
per-stage imbalance, hashmap locality) and for persistence round-trip
through ``save_result``/``load_result``.
"""

import json

import numpy as np
import pytest

from repro.bench.harness import default_figure_config
from repro.datasets import generate_pubmed
from repro.engine import load_result, save_result
from repro.engine.parallel import ParallelTextEngine
from repro.runtime.machine import MachineSpec
from repro.runtime.metrics import (
    comm_matrix,
    counter_totals,
    render_report,
    stage_imbalance,
    validate_snapshot,
)
from repro.runtime.scheduler import SLOWPATH_ENV

NPROCS = 8


def _run_pipeline(monkeypatch, slowpath: bool):
    if slowpath:
        monkeypatch.setenv(SLOWPATH_ENV, "1")
    else:
        monkeypatch.delenv(SLOWPATH_ENV, raising=False)
    corpus = generate_pubmed(
        60_000, seed=11, represented_bytes=60_000_000.0
    )
    eng = ParallelTextEngine(
        NPROCS, machine=MachineSpec(), config=default_figure_config()
    )
    return eng.run(corpus)


@pytest.fixture(scope="module")
def fast_result():
    corpus = generate_pubmed(
        60_000, seed=11, represented_bytes=60_000_000.0
    )
    eng = ParallelTextEngine(
        NPROCS, machine=MachineSpec(), config=default_figure_config()
    )
    return eng.run(corpus)


def _digest(snap) -> bytes:
    return json.dumps(snap, sort_keys=True).encode()


def test_metrics_bit_identical_fast_vs_slowpath_and_repeated(
    monkeypatch, fast_result
):
    """The acceptance-criterion test: one digest, three mechanisms."""
    fast_again = _run_pipeline(monkeypatch, slowpath=False)
    slow = _run_pipeline(monkeypatch, slowpath=True)
    d0 = _digest(fast_result.metrics)
    assert d0 == _digest(fast_again.metrics), (
        "metrics drifted between two fastpath runs at the same seed"
    )
    assert d0 == _digest(slow.metrics), (
        "metrics differ between fastpath and REPRO_SCHED_SLOWPATH=1"
    )


def test_snapshot_schema_and_shape(fast_result):
    snap = validate_snapshot(fast_result.metrics)
    assert snap["nprocs"] == NPROCS
    # every subsystem the pipeline exercises reported something (the
    # engine is all-collective/RPC/one-sided; raw p2p stays empty)
    for family in (
        "comm.coll.calls",
        "comm.coll.bytes",
        "comm.rpc.calls",
        "comm.rpc.bytes",
        "hashmap.ops",
        "taskq.chunks",
        "sched.blocked_seconds",
    ):
        assert snap["counters"][family]["values"], family
    assert snap["histograms"]["sched.block_seconds"]["values"]


def test_comm_matrix_is_p_by_p(fast_result):
    m = comm_matrix(fast_result.metrics, "bytes")
    assert m.shape == (NPROCS, NPROCS)
    assert m.sum() > 0
    msgs = comm_matrix(fast_result.metrics, "messages")
    assert msgs.shape == (NPROCS, NPROCS)


def test_stage_imbalance_covers_pipeline_stages(fast_result):
    out = stage_imbalance(fast_result.metrics)
    for stage in ("scan", "index", "topic", "am", "docvec", "clusproj"):
        assert stage in out, stage
        assert out[stage]["imbalance"] >= 1.0 - 1e-12
        assert out[stage]["max_busy"] >= out[stage]["mean_busy"] - 1e-12


def test_hashmap_locality_reported(fast_result):
    snap = fast_result.metrics
    ops = {"local": 0.0, "remote": 0.0}
    for e in snap["counters"]["hashmap.ops"]["values"]:
        if e["key"][0] == "vocab":
            ops[e["key"][1]] += e["value"]
    retries = sum(
        e["value"]
        for e in snap["counters"]["hashmap.rpc_retries"]["values"]
        if e["key"][0] == "vocab"
    )
    total = ops["local"] + ops["remote"]
    assert total > 0
    assert (
        f"  vocab: {ops['local']:.0f} local / {ops['remote']:.0f} remote "
        f"({ops['local'] / total:.1%} local), {retries:.0f} retries"
    ) in render_report(snap).splitlines()


def test_stage_sections_match_tracer_totals(fast_result):
    """Stage seconds in the snapshot come from the same clocks as the
    StageTimings components."""
    snap = fast_result.metrics
    comp = fast_result.timings.component_seconds
    for stage in ("scan", "topic", "am", "docvec", "clusproj"):
        recorded = max(snap["stages"][stage]["seconds"])
        assert recorded == pytest.approx(comp[stage], rel=1e-9), stage


def test_blocked_never_exceeds_stage_seconds(fast_result):
    for stage, st in fast_result.metrics["stages"].items():
        for sec, blocked in zip(st["seconds"], st["blocked_seconds"]):
            assert blocked <= sec + 1e-9, stage


def test_render_report_prints_required_sections(fast_result):
    text = render_report(fast_result.metrics)
    assert f"P={NPROCS}" in text
    assert "communication matrix" in text
    assert "load balance" in text
    assert "hashmap RPC locality" in text
    assert "task queues" in text


def test_metrics_persist_roundtrip(fast_result, tmp_path):
    path = tmp_path / "result.npz"
    save_result(fast_result, path)
    back = load_result(path)
    assert back.metrics is not None
    assert _digest(back.metrics) == _digest(fast_result.metrics)
    # and untouched legacy behaviour: coords survive too
    assert np.array_equal(back.coords, fast_result.coords)


def test_counter_totals_are_positive(fast_result):
    totals = counter_totals(fast_result.metrics)
    assert totals["comm.rpc.bytes"] > 0
    assert totals["comm.coll.calls"] > 0
