"""What the serving-side bench studies record, at toy sizes.

(The mechanism they share -- whole-document compare, oracles, the
runner -- is tested once for every study in ``test_study.py``.)
"""

import copy
import json

from repro.bench.study import SCHEMA, compare, run_studies

from .conftest import TOY, TOY_LABEL


def test_measure_matrix(toy_docs):
    points = toy_docs["serving"]["points"]
    assert set(points) == {"1", "2"}
    sizes = TOY["serving"]
    total = sizes["n_clients"] * sizes["queries_per_client"]
    for p, pt in points.items():
        assert pt["nshards"] == int(p)
        assert pt["served"] + pt["rejected"] == total
        assert pt["degraded"] == 0
        assert pt["throughput"] > 0
        assert 0 < pt["p50_latency_s"] <= pt["p99_latency_s"]
        assert pt["counters"]["serve.queries"] == total
        assert pt["counters"]["serve.shard.bytes_scanned"] > 0
    # identical workload replays at every P: same query totals
    assert points["1"]["served"] == points["2"]["served"]


def test_fault_run_degrades_but_completes(toy_docs):
    doc = toy_docs["serving"]
    fault = doc["fault"]
    assert doc["oracles"] == {
        "crash_run_answers_every_query": True,
        "crash_run_degrades": True,
    }
    assert fault["point"]["nshards"] == 2
    assert fault["failed_ranks"] == [fault["crashed_rank"]]
    assert fault["point"]["degraded"] > 0
    assert fault["point"]["degraded_rate"] > 0


def test_replica_matrix_point(toy_docs):
    matrix = toy_docs["replica"]["matrix"]
    assert set(matrix) == {TOY_LABEL}
    pt = matrix[TOY_LABEL]
    assert pt["ranks"] == 6
    assert pt["replicas"] == 2
    assert pt["served"] + pt["shed"] == 4 * 3
    assert pt["degraded"] == 0
    assert pt["throughput"] > 0
    assert pt["counters"]["serve.queries"] >= pt["served"]
    assert toy_docs["replica"]["oracles"][
        "matrix_serves_or_sheds_every_query"
    ]


def test_failover_study(toy_docs):
    doc = toy_docs["replica"]
    failover = doc["failover"]
    # the crash-masked run answers everything exactly like the
    # fault-free run; the single-replica control reproduces the
    # degradation the tier exists to prevent
    assert failover["fault_r2"]["degraded"] == 0
    assert failover["fault_r2"]["failovers"] >= 1
    assert failover["fault_r1"]["degraded"] > 0
    assert failover["baseline"]["degraded"] == 0
    assert failover["crashed_rank"] == 1 + 2 + failover["crashed_worker"]
    assert all(doc["oracles"].values())
    assert {
        "r2_crash_run_not_degraded",
        "r2_crash_run_fails_over",
        "r2_crash_run_equals_fault_free",
        "r1_crash_run_degrades",
    } <= set(doc["oracles"])


def test_workbench_study(toy_docs):
    doc = toy_docs["workbench"]
    assert doc["oracles"] == {
        "transcripts_equal_across_shards": True,
        "transcript_equal_under_slowpath": True,
    }
    assert set(doc["points"]) == {"1", "2"}
    for pt in doc["points"].values():
        assert pt["served"] > 0
        assert pt["sessions_opened"] > 0
        assert pt["throughput"] > 0
        # the tight study quotas shed at least one open, and the
        # paused sessions idle past the TTL
        assert pt["quota_shed"] > 0
        assert pt["sessions_evicted"] > 0
        assert pt["counters"]["workbench.sessions.opened"] == (
            pt["sessions_opened"]
        )
    # the same workload replays at every count
    assert len({pt["served"] for pt in doc["points"].values()}) == 1


def test_dashboard_study(toy_docs):
    doc = toy_docs["dashboard"]
    assert doc["oracles"] == {
        "answers_equal_across_shards": True,
        "answers_equal_under_slowpath": True,
        "equal_under_mp": True,
        "churn_answers_equal_under_slowpath": True,
    }
    assert doc["churn"]["live_compactions"] > 0
    assert doc["churn"]["point"]["served"] > 0
    points = doc["points"]
    assert set(points) == {"1", "2", "4"}
    for pt in points.values():
        assert pt["served"] > 0
        assert pt["counters"]["facets.windows"] > 0
        assert pt["counters"]["facets.bytes_scanned"] > 0
    # the same poll transcript replays at every count
    assert len({pt["served"] for pt in points.values()}) == 1
    assert (
        len({pt["counters"]["facets.windows"] for pt in points.values()})
        == 1
    )


def test_pruning_study_small(toy_docs):
    doc = toy_docs["pruning"]
    runs = doc["runs"]
    assert set(runs) == {"blockmax-b1", "blockmax-b4"}
    for label in ("blockmax-b1", "blockmax-b4"):
        assert doc["oracles"][f"{label}_equals_reference"] is True
        assert "pruned" not in runs[label]
        assert runs[label]["served"] == runs["blockmax-b1"]["served"]
        assert runs[label]["info"]["wall_s"] > 0
    assert doc["n_docs"] > 0


def test_measure_is_deterministic(toy_docs, run_toy):
    # test_study.py reruns every study through compare(); a study
    # without wall clocks is equal as a plain value too
    for name in ("serving", "replica", "workbench"):
        assert run_toy(name) == toy_docs[name]


def _paths(drifts):
    return [d.path for d in drifts]


def _perturb(doc, *path, by=1):
    doc = copy.deepcopy(doc)
    holder = doc
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] += by
    return doc


def test_compare_exact_match_passes(toy_docs):
    doc = toy_docs["serving"]
    assert compare(json.loads(json.dumps(doc)), doc) == []


def test_compare_flags_any_drift(toy_docs):
    doc = toy_docs["serving"]
    drifted = _perturb(doc, "points", "2", "throughput", by=-1.0)
    assert _paths(compare(drifted, doc)) == ["points.2.throughput"]
    drifted = _perturb(doc, "fault", "point", "degraded")
    assert _paths(compare(drifted, doc)) == ["fault.point.degraded"]
    # counters were recorded but never compared before
    drifted = _perturb(doc, "points", "1", "counters", "serve.cache.hit")
    assert _paths(compare(drifted, doc)) == [
        "points.1.counters.serve.cache.hit"
    ]


def test_compare_flags_replica_drift(toy_docs):
    doc = toy_docs["replica"]
    drifted = _perturb(doc, "matrix", TOY_LABEL, "failovers", by=2)
    drifted = _perturb(drifted, "matrix", TOY_LABEL, "shed")
    assert _paths(compare(drifted, doc)) == [
        f"matrix.{TOY_LABEL}.shed",
        f"matrix.{TOY_LABEL}.failovers",
    ]
    drifted = _perturb(doc, "failover", "fault_r2", "hedges", by=3)
    assert _paths(compare(drifted, doc)) == ["failover.fault_r2.hedges"]
    # a field the old per-field tuple forgot
    drifted = _perturb(doc, "matrix", TOY_LABEL, "suspicions")
    assert _paths(compare(drifted, doc)) == [
        f"matrix.{TOY_LABEL}.suspicions"
    ]


def test_compare_flags_workbench_drift(toy_docs):
    doc = toy_docs["workbench"]
    drifted = _perturb(doc, "points", "2", "sessions_evicted")
    assert _paths(compare(drifted, doc)) == ["points.2.sessions_evicted"]


def test_compare_flags_dashboard_drift(toy_docs):
    doc = toy_docs["dashboard"]
    drifted = _perturb(
        doc, "points", "2", "counters", "facets.emerging_hits"
    )
    assert _paths(compare(drifted, doc)) == [
        "points.2.counters.facets.emerging_hits"
    ]
    # the churn run's point was recorded but never compared before
    drifted = _perturb(doc, "churn", "point", "p99_latency_s", by=1e-9)
    assert _paths(compare(drifted, doc)) == ["churn.point.p99_latency_s"]


def test_compare_flags_pruning_drift(toy_docs):
    doc = toy_docs["pruning"]
    blocks = ("runs", "blockmax-b1", "counters", "serve.shard.blocks_skipped")
    drifted = _perturb(doc, *blocks)
    assert _paths(compare(drifted, doc)) == [".".join(blocks)]
    # wall-clock is machine-local: never compared against the baseline
    walled = _perturb(doc, "runs", "blockmax-b1", "info", "wall_s", by=9.9)
    assert compare(walled, doc) == []


def test_build_report_schema(tmp_path, toy_docs, canned):
    for name in ("serving", "replica"):
        canned(name, toy_docs[name])
    out = tmp_path / "b.json"
    assert run_studies(["serving", "replica"], out=out, progress=None) == 0
    report = json.loads(out.read_text())
    assert report["schema"] == SCHEMA
    assert set(report) == {"schema", "commit", "env", "studies"}
    assert report["studies"] == {
        "serving": toy_docs["serving"],
        "replica": toy_docs["replica"],
    }


def test_run_bench_baseline_cycle(tmp_path, toy_docs, canned):
    canned("serving", toy_docs["serving"])
    out = tmp_path / "b.json"
    assert run_studies(
        ["serving"], out=out, update_baseline=True, progress=None
    ) == 0
    # identical rerun against its own baseline: no drift
    assert run_studies(["serving"], out=out, progress=None) == 0
    assert "baseline" not in json.loads(out.read_text())
    again = tmp_path / "b2.json"
    assert run_studies(
        ["serving"], out=again, baseline=out, progress=None
    ) == 0
    assert json.loads(again.read_text())["baseline"]["drift"] == []


def _rerun_against_perturbed_file(tmp_path, canned, name, doc, *path):
    canned(name, doc)
    out = tmp_path / "b.json"
    assert run_studies(
        [name], out=out, update_baseline=True, progress=None
    ) == 0
    report = json.loads(out.read_text())
    report["studies"][name] = _perturb(doc, *path, by=1.0)
    out.write_text(json.dumps(report))
    messages = []
    rc = run_studies([name], out=out, progress=messages.append)
    return rc, [m for m in messages if m.startswith("DRIFT")]


def test_run_bench_detects_drift(tmp_path, toy_docs, canned):
    rc, drift = _rerun_against_perturbed_file(
        tmp_path,
        canned,
        "serving",
        toy_docs["serving"],
        "points",
        "2",
        "throughput",
    )
    assert rc == 1
    assert len(drift) == 1
    assert drift[0].startswith("DRIFT serving.points.2.throughput: ")


def test_run_bench_detects_replica_drift(tmp_path, toy_docs, canned):
    rc, drift = _rerun_against_perturbed_file(
        tmp_path,
        canned,
        "replica",
        toy_docs["replica"],
        "matrix",
        TOY_LABEL,
        "p99_latency_s",
    )
    assert rc == 1
    assert len(drift) == 1
    assert drift[0].startswith(
        f"DRIFT replica.matrix.{TOY_LABEL}.p99_latency_s: "
    )
