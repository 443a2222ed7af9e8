"""Broker policies: cache, admission control, fault degradation."""

import json

import pytest

from repro.runtime.faults import CrashFault, FaultPlan, StragglerFault
from repro.runtime.metrics import counter_totals, render_report
from repro.serve.broker import (
    QUERY_OPS,
    RETRIES,
    SHARD_OPS,
    TAG_REQ,
    BrokerConfig,
    execute_shard_op,
    query_store,
    serve,
)
from repro.serve.query import FACET_QUERY_KINDS, QUERY_KINDS, Query
from repro.serve.workload import ClientScript, generate_workload, store_profile


def _script(queries, think=0.0, client=0):
    return ClientScript(
        client=client,
        queries=tuple(queries),
        think_s=tuple(think for _ in queries),
    )


@pytest.fixture(scope="module")
def workload(stores):
    return generate_workload(
        store_profile(stores[4]),
        n_clients=3,
        queries_per_client=15,
        seed=11,
    )


class TestCache:
    def test_repeat_query_hits(self, stores, result):
        q = Query(kind="cluster", cluster=1)
        report = serve(stores[2], [_script([q, q, q])])
        totals = counter_totals(report.metrics)
        assert totals["serve.cache.miss"] == 1
        assert totals["serve.cache.hit"] == 2
        assert report.cache_hit_rate == pytest.approx(2 / 3)
        blobs = [
            json.dumps(r["response"], sort_keys=True)
            for r in report.responses
        ]
        assert blobs[0] == blobs[1] == blobs[2]
        assert [r["cached"] for r in report.responses] == [
            False,
            True,
            True,
        ]

    def test_hits_are_faster(self, stores):
        q = Query(kind="cluster", cluster=1)
        report = serve(stores[2], [_script([q, q])])
        assert report.latencies[1] < report.latencies[0]

    def test_eviction_counted(self, stores, result):
        queries = [
            Query(kind="cluster", cluster=c % 5, n_docs=2 + c // 5)
            for c in range(8)
        ]
        report = serve(
            stores[2],
            [_script(queries)],
            config=BrokerConfig(cache_capacity=3),
        )
        totals = counter_totals(report.metrics)
        assert totals["serve.cache.evict"] == 8 - 3
        assert totals["serve.cache.miss"] == 8

    def test_cache_disabled(self, stores):
        q = Query(kind="cluster", cluster=1)
        report = serve(
            stores[2],
            [_script([q, q])],
            config=BrokerConfig(cache_capacity=0),
        )
        totals = counter_totals(report.metrics)
        assert totals["serve.cache.hit"] == 0
        assert totals["serve.cache.miss"] == 2


class TestAdmission:
    def test_overload_rejects(self, stores):
        # 30 clients fire simultaneously at t=0: depth outruns the cap
        queries = [
            Query(kind="cluster", cluster=c % 5, n_docs=1 + c % 7)
            for c in range(30)
        ]
        scripts = [
            _script([queries[c]], client=c) for c in range(30)
        ]
        report = serve(
            stores[2],
            scripts,
            config=BrokerConfig(max_inflight=2, cache_capacity=0),
        )
        totals = counter_totals(report.metrics)
        assert totals["serve.rejected"] > 0
        assert len(report.rejected) == totals["serve.rejected"]
        assert report.served + len(report.rejected) == 30
        assert totals["serve.queries"] == 30

    def test_no_rejects_when_spread_out(self, stores):
        queries = [Query(kind="cluster", cluster=c % 5) for c in range(6)]
        report = serve(
            stores[2], [_script(queries, think=10.0)]
        )
        assert not report.rejected


class TestFaultDegradation:
    def test_crash_degrades_not_fails(self, stores, workload):
        total = sum(len(s.queries) for s in workload)
        plan = FaultPlan(
            faults=(CrashFault(rank=2, at_call=30),)
        )
        report = serve(
            stores[4],
            workload,
            config=BrokerConfig(shard_timeout_s=2.0),
            faults=plan,
        )
        # every query still answers
        assert report.served + len(report.rejected) == total
        assert report.failed_ranks == [2]
        assert report.degraded > 0
        totals = counter_totals(report.metrics)
        assert totals["serve.degraded"] > 0
        partials = [
            r["response"]
            for r in report.responses
            if r["response"].get("partial")
        ]
        assert partials, "no partial responses flagged"
        # the dead rank serves shard index 1
        assert all(
            1 in p["failed_shards"] for p in partials
        )

    def test_fault_metrics_render(self, stores, workload):
        plan = FaultPlan(faults=(CrashFault(rank=2, at_call=30),))
        report = serve(
            stores[4],
            workload,
            config=BrokerConfig(shard_timeout_s=2.0),
            faults=plan,
        )
        text = render_report(report.metrics)
        assert "serving layer" in text
        assert "degraded responses" in text

    def test_silent_shard_is_resent_then_dropped(self, stores, sent):
        """A live shard whose replies never arrive in time gets the
        round resent ``RETRIES`` times, then drops out of the answer."""
        plan = FaultPlan(
            faults=(StragglerFault(rank=2, factor=1e4),)
        )
        report = serve(
            stores[2],
            [_script([Query(kind="cluster", cluster=0)])],
            config=BrokerConfig(shard_timeout_s=1.0),
            faults=plan,
        )
        assert report.served == 1 and report.failed_ranks == []
        response = report.responses[0]["response"]
        assert response["partial"]
        assert response["failed_shards"] == [1]
        to_shard = [req for req in sent[TAG_REQ] if req[2] == 1]
        assert len(to_shard) == 1 + RETRIES
        assert len({req[0] for req in to_shard}) == 1  # one query id

    def test_crash_all_but_one_shard_still_answers(self, stores):
        queries = [
            Query(kind="query", terms=("t",), k=3),
            Query(kind="cluster", cluster=0),
            Query(kind="cluster", cluster=1),
            Query(kind="region", x=0.0, y=0.0, radius=10.0),
        ]
        plan = FaultPlan(
            faults=(
                CrashFault(rank=1, at_call=2),
                CrashFault(rank=2, at_call=2),
            )
        )
        report = serve(
            stores[2],
            [_script(queries)],
            config=BrokerConfig(shard_timeout_s=1.0),
            faults=plan,
        )
        assert report.served == len(queries)
        assert report.failed_ranks == [1, 2]
        late = report.responses[-1]["response"]
        assert late["partial"]
        assert late["failed_shards"] == [0, 1]


class TestDeterminism:
    def test_repeat_runs_identical(self, stores, workload):
        a = serve(stores[4], workload)
        b = serve(stores[4], workload)
        assert a.latencies == b.latencies
        assert a.makespan == b.makespan
        assert json.dumps(a.metrics, sort_keys=True) == json.dumps(
            b.metrics, sort_keys=True
        )

    def test_metrics_snapshot_has_serve_families(self, stores, workload):
        report = serve(stores[4], workload)
        totals = counter_totals(report.metrics)
        for family in (
            "serve.queries",
            "serve.cache.hit",
            "serve.cache.miss",
            "serve.cache.evict",
            "serve.rejected",
            "serve.degraded",
            "serve.shard.bytes_scanned",
        ):
            assert family in totals
        assert totals["serve.queries"] == sum(
            len(s.queries) for s in workload
        )
        assert totals["serve.shard.bytes_scanned"] > 0
        assert "serve.latency" in report.metrics["histograms"]


class TestReport:
    def test_percentiles_and_throughput(self, stores, workload):
        report = serve(stores[4], workload)
        p50 = report.latency_percentile(50)
        p99 = report.latency_percentile(99)
        assert 0 < p50 <= p99
        assert report.throughput > 0
        assert report.makespan > 0

    def test_query_store_single(self, stores, result):
        resp = query_store(
            stores[2], Query(kind="cluster", cluster=0)
        )
        assert resp["kind"] == "cluster"
        assert resp["size"] > 0
        assert not resp["partial"]

    def test_unknown_doc_id_is_error_not_crash(self, stores):
        resp = query_store(
            stores[2], Query(kind="similar", doc_id=10**9)
        )
        assert resp["hits"] == []
        assert "unknown doc_id" in resp["error"]

    def test_out_of_range_cluster(self, stores):
        resp = query_store(
            stores[2], Query(kind="cluster", cluster=999)
        )
        assert "out of range" in resp["error"]

    def test_bad_query_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown query kind"):
            Query(kind="bogus")


class TestOperatorTables:
    @pytest.mark.parametrize("kind", QUERY_KINDS)
    def test_every_kind_has_its_records(self, kind, stores):
        # dict keys: one record per kind, one per shard verb it names
        assert sorted(QUERY_OPS) == sorted(QUERY_KINDS)
        rec = QUERY_OPS[kind]
        assert rec.op in SHARD_OPS
        assert rec.stamped == (kind in FACET_QUERY_KINDS)
        if rec.stamped:
            # the serve fixture stores are unstamped
            resp = query_store(stores[2], Query(kind=kind, t0=0.0, t1=1.0))
            assert "store is not stamped" in resp["error"]
            assert resp["partial"] is False
            assert resp["failed_shards"] == []

    def test_unknown_shard_op_is_named(self):
        with pytest.raises(ValueError, match="unknown shard op 'bogus'"):
            execute_shard_op(None, None, [], "bogus", {})
