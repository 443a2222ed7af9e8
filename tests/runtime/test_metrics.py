"""Unit tests for the deterministic metrics registry and snapshot ops."""

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import Cluster
from repro.runtime.metrics import (
    SCHEMA,
    MetricsRegistry,
    MetricsSchemaError,
    comm_matrix,
    counter_totals,
    merge_snapshots,
    render_report,
    stage_imbalance,
    to_prometheus,
    validate_snapshot,
)


def _empty_snapshot(nprocs=2):
    return MetricsRegistry(nprocs).snapshot()


class TestRegistry:
    def test_counter_accumulates_per_rank_and_key(self):
        reg = MetricsRegistry(2)
        fam = reg.counter("comm.p2p.bytes", ("peer", "dir"))
        fam.inc(0, 10.0, key=(1, "sent"))
        fam.inc(0, 5.0, key=(1, "sent"))
        fam.inc(1, 7.0, key=(0, "recv"))
        snap = reg.snapshot()
        vals = snap["counters"]["comm.p2p.bytes"]["values"]
        assert vals == [
            {"rank": 0, "key": [1, "sent"], "value": 15.0},
            {"rank": 1, "key": [0, "recv"], "value": 7.0},
        ]

    def test_gauge_set_overwrites(self):
        reg = MetricsRegistry(1)
        g = reg.gauge("mem.high_water")
        g.set(0, 10.0)
        g.set(0, 4.0)
        snap = reg.snapshot()
        assert snap["gauges"]["mem.high_water"]["values"][0]["value"] == 4.0

    def test_histogram_buckets_sum_count(self):
        reg = MetricsRegistry(1)
        h = reg.histogram("lat", bounds=(1.0, 10.0))
        for v in (0.5, 2.0, 5.0, 100.0):
            h.observe(0, v)
        e = reg.snapshot()["histograms"]["lat"]["values"][0]
        assert e["counts"] == [1, 2, 1]  # <=1, <=10, overflow
        assert e["sum"] == pytest.approx(107.5)
        assert e["count"] == 4

    def test_family_reregistration_is_idempotent(self):
        reg = MetricsRegistry(1)
        a = reg.counter("x", ("l",))
        b = reg.counter("x", ("l",))
        assert a is b

    def test_family_shape_conflict_raises(self):
        reg = MetricsRegistry(1)
        reg.counter("x", ("l",))
        with pytest.raises(ValueError, match="re-registered"):
            reg.counter("x", ("other",))
        with pytest.raises(ValueError, match="re-registered"):
            reg.gauge("x", ("l",))

    def test_rank_totals_and_deltas(self):
        reg = MetricsRegistry(2)
        fam = reg.counter("c", ("k",))
        fam.inc(0, 3.0, key=("a",))
        before = reg.rank_totals(0)
        fam.inc(0, 2.0, key=("a",))
        fam.inc(0, 1.0, key=("b",))
        fam.inc(1, 9.0, key=("a",))  # other rank: not in rank-0 delta
        deltas = reg.rank_deltas(0, before)
        assert deltas == {("c", ("a",)): 2.0, ("c", ("b",)): 1.0}

    def test_record_stage_accumulates(self):
        reg = MetricsRegistry(2)
        reg.record_stage("scan", 0, 2.0, 0.5, {("c", ()): 3.0})
        reg.record_stage("scan", 0, 1.0, 0.25, {("c", ()): 1.0})
        reg.record_stage("scan", 1, 4.0, 0.0, {})
        st = reg.snapshot()["stages"]["scan"]
        assert st["seconds"] == [3.0, 4.0]
        assert st["blocked_seconds"] == [0.75, 0.0]
        assert st["counters"]["c"]["values"] == [
            {"rank": 0, "key": [], "value": 4.0}
        ]


class TestSnapshotSchema:
    def test_roundtrip_through_json(self):
        reg = MetricsRegistry(2)
        reg.counter("c", ("peer",)).inc(0, 2.0, key=(1,))
        reg.histogram("h", bounds=(1.0,)).observe(1, 0.5)
        reg.gauge("g").set(0, 3.0)
        reg.record_stage("s", 0, 1.0, 0.5, {("c", (1,)): 2.0})
        snap = reg.snapshot()
        back = json.loads(json.dumps(snap))
        assert back == snap
        validate_snapshot(back)

    def test_schema_version_bump_detected(self):
        snap = _empty_snapshot()
        snap["schema"] = "repro-metrics/2"
        with pytest.raises(MetricsSchemaError, match="repro-metrics/2"):
            validate_snapshot(snap)

    def test_missing_section_detected(self):
        snap = _empty_snapshot()
        del snap["counters"]
        with pytest.raises(MetricsSchemaError, match="counters"):
            validate_snapshot(snap)

    def test_non_dict_rejected(self):
        with pytest.raises(MetricsSchemaError):
            validate_snapshot([1, 2, 3])

    def test_current_schema_constant(self):
        assert _empty_snapshot()["schema"] == SCHEMA == "repro-metrics/1"


def _snap_from_events(events, nprocs=2):
    """Build a snapshot from (rank, key, value) counter events."""
    reg = MetricsRegistry(nprocs)
    fam = reg.counter("c", ("peer", "dir"))
    hist = reg.histogram("h", bounds=(1.0, 10.0))
    for rank, peer, value in events:
        fam.inc(rank, value, key=(peer, "sent"))
        hist.observe(rank, abs(value))
    return reg.snapshot()


# Values are dyadic (multiples of 0.5) so float64 addition is exact:
# the associativity/commutativity assertions compare canonical JSON
# byte-for-byte, which arbitrary floats would violate in the last ULP.
_event = st.tuples(
    st.integers(0, 1),
    st.integers(0, 1),
    st.integers(-200, 200).map(lambda n: n / 2.0),
)


class TestMerge:
    def test_counters_add_gauges_max(self):
        a = MetricsRegistry(2)
        a.counter("c").inc(0, 1.0)
        a.gauge("g").set(0, 5.0)
        b = MetricsRegistry(2)
        b.counter("c").inc(0, 2.0)
        b.gauge("g").set(0, 3.0)
        m = merge_snapshots(a.snapshot(), b.snapshot())
        assert m["counters"]["c"]["values"][0]["value"] == 3.0
        assert m["gauges"]["g"]["values"][0]["value"] == 5.0

    def test_disjoint_families_union(self):
        a = MetricsRegistry(2)
        a.counter("only_a").inc(0, 1.0)
        b = MetricsRegistry(2)
        b.counter("only_b").inc(1, 2.0)
        m = merge_snapshots(a.snapshot(), b.snapshot())
        assert set(m["counters"]) == {"only_a", "only_b"}

    def test_stage_sections_merge(self):
        a = MetricsRegistry(2)
        a.record_stage("s", 0, 1.0, 0.5, {("c", ()): 1.0})
        b = MetricsRegistry(2)
        b.record_stage("s", 0, 2.0, 0.0, {("c", ()): 4.0})
        b.record_stage("t", 1, 3.0, 0.0, {})
        m = merge_snapshots(a.snapshot(), b.snapshot())
        assert m["stages"]["s"]["seconds"] == [3.0, 0.0]
        assert m["stages"]["s"]["counters"]["c"]["values"][0]["value"] == 5.0
        assert m["stages"]["t"]["seconds"] == [0.0, 3.0]

    def test_nprocs_mismatch_rejected(self):
        with pytest.raises(MetricsSchemaError, match="nprocs"):
            merge_snapshots(_empty_snapshot(2), _empty_snapshot(4))

    def test_histogram_bounds_mismatch_rejected(self):
        a = MetricsRegistry(1)
        a.histogram("h", bounds=(1.0,)).observe(0, 0.5)
        b = MetricsRegistry(1)
        b.histogram("h", bounds=(2.0,)).observe(0, 0.5)
        with pytest.raises(MetricsSchemaError, match="bounds"):
            merge_snapshots(a.snapshot(), b.snapshot())

    @settings(max_examples=50, deadline=None)
    @given(
        xs=st.lists(_event, max_size=12),
        ys=st.lists(_event, max_size=12),
        zs=st.lists(_event, max_size=12),
    )
    def test_merge_associative_and_commutative(self, xs, ys, zs):
        """(a+b)+c == a+(b+c) and a+b == b+a, byte for byte.

        This is what makes partial snapshots aggregatable in any
        order (the hypothesis-property satellite of the issue).
        """
        a, b, c = (
            _snap_from_events(ev) for ev in (xs, ys, zs)
        )

        def digest(s):
            return json.dumps(s, sort_keys=True)

        left = merge_snapshots(merge_snapshots(a, b), c)
        right = merge_snapshots(a, merge_snapshots(b, c))
        assert digest(left) == digest(right)
        assert digest(merge_snapshots(a, b)) == digest(
            merge_snapshots(b, a)
        )

    @settings(max_examples=25, deadline=None)
    @given(xs=st.lists(_event, max_size=12))
    def test_merge_with_empty_is_identity(self, xs):
        a = _snap_from_events(xs)
        merged = merge_snapshots(a, _empty_snapshot())
        assert json.dumps(merged["counters"], sort_keys=True) == json.dumps(
            a["counters"], sort_keys=True
        )

    @settings(max_examples=25, deadline=None)
    @given(
        xs=st.lists(_event, max_size=10), ys=st.lists(_event, max_size=10)
    )
    def test_split_then_merge_equals_combined(self, xs, ys):
        """Recording events in one registry == merging two halves."""
        combined = _snap_from_events(xs + ys)
        merged = merge_snapshots(
            _snap_from_events(xs), _snap_from_events(ys)
        )
        ca = combined["counters"]["c"]["values"]
        cm = merged["counters"]["c"]["values"]
        assert [(e["rank"], e["key"]) for e in ca] == [
            (e["rank"], e["key"]) for e in cm
        ]
        for ea, em in zip(ca, cm):
            assert em["value"] == pytest.approx(ea["value"], abs=1e-9)


class TestDerivedReports:
    def _loaded_registry(self):
        reg = MetricsRegistry(2)
        p2p = reg.counter("comm.p2p.bytes", ("peer", "dir"))
        p2p.inc(0, 100.0, key=(1, "sent"))
        p2p.inc(1, 100.0, key=(0, "recv"))  # same transfer, recv side
        rpc = reg.counter("comm.rpc.bytes", ("peer", "dir"))
        rpc.inc(0, 10.0, key=(1, "out"))
        rpc.inc(0, 6.0, key=(1, "in"))  # response flows 1 -> 0
        one = reg.counter("comm.onesided.bytes", ("peer", "dir"))
        one.inc(0, 50.0, key=(1, "get"))  # data flows 1 -> 0
        one.inc(0, 25.0, key=(0, "put"))  # local window: diagonal
        return reg

    def test_comm_matrix_bytes_directionality(self):
        m = comm_matrix(self._loaded_registry().snapshot(), "bytes")
        assert m[0][1] == 110.0  # p2p sent + rpc out
        assert m[1][0] == 56.0  # rpc response + one-sided get
        assert m[0][0] == 25.0  # local one-sided on the diagonal

    def test_comm_matrix_messages(self):
        reg = MetricsRegistry(2)
        msgs = reg.counter("comm.p2p.messages", ("peer", "dir"))
        msgs.inc(0, 3.0, key=(1, "sent"))
        msgs.inc(1, 3.0, key=(0, "recv"))
        reg.counter("comm.rpc.calls", ("peer",)).inc(1, 2.0, key=(0,))
        m = comm_matrix(reg.snapshot(), "messages")
        assert m[0][1] == 3.0
        assert m[1][0] == 2.0

    def test_comm_matrix_unknown_metric(self):
        with pytest.raises(ValueError):
            comm_matrix(_empty_snapshot(), "frobs")

    def test_stage_imbalance(self):
        reg = MetricsRegistry(2)
        reg.record_stage("s", 0, 10.0, 2.0, {})  # busy 8
        reg.record_stage("s", 1, 10.0, 6.0, {})  # busy 4
        out = stage_imbalance(reg.snapshot())
        assert out["s"]["max_busy"] == 8.0
        assert out["s"]["mean_busy"] == 6.0
        assert out["s"]["imbalance"] == pytest.approx(8.0 / 6.0)

    def test_stage_imbalance_zero_busy_is_balanced(self):
        reg = MetricsRegistry(2)
        reg.record_stage("s", 0, 0.0, 0.0, {})
        assert stage_imbalance(reg.snapshot())["s"]["imbalance"] == 1.0

    def test_hashmap_locality(self):
        reg = MetricsRegistry(2)
        ops = reg.counter("hashmap.ops", ("map", "locality"))
        ops.inc(0, 3.0, key=("vocab", "local"))
        ops.inc(0, 9.0, key=("vocab", "remote"))
        reg.counter("hashmap.rpc_retries", ("map",)).inc(
            0, 2.0, key=("vocab",)
        )
        lines = render_report(reg.snapshot()).splitlines()
        at = lines.index("distributed hashmap RPC locality:")
        assert lines[at + 1:] == [
            "  vocab: 3 local / 9 remote (25.0% local), 2 retries"
        ]

    def test_taskqueue_summary(self):
        reg = MetricsRegistry(2)
        ch = reg.counter("taskq.chunks", ("queue", "kind"))
        ch.inc(0, 4.0, key=("ifi", "own"))
        ch.inc(1, 2.0, key=("ifi", "stolen"))
        reg.counter("taskq.tasks", ("queue", "kind")).inc(
            0, 12.0, key=("ifi", "own")
        )
        reg.counter("taskq.lease_reclaims", ("queue",)).inc(
            1, 1.0, key=("ifi",)
        )
        lines = render_report(reg.snapshot()).splitlines()
        at = lines.index("task queues (dynamic load balancing):")
        assert lines[at + 1:] == [
            "  ifi: 4 own + 2 stolen chunks (12 tasks), 1 lease reclaims"
        ]

    def test_counter_totals(self):
        reg = self._loaded_registry()
        totals = counter_totals(reg.snapshot())
        assert totals["comm.p2p.bytes"] == 200.0
        assert totals["comm.onesided.bytes"] == 75.0

    def test_render_report_mentions_all_sections(self):
        reg = self._loaded_registry()
        reg.counter("hashmap.ops", ("map", "locality")).inc(
            0, 1.0, key=("vocab", "local")
        )
        reg.record_stage("scan", 0, 1.0, 0.2, {})
        reg.counter("comm.coll.calls", ("kind",)).inc(
            0, 1.0, key=("barrier",)
        )
        text = render_report(reg.snapshot())
        assert "communication matrix" in text
        assert "load balance" in text
        assert "vocab" in text
        assert "barrier" in text


def _report_snapshot(variant: str) -> dict:
    """A synthetic snapshot for the golden report test.

    ``full`` fills every section and turns every optional line on
    (replica tier, shed mix, shard scans, non-zero blocks skipped,
    window mix, workbench rejections, rebuild flag); ``lean`` keeps
    the sections but turns those lines off; ``bare`` is an empty P=1
    run (header and comm matrix only).
    """
    if variant == "bare":
        return MetricsRegistry(1).snapshot()
    full = variant == "full"
    reg = MetricsRegistry(3)
    c = reg.counter
    p2p = c("comm.p2p.bytes", ("peer", "dir"))
    p2p.inc(0, 4096.0, key=(1, "sent"))
    p2p.inc(1, 4096.0, key=(0, "recv"))
    p2p.inc(2, 10.0, key=(2, "sent"))
    rpc = c("comm.rpc.bytes", ("peer", "dir"))
    rpc.inc(1, 3.5e6, key=(2, "out"))
    rpc.inc(1, 700.0, key=(2, "in"))
    c("comm.onesided.bytes", ("peer", "dir")).inc(2, 2.0e9, key=(0, "get"))
    calls = c("comm.coll.calls", ("kind",))
    for r in range(3):
        calls.inc(r, 3.0, key=("allreduce",))
        calls.inc(r, 2.0, key=("barrier",))
    c("comm.coll.bytes", ("kind",)).inc(0, 1536.0, key=("allreduce",))
    for r in range(3):
        reg.record_stage("scan", r, 1.0 + r, 0.25 * r, {})
        reg.record_stage("index", r, 0.5, 0.5, {})
    ops = c("hashmap.ops", ("map", "locality"))
    ops.inc(0, 3.0, key=("vocab", "local"))
    ops.inc(1, 9.0, key=("vocab", "remote"))
    ops.inc(2, 5.0, key=("docs", "remote"))
    retries = c("hashmap.rpc_retries", ("map",))
    retries.inc(0, 2.0, key=("vocab",))
    retries.inc(1, 1.0, key=("terms",))
    chunks = c("taskq.chunks", ("queue", "kind"))
    chunks.inc(0, 4.0, key=("ifi", "own"))
    chunks.inc(1, 2.0, key=("ifi", "stolen"))
    c("taskq.tasks", ("queue", "kind")).inc(0, 12.0, key=("ifi", "own"))
    c("taskq.lease_reclaims", ("queue",)).inc(1, 1.0, key=("ifi",))
    queries = c("serve.queries", ("kind",))
    queries.inc(0, 5.0, key=("search",))
    queries.inc(1, 2.5, key=("cluster",))
    queries.inc(2, 1.0, key=("search",))
    c("serve.cache.hit").inc(0, 3.0)
    c("serve.cache.miss").inc(0, 4.0)
    c("serve.cache.evict").inc(0, 1.0)
    c("serve.rejected").inc(0, 1.0)
    c("serve.degraded").inc(0, 0.0)
    scanned = c("serve.shard.bytes_scanned", ("shard",))
    skipped = c("serve.shard.blocks_skipped", ("shard",))
    for r, shard in ((1, "0"), (2, "2"), (1, "10")):
        if full:
            scanned.inc(r, 2048.0 * (int(shard) + 1), key=(shard,))
        skipped.inc(r, float(int(shard) + 1) if full else 0.0, key=(shard,))
    if full:
        shed = c("serve.shed", ("priority",))
        shed.inc(0, 2.0, key=("1",))
        shed.inc(0, 1.0, key=("0",))
        c("serve.failover").inc(0, 2.0)
        c("serve.hedge").inc(0, 1.0)
        c("serve.replica.suspect").inc(0, 1.0)
        c("serve.replica.down").inc(0, 1.0)
    windows = c("facets.windows", ("kind",))
    if full:
        windows.inc(0, 4.0, key=("facet_counts",))
        windows.inc(0, 2.0, key=("emerging",))
    c("facets.bytes_scanned").inc(0, 123456.0)
    c("facets.emerging_hits").inc(0, 7.0)
    verbs = c("workbench.ops", ("verb",))
    verbs.inc(0, 6.0, key=("search",))
    verbs.inc(0, 2.0, key=("refine",))
    c("workbench.sessions.opened").inc(0, 3.0)
    c("workbench.sessions.closed").inc(0, 2.0)
    c("workbench.sessions.evicted").inc(0, 1.0)
    c("workbench.sets.saved").inc(0, 4.0)
    rejected = c("workbench.rejected", ("reason",))
    if full:
        rejected.inc(0, 1.0, key=("session_quota",))
        rejected.inc(0, 2.0, key=("bad_query",))
    c("workbench.artifact.hit").inc(0, 5.0)
    c("workbench.artifact.miss").inc(0, 3.0)
    c("workbench.artifact.evict").inc(0, 1.0)
    c("ingest.docs").inc(0, 40.0)
    c("ingest.null_signatures").inc(0, 2.0)
    c("ingest.generations").inc(0, 3.0)
    c("ingest.compactions").inc(0, 1.0)
    c("ingest.broker.reloads").inc(1, 2.0)
    c("ingest.rebuild_flags").inc(0, 1.0 if full else 0.0)
    return reg.snapshot()


# sha256 of each variant's rendered text, pinned when the report was
# still nine hand-written blocks: the section table must not move a byte
_REPORT_SHA256 = {
    "full": "54a30fb357404a85a78ecddb887dddd8db2da10d8e9d2cbb9d1e0ecd338025f1",
    "lean": "ddd228490e4703e89bd39ff6094d135bd12d72c80ab26cbb13708729cde9064f",
    "bare": "38d350ce44d1619f611491c7eac4a4cfe20dfe166f4cb2d7ce6a9410a7298458",
}


@pytest.mark.parametrize("variant", sorted(_REPORT_SHA256))
def test_render_report_golden(variant):
    text = render_report(_report_snapshot(variant))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == _REPORT_SHA256[variant], text


class TestPrometheus:
    def test_exposition_format(self):
        reg = MetricsRegistry(2)
        reg.counter("comm.p2p.bytes", ("peer", "dir")).inc(
            0, 42.0, key=(1, "sent")
        )
        reg.gauge("g").set(1, 7.0)
        reg.histogram("h", bounds=(1.0, 10.0)).observe(0, 2.0)
        text = to_prometheus(reg.snapshot())
        assert "# TYPE repro_comm_p2p_bytes counter" in text
        assert (
            'repro_comm_p2p_bytes{rank="0",peer="1",dir="sent"} 42.0'
            in text
        )
        assert 'repro_g{rank="1"} 7.0' in text
        # histogram buckets are cumulative and end with +Inf
        assert 'repro_h_bucket{rank="0",le="1.0"} 0' in text
        assert 'repro_h_bucket{rank="0",le="10.0"} 1' in text
        assert 'repro_h_bucket{rank="0",le="+Inf"} 1' in text
        assert 'repro_h_count{rank="0"} 1' in text


class TestRuntimeIntegration:
    def test_cluster_records_p2p_and_collectives(self):
        def program(ctx):
            if ctx.rank == 0:
                ctx.comm.send(1, b"x" * 64)
            elif ctx.rank == 1:
                ctx.comm.recv(0)
            ctx.comm.allreduce(1)

        res = Cluster(2).run(program)
        snap = res.metrics.snapshot()
        sent = {
            (e["rank"], tuple(e["key"])): e["value"]
            for e in snap["counters"]["comm.p2p.messages"]["values"]
        }
        assert sent[(0, (1, "sent"))] == 1.0
        assert sent[(1, (0, "recv"))] == 1.0
        colls = {
            tuple(e["key"])
            for e in snap["counters"]["comm.coll.calls"]["values"]
        }
        assert ("allreduce",) in colls

    def test_blocked_time_metric_matches_scheduler(self):
        def program(ctx):
            ctx.comm.barrier()
            if ctx.rank == 0:
                ctx.charge(1.0)
            ctx.comm.barrier()

        res = Cluster(2).run(program)
        snap = res.metrics.snapshot()
        by_rank = {
            e["rank"]: e["value"]
            for e in snap["counters"]["sched.blocked_seconds"]["values"]
        }
        for rank, total in enumerate(res.blocked_times):
            assert by_rank.get(rank, 0.0) == pytest.approx(float(total))

    def test_rpc_and_region_capture(self):
        def program(ctx):
            with ctx.region("work"):
                ctx.rpc((ctx.rank + 1) % ctx.nprocs, lambda: None)
            return None

        res = Cluster(2).run(program)
        snap = res.metrics.snapshot()
        rpc = snap["counters"]["comm.rpc.calls"]["values"]
        assert sum(e["value"] for e in rpc) == 2.0
        stage = snap["stages"]["work"]
        assert "comm.rpc.calls" in stage["counters"]
        assert len(stage["seconds"]) == 2

    def test_repeated_runs_bit_identical(self):
        def program(ctx):
            with ctx.region("w"):
                other = (ctx.rank + 1) % ctx.nprocs
                ctx.comm.send(other, list(range(50)))
                ctx.comm.recv_any()
                ctx.comm.allgather(ctx.rank)

        digests = []
        for _ in range(2):
            res = Cluster(4).run(program)
            digests.append(
                json.dumps(res.metrics.snapshot(), sort_keys=True)
            )
        assert digests[0] == digests[1]
