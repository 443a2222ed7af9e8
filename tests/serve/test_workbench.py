"""Workbench integration: analyst sessions over the serving tier.

Covers the subsystem's contracts end to end: byte-identical
transcripts across shard counts, schedulers, and execution backends;
typed quota rejections that never leave partial state; TTL eviction
tombstones; the epoch-pinned artifact cache under live ingest churn;
and mid-session crash masking on the replicated tier at R=2.
"""

import pytest

from repro.ingest.feed import FeedConfig, FeedSource
from repro.ingest.live import IngestPlan
from repro.runtime.faults import CrashFault, FaultPlan
from repro.runtime.metrics import counter_totals, render_report
from repro.serve.query import Query, canonical_response
from repro.serve.workload import store_profile
from repro.workbench import (
    WorkbenchConfig,
    WorkbenchOp,
    WorkbenchScript,
    generate_analyst_workload,
    serve_workbench,
    serve_workbench_replicated,
)
from tests.serve.conftest import ENGINE_CONFIG


def _transcript(report):
    return b"\n".join(
        canonical_response(r) for r in report.responses
    )


def _script(tenant, client, ops, think=None):
    if think is None:
        think = (0.0,) * len(ops)
    return WorkbenchScript(
        tenant=tenant,
        client=client,
        ops=tuple(ops),
        think_s=tuple(think),
    )


def _by(report, client, verb=None):
    return [
        r
        for r in report.responses
        if r["client"] == client
        and (verb is None or r["verb"] == verb)
    ]


@pytest.fixture(scope="module")
def profile(stores):
    return store_profile(stores[1])


@pytest.fixture(scope="module")
def queries(profile):
    t = profile.terms
    return (
        Query(kind="search", terms=(t[0], t[1]), k=12),
        Query(kind="search", terms=(t[2],), k=8),
    )


@pytest.fixture(scope="module")
def wb_scripts(profile):
    return generate_analyst_workload(
        profile,
        n_tenants=2,
        sessions_per_tenant=2,
        ops_per_session=6,
        seed=3,
    )


@pytest.fixture(scope="module")
def reports(stores, wb_scripts):
    return {
        p: serve_workbench(stores[p], wb_scripts) for p in (1, 2, 4)
    }


@pytest.fixture(scope="module")
def tier_report(replicated_store, wb_scripts):
    return serve_workbench_replicated(replicated_store, wb_scripts)


class TestByteIdentity:
    def test_shard_count_invariance(self, reports):
        ref = reports[1]
        assert ref.served > 0 and ref.sets_saved > 0
        for p in (2, 4):
            rep = reports[p]
            assert _transcript(rep) == _transcript(ref)
            assert rep.rejected == ref.rejected
            assert rep.sessions_opened == ref.sessions_opened
            assert rep.sessions_closed == ref.sessions_closed
            assert rep.sets_saved == ref.sets_saved
            assert rep.artifact_hits == ref.artifact_hits

    def test_mp_backend_identical(self, stores, wb_scripts, reports):
        mp = serve_workbench(stores[2], wb_scripts, backend="mp")
        assert _transcript(mp) == _transcript(reports[2])
        assert mp.rejected == reports[2].rejected

    def test_replicated_tier_takes_no_backend(
        self, replicated_store, wb_scripts
    ):
        """The failover fan-out needs ``recv_any``, which mp lacks: the
        combination is refused at the call, not inside a crashed rank."""
        with pytest.raises(TypeError, match="backend"):
            serve_workbench_replicated(
                replicated_store, wb_scripts, backend="mp"
            )

    def test_slowpath_identical(
        self, stores, wb_scripts, reports, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SCHED_SLOWPATH", "1")
        slow = serve_workbench(stores[2], wb_scripts)
        assert _transcript(slow) == _transcript(reports[2])
        # under sim both schedulers replay identical virtual time
        assert slow.makespan == reports[2].makespan

    def test_tier_payloads_match_single(self, tier_report, reports):
        """The replicated tier answers with the same bytes as the
        single broker; only the ``broker`` tag and the merge order
        differ."""

        def keyed(resps):
            out = {}
            for r in resps:
                r = dict(r)
                r.pop("broker", None)
                key = (r["tenant"], r["client"], r["seq"])
                out[key] = canonical_response(r)
            return out

        assert keyed(tier_report.responses) == keyed(
            reports[4].responses
        )

    def test_worker_crash_masked_at_r2(
        self, replicated_store, wb_scripts, tier_report
    ):
        """A worker crash mid-session is masked byte-for-byte by the
        surviving replica -- no partial responses, no rejects."""
        faulty = serve_workbench_replicated(
            replicated_store,
            wb_scripts,
            faults=FaultPlan(
                faults=(CrashFault(rank=4, at_call=10),)
            ),
        )
        assert 4 in faulty.failed_ranks
        assert _transcript(faulty) == _transcript(tier_report)
        assert all(
            not r["response"].get("partial")
            for r in faulty.responses
        )


class TestQuotas:
    def test_session_quota_typed_reject(self, stores, queries):
        q1, _ = queries
        holder = _script(
            0,
            0,
            (
                WorkbenchOp(verb="open"),
                WorkbenchOp(verb="search", name="a", query=q1),
                WorkbenchOp(verb="close"),
            ),
            think=(0.0, 0.0, 50.0),
        )
        crowded = _script(
            0, 1, (WorkbenchOp(verb="open"),), think=(1.0,)
        )
        other = _script(
            1, 2, (WorkbenchOp(verb="open"),), think=(1.0,)
        )
        rep = serve_workbench(
            stores[1],
            [holder, crowded, other],
            config=WorkbenchConfig(max_sessions=1),
        )
        assert [
            (r.tenant, r.client, r.verb, r.reason)
            for r in rep.rejected
        ] == [(0, 1, "open", "session_quota")]
        reject = _by(rep, 1)[0]["response"]
        assert reject == {
            "kind": "reject",
            "verb": "open",
            "reason": "session_quota",
        }
        # the other tenant's open is unaffected
        assert _by(rep, 2)[0]["response"] == {"kind": "open"}

    def test_set_quota_never_partial(self, stores, queries):
        q1, q2 = queries
        ops = (
            WorkbenchOp(verb="open"),
            WorkbenchOp(verb="search", name="a", query=q1),
            WorkbenchOp(verb="search", name="b", query=q2),
            WorkbenchOp(verb="search", name="a", query=q2),
            WorkbenchOp(verb="close"),
        )
        rep = serve_workbench(
            stores[1],
            [_script(0, 0, ops)],
            config=WorkbenchConfig(max_sets=1),
        )
        assert [r.reason for r in rep.rejected] == ["set_quota"]
        # overwriting the existing name stays within quota
        saved = [
            r for r in _by(rep, 0, "search")
            if r["response"].get("saved")
        ]
        assert len(saved) == 2
        close = _by(rep, 0, "close")[0]["response"]
        assert close["sets"] == ["a"]

    def test_derived_bytes_quota(self, stores, queries):
        q1, _ = queries
        ops = (
            WorkbenchOp(verb="open"),
            WorkbenchOp(verb="search", name="a", query=q1),
            WorkbenchOp(verb="keyphrases", base="a", n=8),
            WorkbenchOp(verb="close"),
        )
        rep = serve_workbench(
            stores[1],
            [_script(0, 0, ops)],
            config=WorkbenchConfig(max_derived_bytes=1),
        )
        assert [r.reason for r in rep.rejected] == [
            "derived_bytes_quota"
        ]
        # the rejection left the session and its sets intact
        assert _by(rep, 0, "close")[0]["response"]["sets"] == ["a"]
        assert rep.artifact_hits == 0

    def test_contract_rejects(self, stores, queries):
        q1, _ = queries
        bad = Query(kind="similar", doc_id=1, k=3)
        scripts = [
            # ops without an open session
            _script(
                0,
                0,
                (WorkbenchOp(verb="search", name="a", query=q1),),
            ),
            # double open, unknown operand, non-ranked set query
            _script(
                1,
                1,
                (
                    WorkbenchOp(verb="open"),
                    WorkbenchOp(verb="open"),
                    WorkbenchOp(verb="refine", name="r", base="nope",
                                query=q1),
                    WorkbenchOp(verb="search", name="s", query=bad),
                    WorkbenchOp(verb="close"),
                ),
            ),
        ]
        rep = serve_workbench(stores[1], scripts)
        assert [r.reason for r in rep.rejected] == [
            "no_session",
            "already_open",
            "unknown_set",
            "bad_query",
        ]
        for r in rep.responses:
            if r["response"]["kind"] == "reject":
                assert set(r["response"]) == {
                    "kind",
                    "verb",
                    "reason",
                }


class TestEviction:
    def test_ttl_eviction_tombstones(self, stores, queries):
        q1, _ = queries
        ops = (
            WorkbenchOp(verb="open"),
            WorkbenchOp(verb="search", name="a", query=q1),
            WorkbenchOp(verb="keyphrases", base="a", n=6),
            WorkbenchOp(verb="close"),
        )
        rep = serve_workbench(
            stores[1],
            [_script(0, 0, ops, think=(0.0, 0.0, 60.0, 0.0))],
            config=WorkbenchConfig(session_ttl_s=5.0),
        )
        # the idle sweep fires before the late derive; every op after
        # eviction gets the typed tombstone, never stale data
        assert rep.sessions_evicted == 1
        assert [r.reason for r in rep.rejected] == [
            "session_evicted",
            "session_evicted",
        ]
        assert rep.sessions_closed == 0

    def test_reopen_after_eviction(self, stores, queries):
        q1, _ = queries
        ops = (
            WorkbenchOp(verb="open"),
            WorkbenchOp(verb="open"),
            WorkbenchOp(verb="search", name="a", query=q1),
            WorkbenchOp(verb="close"),
        )
        rep = serve_workbench(
            stores[1],
            [_script(0, 0, ops, think=(0.0, 60.0, 0.0, 0.0))],
            config=WorkbenchConfig(session_ttl_s=5.0),
        )
        # a fresh open clears the tombstone; the session starts empty
        assert rep.sessions_evicted == 1
        assert not rep.rejected
        assert _by(rep, 0, "close")[0]["response"]["sets"] == ["a"]


class TestArtifactCache:
    def test_repeat_derive_hits_cache(self, stores, queries):
        q1, _ = queries
        ops = (
            WorkbenchOp(verb="open"),
            WorkbenchOp(verb="search", name="a", query=q1),
            WorkbenchOp(verb="keyphrases", base="a", n=6),
            WorkbenchOp(verb="keyphrases", base="a", n=6),
            WorkbenchOp(verb="cooccur", base="a", n=4),
            WorkbenchOp(verb="close"),
        )
        rep = serve_workbench(stores[1], [_script(0, 0, ops)])
        first, second = _by(rep, 0, "keyphrases")
        assert not first["cached"] and second["cached"]
        assert first["response"] == second["response"]
        assert rep.artifact_hits == 1
        assert rep.artifact_misses == 2  # keyphrases + cooccur

    def test_cache_is_tenant_scoped(self, stores, queries):
        q1, _ = queries
        ops = (
            WorkbenchOp(verb="open"),
            WorkbenchOp(verb="search", name="a", query=q1),
            WorkbenchOp(verb="keyphrases", base="a", n=6),
            WorkbenchOp(verb="close"),
        )
        rep = serve_workbench(
            stores[1],
            [_script(0, 0, ops), _script(1, 1, ops)],
        )
        # identical set + op, different tenants: no cross-tenant hit
        assert rep.artifact_hits == 0
        assert rep.artifact_misses == 2
        a, b = (
            _by(rep, 0, "keyphrases")[0],
            _by(rep, 1, "keyphrases")[0],
        )
        assert a["response"] == b["response"]


class TestRefine:
    def test_refine_same_query_is_bit_exact(self, stores, queries):
        """Refining a set by its own query reproduces it exactly:
        the restricted fan-out recomputes identical per-row floats."""
        q1, q2 = queries
        ops = (
            WorkbenchOp(verb="open"),
            WorkbenchOp(verb="search", name="a", query=q1),
            WorkbenchOp(verb="refine", name="b", base="a", query=q1),
            WorkbenchOp(verb="refine", name="c", base="a", query=q2),
            WorkbenchOp(verb="close"),
        )
        rep = serve_workbench(stores[2], [_script(0, 0, ops)])
        by_name = {
            r["response"]["set"]: r["response"]
            for r in rep.responses
            if r["response"].get("set")
        }
        assert by_name["b"]["digest"] == by_name["a"]["digest"]
        assert by_name["b"]["size"] == by_name["a"]["size"]
        # refine restricts to the base: never grows the set
        assert by_name["c"]["size"] <= by_name["a"]["size"]


class TestEpochPinning:
    @pytest.fixture(scope="module")
    def feed_batches(self, corpus, result):
        feed = FeedSource(
            FeedConfig(
                dataset="pubmed",
                batch_docs=6,
                n_batches=2,
                seed=4,
                themes=4,
                skip_docs=len(corpus.documents),
                start_doc_id=int(result.doc_ids[-1]) + 1,
                mean_interarrival_s=0.05,
            )
        )
        return feed.batches()

    def test_session_pinned_under_ingest(
        self, stores, result, queries, feed_batches, tmp_path
    ):
        q1, _ = queries
        pinned = _script(
            0,
            0,
            (
                WorkbenchOp(verb="open"),
                WorkbenchOp(verb="search", name="a", query=q1),
                WorkbenchOp(verb="keyphrases", base="a", n=6),
                WorkbenchOp(verb="keyphrases", base="a", n=6),
                WorkbenchOp(verb="close"),
            ),
            think=(0.0, 0.5, 10.0, 10.0, 0.0),
        )
        late = _script(
            1,
            1,
            (
                WorkbenchOp(verb="open"),
                WorkbenchOp(verb="search", name="a", query=q1),
                WorkbenchOp(verb="close"),
            ),
            think=(25.0, 0.0, 0.0),
        )
        scripts = [pinned, late]
        plan = IngestPlan(
            result=result,
            batches=list(feed_batches),
            tokenizer_config=ENGINE_CONFIG.tokenizer,
        )
        # the mutable copy: ingest publishes new generations into it
        rep = serve_workbench(
            _mutable_store(stores, tmp_path), scripts, ingest=plan
        )
        base = serve_workbench(stores[2], scripts)

        assert rep.ingest["final_generation"] >= 1
        totals = counter_totals(rep.metrics)
        assert totals["ingest.broker.reloads"] >= 1
        # the early session answers every op from generation 0 even
        # though the broker reloaded newer generations mid-session
        assert all(r["generation"] == 0 for r in _by(rep, 0))
        # ... and its bytes are identical to a churn-free run
        a = [canonical_response(r) for r in _by(rep, 0)]
        b = [canonical_response(r) for r in _by(base, 0)]
        assert a == b
        # the artifact cache key carries the pinned epoch: the late
        # repeat still hits even after the broker moved on
        assert _by(rep, 0, "keyphrases")[1]["cached"]
        # a session opened after the publish sees the new generation
        assert all(r["generation"] >= 1 for r in _by(rep, 1))


def _mutable_store(stores, tmp_path):
    """Copy the immutable session store: ingest mutates its target."""
    import shutil

    dst = tmp_path / "live-store"
    shutil.copytree(stores[2], dst)
    return dst


class TestMetricsIntegration:
    def test_workbench_summary_and_report(self, reports):
        rep = reports[2]
        totals = counter_totals(rep.metrics)
        lines = render_report(rep.metrics).splitlines()
        at = lines.index("workbench tier (analyst sessions):")
        ops = lines[at + 1]
        assert ops.startswith("  ops: ")
        assert int(ops.split()[1]) >= rep.served
        assert lines[at + 2:at + 4] == [
            f"  sessions: {rep.sessions_opened} opened / "
            f"{totals['workbench.sessions.closed']:.0f} closed / "
            f"{rep.sessions_evicted} evicted (TTL); "
            f"sets saved: {rep.sets_saved}",
            f"  artifact cache: {rep.artifact_hits} hits / "
            f"{rep.artifact_misses} misses "
            f"({rep.artifact_hit_rate:.1%} hit rate), "
            f"{totals['workbench.artifact.evict']:.0f} evictions",
        ]
