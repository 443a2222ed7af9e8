"""Replicated tier: routing, failover, hedging, shedding, epochs."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.runtime.faults import (
    CrashFault,
    FaultPlan,
    StragglerFault,
)
from repro.runtime.metrics import counter_totals, render_report
from repro.serve import workload as serve_workload
from repro.serve.broker import BrokerConfig, _ShardWorker, serve
from repro.serve.query import canonical_response
from repro.serve.replica import ReplicaMap
from repro.serve.router import (
    RouterConfig,
    ShedResponse,
    broker_of_client,
    serve_replicated,
)
from repro.serve.store import ShardFormatError, load_model
from repro.serve.workload import (
    generate_workload,
    generate_zipf_workload,
    store_profile,
)

#: roomy admission so failover tests never interact with shedding
_TIER = dict(
    brokers=2,
    workers=4,
    replicas=2,
    max_inflight=64,
    hedge_delay_s=0.5,
    shard_timeout_s=2.0,
)


def _answers(report):
    return {
        (r["client"], r["seq"]): canonical_response(r["response"])
        for r in report.responses
    }


@pytest.fixture(scope="module")
def workload(replicated_store):
    return generate_workload(
        store_profile(replicated_store),
        n_clients=6,
        queries_per_client=8,
        seed=11,
    )


@pytest.fixture(scope="module")
def tier_report(replicated_store, workload):
    return serve_replicated(
        replicated_store, workload, config=RouterConfig(**_TIER)
    )


class TestRouting:
    def test_broker_of_client_deterministic_and_in_range(self):
        for c in range(200):
            b = broker_of_client(c, 4)
            assert 0 <= b < 4
            assert b == broker_of_client(c, 4)
        # the hash actually spreads clients over brokers
        assert len({broker_of_client(c, 4) for c in range(200)}) == 4

    def test_parity_with_single_broker_serve(
        self, replicated_store, workload, tier_report
    ):
        """The replicated tier answers byte-identically to PR-4 serve."""
        legacy = serve(
            replicated_store,
            workload,
            config=BrokerConfig(max_inflight=64),
        )
        assert tier_report.served == legacy.served
        assert _answers(tier_report) == _answers(legacy)
        assert tier_report.degraded == 0 and not tier_report.shed

    def test_report_carries_topology(self, tier_report):
        assert tier_report.brokers == 2 and tier_report.workers == 4
        rmap = tier_report.replica_map
        assert rmap["replicas"] == 2 and rmap["nshards"] == 4
        assert len(tier_report.per_broker) == 2
        served = sum(b["served"] for b in tier_report.per_broker)
        assert served == tier_report.served

    def test_sticky_broker_assignment(self, tier_report, workload):
        for r in tier_report.responses:
            assert r["broker"] == broker_of_client(r["client"], 2)


class TestFailover:
    """Satellite 4: a mid-session crash under R=2 is invisible."""

    # worker 1 lives on rank 1 + brokers + 1 = 4; the early at_call
    # lands the crash inside the first fan-out wave so requests are in
    # flight to the victim (a pure health-based reroute counts no
    # failover and would weaken the test)
    PLAN = FaultPlan(faults=(CrashFault(rank=4, at_call=5),))

    def test_crash_with_replicas_masks_fault(
        self, replicated_store, workload, tier_report
    ):
        report = serve_replicated(
            replicated_store,
            workload,
            config=RouterConfig(**_TIER),
            faults=self.PLAN,
        )
        assert report.served == sum(len(s.queries) for s in workload)
        assert report.degraded == 0  # zero degraded responses
        assert report.failovers >= 1
        assert 4 in report.failed_ranks
        assert report.health["down"] == [1]
        # byte-identical to the fault-free run at the same epochs
        assert _answers(report) == _answers(tier_report)
        totals = counter_totals(report.metrics)
        assert totals["serve.failover"] == report.failovers
        assert totals["serve.degraded"] == 0

    def test_crash_without_replicas_degrades(
        self, replicated_store, workload
    ):
        """R=1 reproduces the PR-4 flagged-degradation behavior."""
        cfg = RouterConfig(**{**_TIER, "replicas": 1})
        report = serve_replicated(
            replicated_store, workload, config=cfg, faults=self.PLAN
        )
        assert report.failovers == 0
        assert report.degraded > 0
        for r in report.responses:
            if r["response"].get("partial"):
                assert r["response"]["failed_shards"]

    def test_fault_run_metrics_render(self, replicated_store, workload):
        report = serve_replicated(
            replicated_store,
            workload,
            config=RouterConfig(**_TIER),
            faults=self.PLAN,
        )
        text = render_report(report.metrics)
        assert "replica tier:" in text
        assert "failovers" in text


class TestHedging:
    def test_silent_replica_is_hedged_and_suspected(
        self, replicated_store, workload, tier_report
    ):
        """A straggling worker triggers hedged duplicates, not latency."""
        # worker 0 (rank 3) charges 1000x slow, so its virtual clock
        # sails past hedge_delay_s before it can send a response
        plan = FaultPlan(
            faults=(StragglerFault(rank=3, factor=1000.0),)
        )
        report = serve_replicated(
            replicated_store,
            workload,
            config=RouterConfig(**_TIER),
            faults=plan,
        )
        assert report.served == sum(len(s.queries) for s in workload)
        assert report.degraded == 0
        assert report.hedges >= 1
        assert report.suspicions >= 1
        # hedged answers come from the twin replica: still identical
        assert _answers(report) == _answers(tier_report)
        totals = counter_totals(report.metrics)
        assert totals["serve.hedge"] == report.hedges
        assert totals["serve.replica.suspect"] == report.suspicions


def _thinkless_zipf(profile, **kw):
    """A Zipf workload whose clients never think: an overload."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(serve_workload, "ZIPF_THINK_S", 0.0)
        return generate_zipf_workload(profile, **kw)


class TestShedding:
    @pytest.fixture(scope="class")
    def overloaded(self, replicated_store):
        scripts = _thinkless_zipf(
            store_profile(replicated_store),
            n_clients=40,
            queries_per_client=3,
            seed=5,
        )
        cfg = RouterConfig(**{**_TIER, "max_inflight": 4})
        return scripts, serve_replicated(
            replicated_store, scripts, config=cfg
        )

    def test_everything_is_answered_or_typed_shed(self, overloaded):
        scripts, report = overloaded
        total = sum(len(s.queries) for s in scripts)
        assert report.served + len(report.shed) == total
        assert report.shed  # the tier actually saturated
        for s in report.shed:
            assert isinstance(s, ShedResponse)
            assert s.priority >= 0 and s.depth >= 0
            assert s.broker == broker_of_client(s.client, 2)

    def test_no_class_is_shed_below_its_admission_depth(self, overloaded):
        """The policy's guarantee, per turned-away query: class ``p``
        is shed only at a depth of at least ``max_inflight / 2**p``."""
        _, report = overloaded
        for s in report.shed:
            assert s.depth >= max(1, 4 // 2**s.priority)

    def test_lowest_classes_shed_first(self, replicated_store):
        """Shed fraction, pooled over seeds, is monotone in priority
        class, at the default batch size and unbatched.

        One seed's 40 clients issue a dozen priority-0 queries or
        fewer, so a single seed's rates are too noisy to order:
        unbatched, seeds 0 and 16 already shed class 1 more than
        class 2."""
        profile = store_profile(replicated_store)
        for batch in (RouterConfig().batch_max_queries, 1):
            cfg = RouterConfig(
                **{**_TIER, "max_inflight": 4, "batch_max_queries": batch}
            )
            issued = {p: 0 for p in (0, 1, 2)}
            shed = {p: 0 for p in (0, 1, 2)}
            for seed in range(8):
                scripts = _thinkless_zipf(
                    profile, n_clients=40, queries_per_client=3, seed=seed
                )
                report = serve_replicated(
                    replicated_store, scripts, config=cfg
                )
                for s in scripts:
                    issued[s.priority] += len(s.queries)
                for s in report.shed:
                    assert s.depth >= max(1, 4 // 2**s.priority)
                    shed[s.priority] += 1
            rates = [shed[p] / issued[p] for p in (0, 1, 2)]
            assert rates == sorted(rates)
            assert 0 < rates[0] < rates[-1]

    def test_shed_counters_by_class(self, overloaded):
        _, report = overloaded
        counters = report.metrics["counters"]["serve.shed"]
        assert counters["labels"] == ["priority"]
        by_class = {}
        for entry in counters["values"]:
            key = tuple(entry["key"])
            by_class[key] = by_class.get(key, 0) + entry["value"]
        total = sum(by_class.values())
        assert total == len(report.shed)
        text = render_report(report.metrics)
        assert "shed" in text


class TestWorkerIdentityErrors:
    """Satellite 1: reload errors name the path and the replica."""

    def test_format_error_carries_context(self):
        err = ShardFormatError(
            "/x/shard-0000.bin",
            "bad magic",
            context="shard 0 copy 1 on worker 2 (rank 5)",
        )
        assert err.path == "/x/shard-0000.bin"
        assert err.context == "shard 0 copy 1 on worker 2 (rank 5)"
        msg = str(err)
        assert "/x/shard-0000.bin" in msg
        assert "worker 2 (rank 5)" in msg

    def test_worker_names_itself_on_corrupt_shard(
        self, replicated_store, tmp_path
    ):
        store = tmp_path / "corrupt"
        shutil.copytree(replicated_store, store)
        model = load_model(store)
        manifest = model.manifest
        victim_file = store / manifest.shards[0].file
        victim_file.write_bytes(b"not a shard container")

        class _Ctx:
            rank = 4  # worker id 4 - 1 - brokers(1) = 2

        rmap = ReplicaMap.place(manifest.nshards, 2, 4)
        worker = _ShardWorker(_Ctx(), model, rmap, n_brokers=1)
        with pytest.raises(ShardFormatError) as exc:
            worker.segments(0, 0)
        msg = str(exc.value)
        assert manifest.shards[0].file in msg
        assert "on worker 2 (rank 4)" in msg
        assert "shard 0" in msg


class TestGenerationalTier:
    def test_epoch_pinning_with_replicas(
        self, corpus, result, postings, tmp_path
    ):
        """Live ingest under the tier: every response pins one epoch."""
        from repro.ingest.feed import FeedConfig, FeedSource
        from repro.ingest.live import IngestConfig, IngestPlan
        from repro.serve.store import build_shards
        from tests.serve.conftest import ENGINE_CONFIG

        store = tmp_path / "genstore"
        build_shards(result, store, 2, postings=postings, replication=2)
        feed = FeedSource(
            FeedConfig(
                dataset="pubmed",
                batch_docs=6,
                n_batches=3,
                seed=4,
                themes=4,
                skip_docs=len(corpus.documents),
                start_doc_id=int(result.doc_ids[-1]) + 1,
                mean_interarrival_s=0.05,
            )
        )
        plan = IngestPlan(
            result=result,
            batches=list(feed.batches()),
            config=IngestConfig(),
            tokenizer_config=ENGINE_CONFIG.tokenizer,
        )
        scripts = generate_workload(
            store_profile(store),
            n_clients=2,
            queries_per_client=10,
            seed=7,
        )
        report = serve_replicated(
            store,
            scripts,
            config=RouterConfig(
                brokers=2, workers=3, replicas=2, max_inflight=64
            ),
            ingest=plan,
        )
        assert report.served == 20 and report.degraded == 0
        outcome = report.ingest
        assert outcome["docs_ingested"] == 18
        final = outcome["final_generation"]
        assert final >= 1
        # every response is pinned to exactly one published epoch --
        # a fan-out never mixes generations, so per-generation stats
        # account for every served query
        gens = [r["generation"] for r in report.responses]
        assert all(0 <= g <= final for g in gens)
        assert max(gens) >= 1  # the session actually saw a swap
        assert (
            sum(s["queries"] for s in report.generations.values()) == 20
        )


_DETERMINISM_SCRIPT = """
import json, sys
from repro.engine.config import EngineConfig
from repro.engine.serial import SerialTextEngine
from repro.datasets.pubmed import generate_pubmed
from repro.index.termindex import build_term_postings
from repro.runtime.faults import CrashFault, FaultPlan
from repro.serve.query import canonical_response
from repro.serve.router import RouterConfig, serve_replicated
from repro.serve.store import build_shards
from repro.serve import workload as serve_workload
from repro.serve.workload import generate_zipf_workload, store_profile

cfg = EngineConfig(n_major_terms=120, n_clusters=4, chunk_docs=8)
corpus = generate_pubmed(30_000, seed=4, n_themes=4)
result = SerialTextEngine(cfg).run(corpus)
postings = build_term_postings(corpus, result, cfg.tokenizer)
store = sys.argv[1]
build_shards(result, store, 4, postings=postings, replication=2)
serve_workload.ZIPF_THINK_S = 0.0  # every client arrives at once
scripts = generate_zipf_workload(
    store_profile(store), n_clients=20, queries_per_client=3, seed=9
)
plan = FaultPlan(faults=(CrashFault(rank=4, at_call=10),))
report = serve_replicated(
    store, scripts,
    config=RouterConfig(brokers=2, workers=4, replicas=2,
                        max_inflight=8, hedge_delay_s=0.5,
                        shard_timeout_s=2.0),
    faults=plan,
)
print(json.dumps({
    "answers": sorted(
        (r["client"], r["seq"],
         canonical_response(r["response"]).decode())
        for r in report.responses
    ),
    "shed": [(s.client, s.seq, s.priority) for s in report.shed],
    "latencies": report.latencies,
    "failovers": report.failovers,
    "hedges": report.hedges,
    "makespan": report.makespan,
    "replica_map": report.replica_map,
    "counters": sorted(report.metrics["counters"].items()),
}, sort_keys=True))
"""


def test_fastpath_slowpath_identical(tmp_path):
    """A crash-fault tier session is byte-identical on both schedulers."""
    outs = {}
    for label, extra_env in (
        ("fast", {}),
        ("slow", {"REPRO_SCHED_SLOWPATH": "1"}),
    ):
        env = dict(os.environ, **extra_env)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path("src").resolve())]
            + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        proc = subprocess.run(
            [sys.executable, "-c", _DETERMINISM_SCRIPT,
             str(tmp_path / f"store-{label}")],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        outs[label] = json.loads(proc.stdout)
    assert outs["fast"] == outs["slow"]
