"""Live serving: hot generation swap, epoch pinning, ingest metrics."""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.ingest.compact import CompactionPolicy
from repro.ingest.live import IngestConfig, IngestPlan, serve_live
from repro.runtime.metrics import counter_totals, render_report
from repro.serve.broker import BrokerConfig
from repro.serve.query import Query
from repro.serve.workload import ClientScript, generate_workload, store_profile
from tests.ingest.conftest import ENGINE_CONFIG


def _live_run(store, result, feed_batches, **kwargs):
    scripts = generate_workload(
        store_profile(store), n_clients=2, queries_per_client=10, seed=7
    )
    plan = IngestPlan(
        result=result,
        batches=list(feed_batches),
        config=IngestConfig(
            compaction=CompactionPolicy(max_deltas=2),
        ),
        tokenizer_config=ENGINE_CONFIG.tokenizer,
    )
    return serve_live(
        store,
        scripts,
        plan,
        config=kwargs.pop("config", BrokerConfig(max_inflight=64)),
        **kwargs,
    )


def test_hot_swap_and_epoch_pinning(result, make_store, feed_batches):
    store = make_store(2)
    report = _live_run(store, result, feed_batches)

    assert report.served == 20 and not report.rejected
    outcome = report.ingest
    assert outcome["docs_ingested"] == sum(
        len(c.documents) for c, _ in feed_batches
    )
    # 3 publishes + 1 compaction (max_deltas=2 trips after batch 2)
    publishes = [
        e for e in outcome["events"] if e["event"] == "publish"
    ]
    compacts = [
        e for e in outcome["events"] if e["event"] == "compact"
    ]
    assert len(publishes) == 3 and len(compacts) >= 1
    # publishes land after their batch's arrival, never before
    for e in publishes:
        assert e["published_s"] > e["arrival_s"]

    # every response is pinned to exactly one published epoch, and the
    # session straddles the swap: base generation AND the final one
    gens = [r["generation"] for r in report.responses]
    final = outcome["final_generation"]
    assert all(0 <= g <= final for g in gens)
    assert min(gens) == 0  # early queries hit the static base
    assert max(gens) == final
    # per-epoch cache keys: a client never sees a mixed-generation
    # fan-out, so per-generation stats cover all served queries
    assert sum(s["queries"] for s in report.generations.values()) == 20

    totals = counter_totals(report.metrics)
    assert totals["ingest.broker.reloads"] >= 1
    assert totals["ingest.generations"] == 3
    assert totals["ingest.compactions"] == len(compacts)
    assert totals["ingest.docs"] == outcome["docs_ingested"]


def test_ingested_doc_becomes_queryable(
    result, make_store, feed_batches
):
    store = make_store(2)
    new_doc = feed_batches[0][0].documents[0].doc_id
    # one patient client: long think time, then ask for the fresh doc
    scripts = [
        ClientScript(
            client=0,
            queries=(Query(kind="similar", doc_id=new_doc, k=3),),
            think_s=(5.0,),
        )
    ]
    plan = IngestPlan(
        result=result,
        batches=list(feed_batches),
        tokenizer_config=ENGINE_CONFIG.tokenizer,
    )
    report = serve_live(store, scripts, plan)
    assert report.served == 1
    resp = report.responses[0]
    assert resp["generation"] >= 1
    # the fresh doc's signature was found (no partial flag), and it
    # ranks neighbours without matching itself
    assert not resp["response"].get("partial")
    hits = resp["response"]["hits"]
    assert hits and all(h["doc"] != new_doc for h in hits)


def test_ingest_summary_and_report(result, make_store, feed_batches):
    store = make_store(1)
    report = _live_run(store, result, feed_batches)
    totals = counter_totals(report.metrics)
    assert totals["ingest.docs"] == report.ingest["docs_ingested"]
    assert totals["ingest.generations"] == 3
    assert totals["ingest.broker.reloads"] >= 1
    lines = render_report(report.metrics).splitlines()
    at = lines.index("ingest layer (live generations):")
    assert lines[at + 1:at + 3] == [
        f"  docs ingested: {totals['ingest.docs']:.0f} "
        f"({totals['ingest.null_signatures']:.0f} null signatures)",
        f"  generations published: 3; compactions: "
        f"{totals['ingest.compactions']:.0f}; broker hot-reloads: "
        f"{totals['ingest.broker.reloads']:.0f}",
    ]
    # a static serve leaves no ingest section
    static = {
        **report.metrics,
        "counters": {
            name: doc
            for name, doc in report.metrics["counters"].items()
            if not name.startswith("ingest.")
        },
    }
    assert "ingest layer" not in render_report(static)


_DETERMINISM_SCRIPT = """
import json, sys
from repro.datasets.pubmed import generate_pubmed
from repro.engine.config import EngineConfig
from repro.engine.serial import SerialTextEngine
from repro.index.termindex import build_term_postings
from repro.ingest.compact import CompactionPolicy
from repro.ingest.feed import FeedConfig, FeedSource
from repro.ingest.live import IngestConfig, IngestPlan, serve_live
from repro.serve.broker import BrokerConfig
from repro.serve.query import canonical_response
from repro.serve.store import build_shards
from repro.serve.workload import generate_workload, store_profile

cfg = EngineConfig(n_major_terms=200, n_clusters=5, chunk_docs=8)
corpus = generate_pubmed(60_000, seed=4, n_themes=4)
result = SerialTextEngine(cfg).run(corpus)
postings = build_term_postings(corpus, result, cfg.tokenizer)
store = sys.argv[1]
build_shards(result, store, 2, postings=postings)
feed = FeedSource(FeedConfig(
    batch_docs=6, n_batches=3, seed=4, themes=4,
    skip_docs=len(corpus.documents),
    start_doc_id=int(result.doc_ids[-1]) + 1,
    mean_interarrival_s=0.05,
))
plan = IngestPlan(result=result, batches=feed.batches(),
                  config=IngestConfig(compaction=CompactionPolicy(max_deltas=2)),
                  tokenizer_config=cfg.tokenizer)
scripts = generate_workload(store_profile(store), n_clients=2,
                            queries_per_client=8, seed=7)
report = serve_live(store, scripts, plan,
                    config=BrokerConfig(max_inflight=64))
print(json.dumps({
    "responses": [canonical_response(r["response"]).decode()
                  for r in report.responses],
    "generations": [r["generation"] for r in report.responses],
    "latencies": report.latencies,
    "makespan": report.makespan,
    "ingest": report.ingest,
    "counters": sorted(report.metrics["counters"].items()),
}, sort_keys=True))
"""


def test_fastpath_slowpath_identical(tmp_path):
    """The full live session is byte-identical under both schedulers."""
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
