"""Cross-query batching is the default on both tiers.

At the default ``batch_max_queries`` every fan-out round drains the
queries that have already arrived.  Answers must stay what one query
per round (B = 1) gives, byte for byte per ``(client, seq)``, on a
static store, a store with published deltas and the R = 2 tier with a
masked worker crash -- in fewer messages.  A key repeated inside one
drain fans out once: its later members are cache hits on the first
member's answer.
"""

import pickle

import pytest

from repro.runtime.faults import CrashFault, FaultPlan
from repro.runtime.metrics import counter_totals
from repro.serve.broker import TAG_REQ, BrokerConfig, serve
from repro.serve.query import canonical_response
from repro.serve import workload as serve_workload
from repro.serve.router import RouterConfig, serve_replicated
from repro.serve.workload import generate_workload, store_profile

_TIER = dict(brokers=2, workers=4, replicas=2, hedge_delay_s=0.5,
             shard_timeout_s=2.0)
#: lands inside the first fan-out wave (see test_router.py)
_CRASH = FaultPlan(faults=(CrashFault(rank=4, at_call=5),))


def _answers(report):
    return {
        (r["client"], r["seq"]): canonical_response(r["response"])
        for r in report.responses
    }


def _workload(store, seed=21):
    return generate_workload(
        store_profile(store),
        n_clients=8,
        queries_per_client=10,
        seed=seed,
        mean_think_s=0.0,
    )


def test_both_tiers_share_one_default():
    broker, router = BrokerConfig(), RouterConfig()
    assert broker.batch_max_queries == router.batch_max_queries > 1
    # the default drains every arrival the default admission takes
    assert broker.batch_max_queries == broker.max_inflight
    assert router.batch_max_queries == router.max_inflight


def _run_single(store_dir, scripts, batch):
    return serve(
        store_dir, scripts, config=BrokerConfig(batch_max_queries=batch)
    )


def _run_tier(store_dir, scripts, batch):
    report = serve_replicated(
        store_dir,
        scripts,
        config=RouterConfig(**_TIER, batch_max_queries=batch),
        faults=_CRASH,
    )
    assert report.failovers >= 1 and report.degraded == 0
    return report


@pytest.mark.parametrize(
    "store, run",
    [
        ("static", _run_single),
        ("generational", _run_single),
        ("replicated_crash", _run_tier),
    ],
)
def test_default_answers_like_one_query_per_round(
    stores, delta_store, replicated_store, store, run
):
    store_dir = {
        "static": stores[4],
        "generational": delta_store,
        "replicated_crash": replicated_store,
    }[store]
    scripts = _workload(store_dir)
    default = run(store_dir, scripts, BrokerConfig().batch_max_queries)
    solo = run(store_dir, scripts, 1)
    n_queries = sum(len(s.queries) for s in scripts)
    assert len(_answers(solo)) == n_queries
    assert _answers(default) == _answers(solo)
    messages = {
        b: counter_totals(r.metrics)["comm.p2p.messages"]
        for b, r in (("default", default), ("solo", solo))
    }
    assert messages["default"] < messages["solo"]


def _repeats(requests) -> int:
    """Shard requests carrying one ``(verb, params)`` pair twice."""
    return sum(
        len({pickle.dumps(pair) for pair in ops}) < len(ops)
        for _qid, _epoch, _shard, ops in requests
    )


def test_repeated_keys_in_a_drain_fan_out_once(stores, sent, monkeypatch):
    """Hot keys at zero think time: several clients send the same
    query into one drain.  It runs the shard kernels once; the
    repeats are cache hits, so the answers and the number of cache
    lookups are those of one query per round, and no more bytes are
    scanned."""
    store_dir = stores[4]
    # drive the hot pool up so repeats share drains
    monkeypatch.setattr(serve_workload, "HOT_FRACTION", 0.7)
    monkeypatch.setattr(serve_workload, "HOT_POOL", 3)
    scripts = _workload(store_dir, seed=5)

    # without a cache nothing is merged: the drains do repeat keys
    serve(store_dir, scripts, config=BrokerConfig(cache_capacity=0))
    assert _repeats(sent[TAG_REQ]) > 0
    sent[TAG_REQ].clear()

    default = serve(store_dir, scripts)
    assert sent[TAG_REQ] and _repeats(sent[TAG_REQ]) == 0
    assert any(len(req[3]) > 1 for req in sent[TAG_REQ])
    solo = _run_single(store_dir, scripts, 1)
    assert _answers(default) == _answers(solo)
    got, want = counter_totals(default.metrics), counter_totals(solo.metrics)
    assert (
        got["serve.cache.hit"] + got["serve.cache.miss"]
        == want["serve.cache.hit"] + want["serve.cache.miss"]
        == sum(len(s.queries) for s in scripts)
    )
    scanned = "serve.shard.bytes_scanned"
    assert got[scanned] <= want[scanned]
