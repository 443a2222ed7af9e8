"""One shard request shape on every tier.

Every ``TAG_REQ`` message a broker sends (other than ``stop``) must be
``(qid, epoch, shard, ops)`` with ``ops`` a non-empty tuple of
``(verb, params)`` pairs -- on a static store, on a store with
published deltas, in the replicated tier and in the workbench.  Every
reply is ``(qid, shard, [payload, ...])``, and the payload of a ranked
verb (``search``, ``matvec``, ``cluster``) carries its hits as four
equal-length array columns, never per-hit objects.  The wire sizer
must size each message structurally, never by pickling.
"""

import pickle
from types import SimpleNamespace

import numpy as np
import pytest

from repro.runtime import payload
from repro.runtime.comm import Communicator
from repro.runtime.payload import payload_nbytes
from repro.serve.broker import (
    SHARD_OPS,
    TAG_REQ,
    TAG_RESP,
    BrokerConfig,
    serve,
)
from repro.serve.router import RouterConfig, serve_replicated
from repro.serve.store import load_manifest
from repro.serve.workload import generate_workload, store_profile
from repro.workbench import generate_analyst_workload, serve_workbench


def _workload(store, seed=11):
    return generate_workload(
        store_profile(store),
        n_clients=4,
        queries_per_client=8,
        seed=seed,
        mean_think_s=0.0,
    )


@pytest.fixture
def routed(sent, monkeypatch):
    """``(sender, receiver, tag, message)`` of every message that
    ``sent`` records, so each reply can be matched to its request."""
    out = []
    deliver = Communicator._deliver

    def recording(self, dest, tag, msg, now):
        if tag in sent and msg.obj[0] != "stop":
            out.append((self.rank, dest, tag, msg.obj))
        return deliver(self, dest, tag, msg, now)

    monkeypatch.setattr(Communicator, "_deliver", recording)
    return out


#: ranked verb -> where its payload holds the hit columns
_HITS = {
    "search": lambda payload: payload,
    "matvec": lambda payload: payload,
    "cluster": lambda payload: payload[1],
}


def _assert_hit_columns(routed):
    """Every ranked payload of a reply is ``(score f64, row i64, doc
    i64, cluster i64)`` arrays of one length."""
    verbs = {}
    for src, dest, tag, msg in routed:
        if tag == TAG_REQ:
            qid, _epoch, shard, ops = msg
            verbs[(src, dest, qid, shard)] = [verb for verb, _p in ops]
    checked = 0
    for src, dest, tag, msg in routed:
        if tag != TAG_RESP:
            continue
        qid, shard, payloads = msg
        ops = verbs[(dest, src, qid, shard)]
        assert len(ops) == len(payloads)
        for verb, out in zip(ops, payloads):
            if verb not in _HITS:
                continue
            cols = _HITS[verb](out)
            assert type(cols) is tuple and len(cols) == 4
            assert all(type(c) is np.ndarray for c in cols)
            assert [c.dtype for c in cols] == [np.float64] + [np.int64] * 3
            assert len({c.shape for c in cols}) == 1 and cols[0].ndim == 1
            checked += 1
    assert checked


def _assert_one_shape(sent, epochs, monkeypatch, routed):
    _assert_hit_columns(routed)
    requests, replies = sent[TAG_REQ], sent[TAG_RESP]
    assert requests and replies
    for req in requests:
        assert type(req) is tuple and len(req) == 4
        qid, epoch, shard, ops = req
        assert type(qid) is int and type(shard) is int
        assert epoch in epochs
        assert type(ops) is tuple and ops
        for pair in ops:
            assert type(pair) is tuple and len(pair) == 2
            verb, params = pair
            assert verb in SHARD_OPS
            assert type(params) is dict
    for reply in replies:
        assert type(reply) is tuple and len(reply) == 3
        assert type(reply[2]) is list and reply[2]
    pickled = []

    def dumps(obj, protocol=None):
        pickled.append(obj)
        return pickle.dumps(obj, protocol=protocol)

    monkeypatch.setattr(
        payload,
        "pickle",
        SimpleNamespace(dumps=dumps, HIGHEST_PROTOCOL=pickle.HIGHEST_PROTOCOL),
    )
    for msg in requests + replies:
        payload_nbytes(msg)
    assert pickled == []


def test_static_store(stores, sent, routed, monkeypatch):
    serve(stores[4], _workload(stores[4]))
    _assert_one_shape(sent, {0}, monkeypatch, routed)


def test_static_store_batched(stores, sent, routed, monkeypatch):
    serve(
        stores[4],
        _workload(stores[4]),
        config=BrokerConfig(batch_max_queries=4, max_inflight=64),
    )
    assert any(len(req[3]) > 1 for req in sent[TAG_REQ])
    _assert_one_shape(sent, {0}, monkeypatch, routed)


def test_store_with_published_deltas(delta_store, sent, routed, monkeypatch):
    generation = load_manifest(delta_store).generation
    assert generation > 0
    serve(delta_store, _workload(delta_store))
    _assert_one_shape(sent, {generation}, monkeypatch, routed)


def test_replicated_tier(replicated_store, sent, routed, monkeypatch):
    serve_replicated(
        replicated_store,
        _workload(replicated_store),
        config=RouterConfig(brokers=2, workers=4, replicas=2),
    )
    _assert_one_shape(sent, {0}, monkeypatch, routed)


def test_workbench(stores, sent, routed, monkeypatch):
    scripts = generate_analyst_workload(
        store_profile(stores[4]),
        n_tenants=2,
        sessions_per_tenant=2,
        ops_per_session=6,
        seed=3,
    )
    serve_workbench(stores[4], scripts)
    _assert_one_shape(sent, {0}, monkeypatch, routed)
