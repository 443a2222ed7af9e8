"""Opening a store: once per session, one map per container.

Every serving entry point opens the store in the calling process and
hands the one :class:`~repro.serve.store.ServeModel` to all of its
ranks; a corrupt store file reaches the caller (and the CLI) as a
typed :class:`~repro.serve.store.ShardFormatError` naming the file;
and repeated one-shot queries leave no file descriptor behind.
"""

import gc
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro.serve.broker as broker_mod
import repro.serve.store as store_mod
from repro.ingest.feed import FeedConfig, FeedSource
from repro.ingest.live import IngestPlan, serve_live
from repro.serve.broker import query_store, serve
from repro.serve.query import Query
from repro.serve.router import RouterConfig, serve_replicated
from repro.serve.store import ServeModel, ShardFormatError, load_model
from repro.serve.workload import generate_workload, store_profile
from repro.workbench import (
    generate_analyst_workload,
    serve_workbench,
    serve_workbench_replicated,
)
from tests.serve.conftest import ENGINE_CONFIG

_SRC = Path(__file__).resolve().parents[2] / "src"

#: the replicated tier as the contract names it: R=2 over 6 workers
_TIER = RouterConfig(brokers=2, workers=6, replicas=2)


@pytest.fixture
def model_builds(monkeypatch):
    """Store directories of every ServeModel built during the test."""
    built = []
    init = ServeModel.__post_init__

    def counting(self):
        built.append(self.store_dir)
        init(self)

    monkeypatch.setattr(ServeModel, "__post_init__", counting)
    return built


@pytest.fixture
def manifest_reads(monkeypatch):
    """Generations of every manifest parsed during the test."""
    reads = []
    load = store_mod.load_manifest_generation

    def counting(store_dir, generation):
        reads.append(generation)
        return load(store_dir, generation)

    monkeypatch.setattr(store_mod, "load_manifest_generation", counting)
    monkeypatch.setattr(broker_mod, "load_manifest_generation", counting)
    return reads


def _session(entry, store, corpus, result):
    """A call running one small session through ``entry``."""
    profile = store_profile(store)
    scripts = generate_workload(
        profile, n_clients=2, queries_per_client=3, seed=5
    )
    wscripts = generate_analyst_workload(
        profile, n_tenants=2, sessions_per_tenant=1, ops_per_session=4,
        seed=5,
    )
    if entry == "serve":
        return lambda: serve(store, scripts)
    if entry == "query_store":
        return lambda: query_store(store, scripts[0].queries[0])
    if entry == "serve_live":
        feed = FeedSource(
            FeedConfig(
                dataset="pubmed",
                batch_docs=4,
                n_batches=1,
                seed=4,
                themes=4,
                skip_docs=len(corpus.documents),
                start_doc_id=int(result.doc_ids[-1]) + 1,
            )
        )
        plan = IngestPlan(
            result=result,
            batches=feed.batches(),
            tokenizer_config=ENGINE_CONFIG.tokenizer,
        )
        return lambda: serve_live(store, scripts, plan)
    if entry == "serve_workbench":
        return lambda: serve_workbench(store, wscripts)
    if entry == "serve_replicated":
        return lambda: serve_replicated(store, scripts, _TIER)
    assert entry == "serve_workbench_replicated"
    return lambda: serve_workbench_replicated(store, wscripts, router=_TIER)


@pytest.mark.parametrize("nshards", [1, 4])
@pytest.mark.parametrize(
    "entry",
    [
        "serve",
        "query_store",
        "serve_live",
        "serve_workbench",
        "serve_replicated",
        "serve_workbench_replicated",
    ],
)
def test_one_model_per_session(
    entry, nshards, stores, corpus, result, tmp_path, model_builds
):
    store = tmp_path / "store"
    # a private copy: the live-ingest session publishes into it
    shutil.copytree(stores[nshards], store)
    run = _session(entry, store, corpus, result)
    del model_builds[:]
    run()
    assert model_builds == [str(store)]


@pytest.mark.parametrize("nshards", [1, 4])
def test_static_session_parses_one_manifest(nshards, stores, manifest_reads):
    query_store(stores[nshards], Query(kind="cluster", cluster=0))
    assert manifest_reads == [0]


def _flip_magic(store, fname):
    path = store / fname
    data = bytearray(path.read_bytes())
    data[0] ^= 0xFF
    path.write_bytes(bytes(data))
    return path


@pytest.fixture
def corrupt_store(stores, tmp_path):
    """A copy of the 4-shard store with one file's magic flipped."""

    def corrupt(fname):
        store = tmp_path / f"corrupt-{fname}"
        shutil.copytree(stores[4], store)
        return store, _flip_magic(store, fname)

    return corrupt


@pytest.mark.parametrize("fname", ["model.repro", "shard-002.repro"])
def test_corrupt_file_raises_typed_error(corrupt_store, fname):
    store, path = corrupt_store(fname)
    with pytest.raises(ShardFormatError) as err:
        query_store(store, Query(kind="cluster", cluster=0))
    assert err.value.path == str(path)
    assert "bad magic" in str(err.value)


def test_corrupt_shard_typed_error_on_mp(corrupt_store):
    store, path = corrupt_store("shard-002.repro")
    script = generate_workload(
        store_profile(store), n_clients=1, queries_per_client=1, seed=5
    )
    with pytest.raises(ShardFormatError) as err:
        serve(store, script, backend="mp")
    assert err.value.path == str(path)


@pytest.mark.parametrize("fname", ["model.repro", "shard-002.repro"])
def test_serve_query_cli_reports_corrupt_file(corrupt_store, fname):
    store, path = corrupt_store(fname)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(_SRC)] + env.get("PYTHONPATH", "").split(os.pathsep)
    )
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "serve-query",
         "--store", str(store), "--cluster", "0"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"error: {path}: bad magic")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
)
def test_one_shot_queries_release_their_fds(stores):
    def open_fds():
        gc.collect()
        return len(os.listdir("/proc/self/fd"))

    term = load_model(stores[4]).terms[0]
    queries = [
        Query(kind="search", terms=(term,), k=5),
        Query(kind="cluster", cluster=0),
    ]
    for query in queries:  # warm imports and lazy globals
        query_store(stores[4], query)
    baseline = open_fds()
    for i in range(50):
        query_store(stores[4], queries[i % 2])
    assert open_fds() <= baseline
