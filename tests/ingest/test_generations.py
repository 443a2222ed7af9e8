"""Generational store layer: manifests, publish protocol, corruption."""

import json
import shutil

import pytest

from repro.ingest.delta import append_generation, build_delta
from repro.serve.store import (
    CURRENT_FILE,
    ShardFormatError,
    current_generation,
    generation_dir,
    load_manifest,
    load_manifest_generation,
    verify_store,
)
from tests.ingest.conftest import ENGINE_CONFIG


def _publish(result, store, batches, n=1):
    manifest = None
    for corpus, _arrival in batches[:n]:
        delta = build_delta(
            result,
            corpus.documents,
            tokenizer_config=ENGINE_CONFIG.tokenizer,
        )
        manifest = append_generation(store, [delta])
    return manifest


def test_append_generation_manifest(result, make_store, feed_batches):
    store = make_store(2)
    base = load_manifest(store)
    assert base.generation == 0
    assert current_generation(store) == 0

    manifest = _publish(result, store, feed_batches, n=2)
    assert current_generation(store) == 2
    assert manifest.generation == 2
    assert len(manifest.deltas) == 2
    n_new = sum(len(c.documents) for c, _ in feed_batches[:2])
    assert manifest.n_docs == base.n_docs + n_new
    assert manifest.ingested_batches == 2
    # deltas continue the global row space and round-robin owners
    assert manifest.deltas[0].row_lo == base.n_docs
    assert manifest.deltas[1].row_lo == manifest.deltas[0].row_hi
    assert [d.owner for d in manifest.deltas] == [0, 1]
    # base shards untouched
    assert manifest.shards == base.shards


def test_old_generations_stay_readable(result, make_store, feed_batches):
    store = make_store(2)
    _publish(result, store, feed_batches, n=2)
    # every published generation remains individually loadable
    for k in (0, 1, 2):
        m = load_manifest_generation(store, k)
        assert m.generation == k
        assert len(m.deltas) == k


def test_verify_store_ok(result, make_store, feed_batches):
    store = make_store(2)
    _publish(result, store, feed_batches, n=1)
    manifest = verify_store(store)
    assert manifest.generation == 1


def test_truncated_delta_container(result, make_store, feed_batches):
    store = make_store(2)
    manifest = _publish(result, store, feed_batches, n=1)
    victim = store / manifest.deltas[0].file
    data = victim.read_bytes()
    victim.write_bytes(data[: len(data) // 2])
    with pytest.raises(ShardFormatError) as err:
        verify_store(store)
    assert err.value.path == str(victim)


def test_missing_generation_dir(result, make_store, feed_batches):
    store = make_store(2)
    _publish(result, store, feed_batches, n=1)
    shutil.rmtree(store / generation_dir(1))
    with pytest.raises(ShardFormatError) as err:
        verify_store(store)
    assert generation_dir(1) in err.value.path


def test_stale_generation_pointer(result, make_store, feed_batches):
    store = make_store(2)
    _publish(result, store, feed_batches, n=1)
    current = json.loads((store / CURRENT_FILE).read_text())
    current["generation"] = 99
    current["manifest"] = "manifest-00099.json"
    (store / CURRENT_FILE).write_text(json.dumps(current))
    with pytest.raises(ShardFormatError, match="stale generation"):
        load_manifest(store)
    with pytest.raises(ShardFormatError):
        verify_store(store)
