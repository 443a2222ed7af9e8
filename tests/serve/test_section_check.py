"""One container format: every writer stamps ``FORMAT_VERSION`` and
every reader refuses a container missing a section or holding a
partial postings, facet or projection group."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.ingest.compact import compact_store
from repro.ingest.delta import append_generation, build_delta
from repro.serve.broker import query_store
from repro.serve.query import Query
from repro.serve.store import (
    FORMAT_VERSION,
    MODEL_FILE,
    MODEL_SECTIONS,
    POSTINGS_SECTIONS,
    SECTION_GROUPS,
    SHARD_SECTIONS,
    Container,
    FacetData,
    ShardFormatError,
    build_shards,
    load_model,
    verify_store,
    write_container,
)
from tests.serve.conftest import ENGINE_CONFIG, patch_section

_SRC = Path(__file__).resolve().parents[2] / "src"
SHARD_FILE = "shard-001.repro"
FACET_SECTIONS = SECTION_GROUPS["facet"]


def _facets(n_docs: int, seed: int = 0) -> FacetData:
    rng = np.random.default_rng(seed)
    return FacetData(
        stamp_s=np.sort(rng.uniform(0.0, 100.0, n_docs)),
        source=rng.integers(0, 3, n_docs),
        n_sources=3,
    )


@pytest.fixture(scope="module")
def stamped_store(result, postings, tmp_path_factory):
    """A 2-shard store holding every optional group."""
    out = tmp_path_factory.mktemp("sections") / "store"
    build_shards(
        result, out, 2, postings=postings, facets=_facets(len(result.doc_ids))
    )
    return out


def _drop(store: Path, tmp_path: Path, fname: str, names) -> tuple:
    """A copy of ``store`` whose ``fname`` container lacks ``names``."""
    copy = tmp_path / "store"
    shutil.copytree(store, copy)
    path = copy / fname
    cont = Container(path)
    arrays = {
        name: np.array(cont.load(name))
        for name in cont.section_names
        if name not in names
    }
    meta = cont.meta
    del cont
    write_container(path, arrays, meta)
    return copy, path


@pytest.mark.parametrize(
    "section", SHARD_SECTIONS + POSTINGS_SECTIONS + FACET_SECTIONS
)
def test_dropped_shard_section_is_refused(stamped_store, tmp_path, section):
    store, path = _drop(stamped_store, tmp_path, SHARD_FILE, {section})
    with pytest.raises(ShardFormatError) as err:
        verify_store(store)
    assert err.value.path == str(path)
    assert repr(section) in err.value.reason


@pytest.mark.parametrize("section", MODEL_SECTIONS + ("pca_mean",))
def test_dropped_model_section_is_refused(stamped_store, tmp_path, section):
    store, path = _drop(stamped_store, tmp_path, MODEL_FILE, {section})
    with pytest.raises(ShardFormatError) as err:
        load_model(store)
    assert err.value.path == str(path)
    assert repr(section) in err.value.reason


@pytest.mark.parametrize(
    "dropped",
    [
        ("post_block_offsets", "post_block_maxtf"),
        ("facet_block_lo", "facet_block_hi"),
    ],
    ids=["postings", "facet"],
)
def test_partial_group_is_refused_when_served(
    stamped_store, tmp_path, dropped
):
    """A shard without its block sections used to be served
    exhaustively; every read path now refuses it by name."""
    store, path = _drop(stamped_store, tmp_path, SHARD_FILE, set(dropped))
    with pytest.raises(ShardFormatError) as err:
        query_store(store, Query(kind="cluster", cluster=0))
    assert err.value.path == str(path)
    assert f"missing section {dropped[0]!r} of the partial" in str(err.value)


def test_store_with_postings_needs_them_in_every_shard(
    stamped_store, tmp_path
):
    store, path = _drop(
        stamped_store, tmp_path, SHARD_FILE, set(POSTINGS_SECTIONS)
    )
    with pytest.raises(ShardFormatError) as err:
        verify_store(store)
    assert err.value.path == str(path)
    assert "missing section 'post_offsets'" in err.value.reason


def _stamp_version(store: Path, tmp_path: Path, version: int) -> tuple:
    copy = tmp_path / "store"
    shutil.copytree(store, copy)
    path = copy / SHARD_FILE
    data = bytearray(path.read_bytes())
    data[8:12] = version.to_bytes(4, "little")
    path.write_bytes(bytes(data))
    return copy, path


def _patch(store: Path, tmp_path: Path, name: str, **fields) -> tuple:
    """A copy of ``store`` with one corrupt shard section-table entry."""
    copy = tmp_path / "store"
    shutil.copytree(store, copy)
    path = copy / SHARD_FILE
    patch_section(path, name, **fields)
    return copy, path


@pytest.mark.parametrize(
    "damage, reason",
    [
        (lambda s, t: _drop(s, t, SHARD_FILE, {"assignments"}),
         "missing section 'assignments'"),
        (lambda s, t: _drop(s, t, SHARD_FILE, {"post_tf"}),
         "missing section 'post_tf' of the partial postings group"),
        (lambda s, t: _stamp_version(s, t, 2),
         "unsupported format version 2"),
        (lambda s, t: _patch(s, t, "assignments", shape=[-4]),
         "corrupt header: section 'assignments'"),
        (lambda s, t: _patch(s, t, "doc_ids", shape=[-1, -4]),
         "corrupt header: section 'doc_ids'"),
        (lambda s, t: _patch(s, t, "post_tf", shape=[2**61, 8]),
         "section 'post_tf'"),
        (lambda s, t: _patch(s, t, "signatures", dtype="|O"),
         "corrupt header: section 'signatures'"),
    ],
    ids=[
        "assignments",
        "post_tf",
        "version-2",
        "negative-dim",
        "negative-dims",
        "overflowing-dims",
        "object-dtype",
    ],
)
def test_serve_query_cli_reports_damaged_shard(
    stamped_store, tmp_path, damage, reason
):
    store, path = damage(stamped_store, tmp_path)
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
    assert proc.stderr.startswith(f"error: {path}: {reason}")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def _assert_one_format(store: Path, stamped: bool) -> None:
    """Every container the current generation names is a
    ``FORMAT_VERSION`` file passing the section check, with the facet
    group exactly when the store is stamped."""
    manifest = verify_store(store)
    assert (manifest.facets is not None) == stamped
    files = [MODEL_FILE] + [
        seg.file for seg in manifest.shards + manifest.deltas
    ]
    for fname in files:
        head = (store / fname).read_bytes()[8:12]
        assert head == FORMAT_VERSION.to_bytes(4, "little"), fname
    for seg in manifest.shards + manifest.deltas:
        cont = Container(store / seg.file)
        assert all(name in cont for name in POSTINGS_SECTIONS)
        assert all((name in cont) == stamped for name in FACET_SECTIONS)


@pytest.mark.parametrize("stamped", [False, True], ids=["plain", "stamped"])
def test_every_writer_writes_the_one_format(
    corpus, result, postings, tmp_path, stamped
):
    store = tmp_path / "store"
    facets = _facets(len(result.doc_ids)) if stamped else None
    build_shards(result, store, 2, postings=postings, facets=facets)
    _assert_one_format(store, stamped)

    docs = corpus.documents[:6]
    delta = build_delta(
        result,
        docs,
        tokenizer_config=ENGINE_CONFIG.tokenizer,
        facets=_facets(len(docs), seed=1) if stamped else None,
    )
    assert append_generation(store, [delta]).deltas
    _assert_one_format(store, stamped)

    assert not compact_store(store).deltas
    _assert_one_format(store, stamped)
