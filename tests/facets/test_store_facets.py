"""Facet sections on disk: presence, corruption, window pruning."""

import numpy as np
import pytest

from repro.serve.query import Query
from repro.serve.store import (
    FACET_BLOCK_ROWS,
    SECTION_GROUPS,
    Container,
    FacetSections,
    ShardFormatError,
    encode_facet_sections,
    load_facet_sections,
    load_manifest,
    write_container,
)


def test_stamped_store_writes_facet_sections(stamped_stores):
    manifest = load_manifest(stamped_stores[2])
    assert manifest.facets is not None
    for shard in manifest.shards:
        cont = Container(str(stamped_stores[2] / shard.file))
        assert all(name in cont for name in SECTION_GROUPS["facet"])
        assert load_facet_sections(cont, shard.n_docs) is not None


def test_unstamped_store_has_no_facet_sections(plain_store):
    manifest = load_manifest(plain_store)
    assert manifest.facets is None
    for shard in manifest.shards:
        cont = Container(str(plain_store / shard.file))
        assert not any(name in cont for name in SECTION_GROUPS["facet"])
        assert load_facet_sections(cont, shard.n_docs) is None


def test_manifest_facets_bracket_all_stamps(stamped_stores, facets):
    manifest = load_manifest(stamped_stores[4])
    fac = manifest.facets
    stamps = np.asarray(facets.stamp_s)
    assert fac.stamp_lo == pytest.approx(float(stamps.min()))
    assert fac.stamp_hi == pytest.approx(float(stamps.max()))
    assert fac.n_sources == 3


def test_block_bounds_cover_rows(stamped_stores):
    manifest = load_manifest(stamped_stores[1])
    shard = manifest.shards[0]
    cont = Container(str(stamped_stores[1] / shard.file))
    sections = load_facet_sections(cont, shard.n_docs)
    stamps = np.asarray(sections.stamp_s)
    for b in range(sections.n_blocks):
        lo = b * FACET_BLOCK_ROWS
        hi = min(lo + FACET_BLOCK_ROWS, shard.n_docs)
        chunk = stamps[lo:hi]
        assert sections.block_lo[b] == pytest.approx(float(chunk.min()))
        assert sections.block_hi[b] == pytest.approx(float(chunk.max()))


def _read_arrays(path):
    """Materialized (memmap-free) copies of every section."""
    cont = Container(str(path))
    return {
        name: np.array(cont.load(name))
        for name in cont.section_names
    }, cont.meta


@pytest.mark.parametrize(
    "mutate",
    [
        lambda a: {"facet_stamp_s": a["facet_stamp_s"][:-1]},
        lambda a: {"facet_source": a["facet_source"][:-2]},
        lambda a: {"facet_block_lo": a["facet_block_lo"][:-1]},
        lambda a: {
            "facet_block_lo": a["facet_block_hi"] + 1.0,
        },
    ],
    ids=["stamp-len", "source-len", "bounds-len", "lo-gt-hi"],
)
def test_corrupt_facet_sections_raise_naming_path(
    result, postings, facets, tmp_path, mutate
):
    from repro.serve.store import build_shards

    store = tmp_path / "store"
    build_shards(result, store, 1, postings=postings, facets=facets)
    manifest = load_manifest(store)
    shard = manifest.shards[0]
    path = store / shard.file
    arrays, meta = _read_arrays(path)
    arrays.update(mutate(arrays))
    write_container(str(path), arrays, meta)
    with pytest.raises(ShardFormatError) as exc_info:
        FacetSections(Container(str(path)), shard.n_docs)
    assert str(path) in str(exc_info.value)
    assert "facet" in str(exc_info.value)


def test_encode_facet_sections_roundtrip():
    stamps = np.sort(np.random.default_rng(0).uniform(0, 50, 300))
    source = np.random.default_rng(1).integers(0, 4, 300)
    sections = encode_facet_sections(stamps, source)
    assert np.array_equal(sections["facet_stamp_s"], stamps)
    assert np.array_equal(
        sections["facet_source"], source.astype(np.int64)
    )
    nblocks = -(-300 // FACET_BLOCK_ROWS)
    assert sections["facet_block_lo"].shape == (nblocks,)
    assert np.all(
        sections["facet_block_lo"] <= sections["facet_block_hi"]
    )


def test_window_rows_matches_bruteforce(stamped_stores):
    manifest = load_manifest(stamped_stores[2])
    shard = manifest.shards[1]
    cont = Container(str(stamped_stores[2] / shard.file))
    sections = load_facet_sections(cont, shard.n_docs)
    stamps = np.asarray(sections.stamp_s)
    sources = np.asarray(sections.source)
    for t0, t1, src in ((0.0, 200.0, -1), (150.0, 450.0, 1),
                        (400.0, 700.0, 2), (100.0, 100.0, -1)):
        rows, scanned = sections.window_rows(t0, t1, src)
        expect = np.flatnonzero((stamps >= t0) & (stamps < t1))
        if src >= 0:
            expect = expect[sources[expect] == src]
        assert np.array_equal(rows, expect)
        assert scanned >= 16 * sections.n_blocks


def test_facet_query_kinds_reject_unstamped_store(plain_store):
    from repro.serve.broker import query_store

    resp = query_store(
        plain_store, Query(kind="facet_counts", t0=0.0, t1=100.0)
    )
    assert "not stamped" in resp["error"]
