"""Compaction: fold delta segments back into base shards.

Delta segments keep publishes cheap, but every segment a shard rank
owns adds per-query scan overhead.  When a policy threshold trips
(:func:`should_compact`), :func:`compact_store` rewrites the store's
documents -- base rows followed by delta rows, i.e. global row order
-- into ``nshards`` fresh contiguous shards through the same
:func:`repro.serve.store.write_shards` loop as
:func:`repro.serve.store.build_shards`, and publishes them as a new
generation with an empty delta list.  The rewrite reuses the stored
arrays byte for byte, decodes each segment's postings through
:meth:`repro.serve.store.BlockPostings.to_term_postings` and
reassembles them with :func:`repro.index.termindex.concat_postings`,
so a compacted store answers every query bit-identically to both the
pre-compaction generational store and a fresh build over the grown
collection.  A stamped store's facet sections ride through the
rewrite the same way, re-encoded per shard with the same block bounds
a fresh stamped build would produce.

The model container is untouched: compaction reorganizes documents,
it never changes the frozen model (vocabulary drift is handled by the
rebuild flag, not the compactor).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from repro.index.termindex import concat_postings
from repro.serve.store import (
    POSTINGS_SECTIONS,
    SHARD_COLUMNS,
    BlockPostings,
    Container,
    FacetData,
    StoreManifest,
    check_sections,
    generation_dir,
    load_manifest,
    publish_generation,
    write_shards,
)


@dataclass(frozen=True)
class CompactionPolicy:
    """When to fold deltas back into base shards."""

    #: compact once this many delta segments are live
    max_deltas: int = 4
    #: ... or once deltas reach this fraction of base bytes
    max_delta_bytes_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.max_deltas < 1:
            raise ValueError("max_deltas must be >= 1")
        if self.max_delta_bytes_fraction <= 0:
            raise ValueError("max_delta_bytes_fraction must be > 0")


def should_compact(
    manifest: StoreManifest, policy: CompactionPolicy
) -> bool:
    """Does the manifest's delta load trip the policy?"""
    if not manifest.deltas:
        return False
    if len(manifest.deltas) >= policy.max_deltas:
        return True
    base = manifest.base_nbytes
    return base > 0 and (
        manifest.delta_nbytes / base > policy.max_delta_bytes_fraction
    )


def compact_store(
    store_dir: str | os.PathLike, published_s: float = 0.0
) -> StoreManifest:
    """Merge all delta segments into rewritten base shards.

    No-op (returns the current manifest) when no deltas are live.
    Writes the new shard containers under the next generation's
    directory, then publishes atomically.  ``published_s`` stamps the
    compacted generation's virtual publish instant (0.0 = offline).
    """
    store = str(store_dir)
    manifest = load_manifest(store)
    if not manifest.deltas:
        return manifest
    gen = manifest.generation + 1
    gdir = generation_dir(gen)
    os.makedirs(os.path.join(store, gdir), exist_ok=True)

    # base shards in row order, then deltas in row order: global rows
    infos = manifest.shards + manifest.deltas
    segments = [
        check_sections(Container(os.path.join(store, s.file)))
        for s in infos
    ]
    columns = {
        name: np.concatenate([c.load(name) for c in segments])
        for name in SHARD_COLUMNS
    }
    postings = None
    if all(POSTINGS_SECTIONS[0] in c for c in segments):
        postings = concat_postings(
            [
                BlockPostings(c, s.n_docs).to_term_postings()
                for c, s in zip(segments, infos)
            ]
        )
    facets = None
    if manifest.facets is not None:
        facets = FacetData(
            stamp_s=np.concatenate(
                [c.load("facet_stamp_s") for c in segments]
            ),
            source=np.concatenate([c.load("facet_source") for c in segments]),
            n_sources=manifest.facets.n_sources,
        )
    compacted = replace(
        manifest,
        generation=gen,
        shards=write_shards(
            store,
            f"{gdir}/",
            manifest.nshards,
            columns,
            postings,
            facets,
            manifest.corpus_name,
        ),
        deltas=(),
        published_s=float(published_s),
    )
    publish_generation(store, compacted)
    return compacted
