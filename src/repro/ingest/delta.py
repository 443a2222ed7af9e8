"""Delta segments: projecting batches into publishable containers.

Each arriving batch is scanned once onto the frozen model's major-term
rows (:func:`repro.index.termindex.scan_major_rows`), which are both
projected (:func:`repro.engine.incremental.project_major_rows`) and
inverted (:func:`repro.index.termindex.invert_major_rows`); the results
become one *delta segment* -- a REPROSHD container written by the
base shards' own :func:`~repro.serve.store.write_segment` (doc_ids,
signatures, coords, assignments, block-aligned postings, and facet
sections when stamped) covering a new global row range appended after
everything already published.  Segments are assigned to serving shards
round-robin by delta index, so load from fresh documents spreads over
the existing ranks.

:func:`append_generation` performs the publish protocol: write the new
containers under ``gen-0000k/``, write ``manifest-0000k.json``, then
atomically flip ``CURRENT``.  :func:`extend_result` is the parity
oracle's static-side twin: the same per-batch projections concatenated
onto the base result, so ``build_shards`` over it is the "equivalent
static store at that generation" the acceptance tests byte-compare
against.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro.engine.incremental import ProjectedBatch, project_major_rows, project_new_documents
from repro.engine.results import EngineResult
from repro.index.termindex import TermPostings, invert_major_rows, scan_major_rows
from repro.serve.store import (
    SHARD_COLUMNS,
    DeltaInfo,
    FacetData,
    StoreManifest,
    generation_dir,
    load_manifest,
    publish_generation,
    write_segment,
)
from repro.text.documents import Corpus, Document


@dataclass
class DeltaBatch:
    """One batch's projected arrays plus its major-term postings.

    ``facets`` carries the batch's stamp/source arrays when the feed is
    stamped; a stamped store only accepts stamped batches (and vice
    versa), so a store can never end up half-faceted.
    """

    documents: list[Document]
    projected: ProjectedBatch
    postings: TermPostings
    facets: FacetData | None = None

    @property
    def n_docs(self) -> int:
        return len(self.documents)

    @property
    def null_count(self) -> int:
        return int(self.projected.null_mask.sum())


def build_delta(
    result: EngineResult,
    documents: Sequence[Document],
    tokenizer_config=None,
    facets: FacetData | None = None,
) -> DeltaBatch:
    """Project one batch and invert its postings, from one scan."""
    docs = list(documents)
    if not docs:
        raise ValueError("a delta batch needs at least one document")
    if facets is not None and facets.n_docs != len(docs):
        raise ValueError(
            f"facet arrays cover {facets.n_docs} docs but the batch "
            f"has {len(docs)}"
        )
    doc_rows = scan_major_rows(docs, result, tokenizer_config)
    return DeltaBatch(
        documents=docs,
        projected=project_major_rows(
            result, [d.doc_id for d in docs], doc_rows
        ),
        postings=invert_major_rows(
            doc_rows,
            np.arange(len(docs)),
            n_docs=len(docs),
            n_terms=len(result.major_terms),
        ),
        facets=facets,
    )


def _merged_bbox(
    bbox: tuple[float, float, float, float], coords: np.ndarray
) -> tuple[float, float, float, float]:
    if coords.shape[0] == 0:
        return bbox
    return (
        min(bbox[0], float(coords[:, 0].min())),
        min(bbox[1], float(coords[:, 1].min())),
        max(bbox[2], float(coords[:, 0].max())),
        max(bbox[3], float(coords[:, 1].max())),
    )


def append_generation(
    store_dir: str | os.PathLike,
    deltas: Sequence[DeltaBatch],
    published_s: float = 0.0,
) -> StoreManifest:
    """Publish one new generation holding ``deltas`` as segments.

    Follows the atomic publish protocol: containers first, then the
    generation manifest, then the ``CURRENT`` pointer flip.  Returns
    the published manifest.  ``published_s`` stamps the generation with
    its virtual publish instant (live ingest passes ``ctx.now``); the
    default 0.0 marks an offline publish, visible from session start.
    """
    if not deltas:
        raise ValueError("append_generation needs at least one batch")
    store = str(store_dir)
    manifest = load_manifest(store)
    stamped = manifest.facets is not None
    for i, d in enumerate(deltas):
        if stamped and d.facets is None:
            raise ValueError(
                f"batch {i} is unstamped but the store is faceted: "
                "every batch appended to a stamped store needs facet "
                "arrays"
            )
        if not stamped and d.facets is not None:
            raise ValueError(
                f"batch {i} carries facet arrays but the store is not "
                "stamped: rebuild the store from a stamped corpus first"
            )
        if stamped and d.facets.n_sources != manifest.facets.n_sources:
            raise ValueError(
                f"batch {i} has {d.facets.n_sources} sources but the "
                f"store has {manifest.facets.n_sources}"
            )
    gen = manifest.generation + 1
    gdir = generation_dir(gen)
    os.makedirs(os.path.join(store, gdir), exist_ok=True)

    row_base = manifest.n_docs
    delta_seq = len(manifest.deltas)
    bbox = manifest.bbox
    stamp_lo = manifest.facets.stamp_lo if stamped else 0.0
    stamp_hi = manifest.facets.stamp_hi if stamped else 0.0
    new_infos: list[DeltaInfo] = []
    for d in deltas:
        p = d.projected
        n = d.n_docs
        owner = delta_seq % manifest.nshards
        fname = f"{gdir}/delta-{delta_seq:05d}.repro"
        nbytes = write_segment(
            os.path.join(store, fname),
            {name: getattr(p, name) for name in SHARD_COLUMNS},
            d.postings,
            d.facets,
            {
                "kind": "delta",
                "generation": gen,
                "delta": delta_seq,
                "owner": owner,
                "row_lo": row_base,
                "row_hi": row_base + n,
                "corpus_name": manifest.corpus_name,
            },
        )
        if stamped:
            stamp_lo = min(stamp_lo, float(d.facets.stamp_s.min()))
            stamp_hi = max(stamp_hi, float(d.facets.stamp_s.max()))
        new_infos.append(
            DeltaInfo(
                file=fname,
                generation=gen,
                owner=owner,
                row_lo=row_base,
                row_hi=row_base + n,
                doc_lo=int(p.doc_ids[0]),
                doc_hi=int(p.doc_ids[-1]),
                nbytes=nbytes,
            )
        )
        bbox = _merged_bbox(bbox, np.asarray(p.coords))
        row_base += n
        delta_seq += 1

    updated = replace(
        manifest,
        generation=gen,
        n_docs=row_base,
        bbox=bbox,
        deltas=manifest.deltas + tuple(new_infos),
        ingested_batches=manifest.ingested_batches + len(new_infos),
        published_s=float(published_s),
        facets=(
            replace(manifest.facets, stamp_lo=stamp_lo, stamp_hi=stamp_hi)
            if stamped
            else None
        ),
    )
    publish_generation(store, updated)
    return updated


def extend_result(
    result: EngineResult,
    batches: Sequence[Corpus],
    tokenizer_config=None,
) -> EngineResult:
    """The grown collection's result under the *frozen* model.

    Projects each batch exactly like the ingest path (one
    :func:`project_new_documents` call per batch, in batch order) and
    concatenates onto the base arrays -- so a ``build_shards`` over the
    returned result is bit-identical, row for row, to what the
    generational store serves at the corresponding generation.
    """
    doc_ids = [np.asarray(result.doc_ids, dtype=np.int64)]
    signatures = [np.asarray(result.signatures)]
    coords = [np.asarray(result.coords)]
    assignments = [np.asarray(result.assignments, dtype=np.int64)]
    for corpus in batches:
        p = project_new_documents(
            result, corpus.documents, tokenizer_config=tokenizer_config
        )
        doc_ids.append(np.asarray(p.doc_ids, dtype=np.int64))
        signatures.append(np.asarray(p.signatures))
        coords.append(np.asarray(p.coords))
        assignments.append(np.asarray(p.assignments, dtype=np.int64))
    grown_ids = np.concatenate(doc_ids)
    return replace(
        result,
        n_docs=int(grown_ids.shape[0]),
        doc_ids=grown_ids,
        signatures=np.concatenate(signatures, axis=0),
        coords=np.concatenate(coords, axis=0),
        assignments=np.concatenate(assignments),
    )
