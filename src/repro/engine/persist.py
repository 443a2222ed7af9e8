"""Persist engine results to disk.

Paper §2.1, step 7: "Persist the knowledge signatures computed in
step 7.  These signatures comprise a valuable intermediate product of
the text engine."  We persist the full result -- signatures, model,
coordinates, timings -- as one ``.npz`` archive with a JSON-encoded
metadata entry, so an analysis session can be reopened without
re-running the engine.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from repro.project.pca import PCATransform
from repro.signature.topicality import RankedTerm

from .results import EngineResult
from .timings import StageTimings

PathLike = Union[str, Path]

_FORMAT_VERSION = 1


def terms_to_arrays(terms: list[RankedTerm]) -> dict[str, np.ndarray]:
    """Columnar encoding of ranked-term lists (shared with the
    stage checkpointer)."""
    return {
        "term": np.array([t.term for t in terms], dtype=object),
        "gid": np.array([t.gid for t in terms], dtype=np.int64),
        "score": np.array([t.score for t in terms], dtype=np.float64),
        "df": np.array([t.df for t in terms], dtype=np.int64),
        "cf": np.array([t.cf for t in terms], dtype=np.int64),
    }


def terms_from_arrays(d: dict) -> list[RankedTerm]:
    """Inverse of :func:`terms_to_arrays`."""
    return [
        RankedTerm(
            term=str(t),
            gid=int(g),
            score=float(s),
            df=int(df),
            cf=int(cf),
        )
        for t, g, s, df, cf in zip(
            d["term"], d["gid"], d["score"], d["df"], d["cf"]
        )
    ]


def save_result(result: EngineResult, path: PathLike) -> None:
    """Write an :class:`EngineResult` to a ``.npz`` archive."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    meta = {
        "format_version": _FORMAT_VERSION,
        "corpus_name": result.corpus_name,
        "nprocs": result.nprocs,
        "n_docs": result.n_docs,
        "vocab_size": result.vocab_size,
        "inertia": result.inertia,
        "kmeans_iters": result.kmeans_iters,
        "null_fraction": result.null_fraction,
        "adapt_rounds": result.adapt_rounds,
        "meta": result.meta,
        # every result carries both; the flags stay in the format
        "has_signatures": True,
        "has_term_stats": True,
    }
    if result.timings is not None:
        meta["timings"] = {
            "component_seconds": result.timings.component_seconds,
            "wall_time": result.timings.wall_time,
            "virtual": result.timings.virtual,
        }
    arrays: dict[str, np.ndarray] = {
        "doc_ids": result.doc_ids,
        "coords": result.coords,
        "assignments": result.assignments,
        "centroids": result.centroids,
        "association": result.association,
    }
    for k, v in terms_to_arrays(result.major_terms).items():
        arrays[f"major_{k}"] = v
    arrays["signatures"] = result.signatures
    if result.projection is not None:
        arrays["pca_mean"] = result.projection.mean
        arrays["pca_components"] = result.projection.components
        arrays["pca_variance"] = result.projection.explained_variance
    terms = sorted(result.term_stats)
    arrays["stats_terms"] = np.array(terms, dtype=object)
    arrays["stats_df"] = np.array(
        [result.term_stats[t][0] for t in terms], dtype=np.int64
    )
    arrays["stats_cf"] = np.array(
        [result.term_stats[t][1] for t in terms], dtype=np.int64
    )
    if result.metrics is not None:
        # stored as its own entry (not in _meta_json): the snapshot is
        # large and carries its own schema version ("repro-metrics/1")
        arrays["_metrics_json"] = np.array(
            json.dumps(result.metrics, sort_keys=True), dtype=object
        )
    meta["n_topics"] = result.n_topics
    arrays["_meta_json"] = np.array(json.dumps(meta), dtype=object)
    np.savez_compressed(p, **arrays)


def load_result(path: PathLike) -> EngineResult:
    """Read an :class:`EngineResult` back from :func:`save_result`."""
    with np.load(Path(path), allow_pickle=True) as z:
        meta = json.loads(str(z["_meta_json"][()]))
        if meta.get("format_version") != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported result format {meta.get('format_version')!r}"
            )
        majors = terms_from_arrays(
            {
                k: z[f"major_{k}"]
                for k in ("term", "gid", "score", "df", "cf")
            }
        )
        topics = majors[: meta["n_topics"]]
        projection = None
        if "pca_mean" in z:
            projection = PCATransform(
                mean=z["pca_mean"],
                components=z["pca_components"],
                explained_variance=z["pca_variance"],
            )
        term_stats = {
            str(t): (int(df), int(cf))
            for t, df, cf in zip(
                z["stats_terms"], z["stats_df"], z["stats_cf"]
            )
        }
        metrics = None
        if "_metrics_json" in z:
            metrics = json.loads(str(z["_metrics_json"][()]))
        timings = None
        if "timings" in meta:
            timings = StageTimings(
                component_seconds=dict(
                    meta["timings"]["component_seconds"]
                ),
                wall_time=float(meta["timings"]["wall_time"]),
                virtual=bool(meta["timings"]["virtual"]),
            )
        return EngineResult(
            corpus_name=meta["corpus_name"],
            nprocs=int(meta["nprocs"]),
            n_docs=int(meta["n_docs"]),
            vocab_size=int(meta["vocab_size"]),
            major_terms=majors,
            topic_terms=topics,
            association=z["association"],
            doc_ids=z["doc_ids"],
            coords=z["coords"],
            assignments=z["assignments"],
            centroids=z["centroids"],
            inertia=float(meta["inertia"]),
            kmeans_iters=int(meta["kmeans_iters"]),
            null_fraction=float(meta["null_fraction"]),
            adapt_rounds=int(meta["adapt_rounds"]),
            projection=projection,
            signatures=z["signatures"],
            term_stats=term_stats,
            timings=timings,
            metrics=metrics,
            meta=dict(meta.get("meta", {})),
        )
