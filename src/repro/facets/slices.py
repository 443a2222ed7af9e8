"""Time-sliced ThemeView sequences over a stamped store.

Paper §2.1 grows a terrain per collection; the Textiverse scenario
needs the terrain *over time*.  A slice sequence cuts the store's
stamp range into equal windows and builds one ThemeView per window on
a grid aligned to the store's manifest bbox -- the same cell means the
same place in every slice, so a dashboard can animate theme drift.
"""

from __future__ import annotations

import os

import numpy as np

from repro.analysis.session import top_positive_terms
from repro.facets.stamp import FacetsUnavailableError
from repro.facets.windows import window_edges
from repro.serve.store import Container, StoreManifest, load_model
from repro.viz.themeview import ThemeView, build_themeview


def _store_rows(
    store: str, manifest: StoreManifest
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Global-row-order ``(coords, assignments, stamps)`` of a store.

    Base shards then deltas, in manifest order -- exactly the global
    row layout (deltas are appended after every earlier segment's
    rows), so slice membership matches what window queries see.
    """
    coords_parts = []
    assign_parts = []
    stamp_parts = []
    for seg in list(manifest.shards) + list(manifest.deltas):
        cont = Container(os.path.join(store, seg.file))
        coords_parts.append(np.asarray(cont.load("coords")))
        assign_parts.append(np.asarray(cont.load("assignments")))
        stamp_parts.append(np.asarray(cont.load("facet_stamp_s")))
    return (
        np.concatenate(coords_parts, axis=0),
        np.concatenate(assign_parts),
        np.concatenate(stamp_parts),
    )


def themeview_slices(
    store_dir: str | os.PathLike,
    n_slices: int = 4,
    grid: int = 48,
    sigma_cells: float = 1.8,
    max_peaks: int = 12,
    label_terms: int = 4,
) -> list[dict]:
    """Equal-window ThemeView sequence over a stamped store.

    Returns one record per slice: ``{"t0", "t1", "n_docs", "view"}``
    where ``view`` is a :class:`~repro.viz.themeview.ThemeView`
    (``None`` for empty windows).  All slices share the manifest-bbox
    grid; peak labels come from the frozen model's cluster centroids.
    Raises :class:`FacetsUnavailableError` on unstamped stores.  The
    store's manifest is read once, so a concurrent publish cannot mix
    two generations into one sequence.
    """
    model = load_model(store_dir)
    manifest = model.manifest
    if manifest.facets is None:
        raise FacetsUnavailableError(
            model.store_dir,
            "store is not stamped: no facet sections "
            "(rebuild from a stamped corpus)",
        )
    coords, assignments, stamps = _store_rows(model.store_dir, manifest)
    labels = {
        c: top_positive_terms(
            model.centroids[c], model.topic_terms, label_terms
        )
        for c in range(model.centroids.shape[0])
    }
    edges = window_edges(
        manifest.facets.stamp_lo, manifest.facets.stamp_hi, n_slices
    )
    out = []
    for i in range(n_slices):
        t0, t1 = float(edges[i]), float(edges[i + 1])
        mask = (stamps >= t0) & (stamps < t1)
        if i == n_slices - 1:
            # the final slice closes the range so the latest document
            # is never dropped by the half-open convention
            mask |= stamps == t1
        n = int(mask.sum())
        view: ThemeView | None = None
        if n:
            view = build_themeview(
                coords[mask],
                assignments[mask],
                cluster_labels=labels,
                grid=grid,
                sigma_cells=sigma_cells,
                max_peaks=max_peaks,
                bbox=manifest.bbox,
            )
        out.append({"t0": t0, "t1": t1, "n_docs": n, "view": view})
    return out


def slices_payload(slices: list[dict]) -> list[dict]:
    """JSON-able form of a slice sequence (peaks only, no grids)."""
    payload = []
    for s in slices:
        view = s["view"]
        payload.append(
            {
                "t0": s["t0"],
                "t1": s["t1"],
                "n_docs": s["n_docs"],
                "peaks": [
                    {
                        "x": p.x,
                        "y": p.y,
                        "height": p.height,
                        "cluster": p.cluster,
                        "labels": list(p.labels),
                    }
                    for p in (view.peaks if view is not None else [])
                ],
            }
        )
    return payload
