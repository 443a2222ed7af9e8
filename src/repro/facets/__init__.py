"""Time/source-faceted analytics over the serving tier.

The Textiverse-scenario layer of the reproduction: documents carry
seeded arrival stamps and source-region ids (drawn from an rng stream
separate from their content, so unstamped output is byte-identical to
the pre-facet generators), every store writer persists per-shard facet
sections (optional in the one container format, detected by
presence), and the broker answers
window queries -- faceted counts, per-window top terms, emerging-term
detection -- with exact int64 partial sums merged in the canonical
``(-score, row)`` order.  A time-sliced ThemeView export and a
high-rate dashboard workload class ride on top.
"""

from repro.facets.slices import slices_payload, themeview_slices
from repro.facets.stamp import (
    FACET_STREAM_TAG,
    FacetSpec,
    FacetsUnavailableError,
    default_source_names,
    extract_facets,
    facet_meta,
    stamp_corpus,
)
from repro.facets.windows import (
    emerging_scores,
    previous_window,
    window_edges,
)
from repro.serve.store import (
    FACET_BLOCK_ROWS,
    FacetData,
    FacetSections,
    FacetsInfo,
    encode_facet_sections,
    facet_data_from_meta,
    load_facet_sections,
)

__all__ = [
    "FACET_BLOCK_ROWS",
    "FACET_STREAM_TAG",
    "FacetData",
    "FacetSections",
    "FacetSpec",
    "FacetsInfo",
    "FacetsUnavailableError",
    "default_source_names",
    "emerging_scores",
    "encode_facet_sections",
    "extract_facets",
    "facet_data_from_meta",
    "facet_meta",
    "load_facet_sections",
    "previous_window",
    "slices_payload",
    "stamp_corpus",
    "themeview_slices",
    "window_edges",
]
