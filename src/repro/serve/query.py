"""Per-shard query execution over the on-disk store.

A :class:`ShardStore` wraps one shard container plus the replicated
model and executes the shard-local half of every query operator.  All
scoring goes through the *same module-level kernels* as
:class:`repro.analysis.session.AnalysisSession` -- every per-document
float is produced by an identical sequence of float ops on identical
row data, which is what makes the broker's merged answers bit-identical
to the single-result reference path (the acceptance criterion of the
serving layer).

Each ranked operator (``op_search``, ``op_matvec``, ``op_cluster``)
returns its top hits as :data:`Hits` -- four equal-length columns
(score f64, global row i64, doc id i64, cluster i64) -- so the broker
can merge shards' top-k with the same ``(-score, row)`` tie-breaking a
global stable argsort would apply, plus the number of payload bytes it
scanned (the accounting input for ``serve.shard.bytes_scanned``).

The broker-side merge (the one place a :class:`Candidate` is built)
and the canonical response serialization (used by the determinism
byte-compare tests) also live here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.analysis.session import (
    centroid_distances,
    cosine_scores,
    point_distances,
    topk_asc,
    topk_desc,
    unit_rows,
)
from repro.index.termindex import (
    TermPostings,
    accumulate_tficf,
    set_term_tf,
    topk_score_row,
)
from repro.serve.store import (
    BlockPostings,
    Container,
    FacetSections,
    ServeModel,
    check_sections,
    load_facet_sections,
)

#: window-analytics kinds: answerable only on stamped (facet) stores
FACET_QUERY_KINDS = ("facet_counts", "window_terms", "emerging")
QUERY_KINDS = (
    "search",
    "query",
    "similar",
    "cluster",
    "region",
) + FACET_QUERY_KINDS


@dataclass(frozen=True)
class Query:
    """One analyst request against the store.

    ``kind`` selects the operator: ``search`` (ranked tf·icf term
    search), ``query`` (pseudo-signature cosine ranking), ``similar``
    (k-NN of one document), ``cluster`` (cluster summary), ``region``
    (landscape-region topic terms), plus the window-analytics kinds
    over stamped stores: ``facet_counts`` (per-source counts in
    ``[t0, t1)``), ``window_terms`` (exact top terms by int64 tf
    inside the window), ``emerging`` (terms rising against the
    preceding window of equal width).  Unused fields stay at their
    defaults; :meth:`key` is the cache key.
    """

    kind: str
    terms: tuple[str, ...] = ()
    doc_id: int = -1
    cluster: int = -1
    x: float = 0.0
    y: float = 0.0
    radius: float = 0.0
    k: int = 10
    n_terms: int = 6
    n_docs: int = 5
    #: window bounds (``t0 <= stamp < t1``, virtual seconds)
    t0: float = 0.0
    t1: float = 0.0
    #: source-region filter (``-1`` = all sources)
    source: int = -1

    def __post_init__(self):
        if self.kind not in QUERY_KINDS:
            raise ValueError(
                f"unknown query kind {self.kind!r}; "
                f"expected one of {QUERY_KINDS}"
            )

    def key(self) -> tuple:
        """Hashable identity for result caching."""
        return (
            self.kind,
            self.terms,
            self.doc_id,
            self.cluster,
            self.x,
            self.y,
            self.radius,
            self.k,
            self.n_terms,
            self.n_docs,
            self.t0,
            self.t1,
            self.source,
        )


@dataclass(frozen=True)
class Candidate:
    """One merged hit: a scored document of a ranked answer."""

    score: float
    row: int  # global document row
    doc_id: int
    cluster: int


#: a ranked shard reply: ``(score f64, global row i64, doc id i64,
#: cluster i64)`` columns, one entry per hit, in :class:`Candidate`
#: field order
Hits = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


class ShardStore:
    """One shard's documents, loaded lazily from its container.

    Opening checks the container's sections against the store's
    layout (:func:`repro.serve.store.check_sections`), so a shard
    missing a column or holding a partial postings or facet group is a
    :class:`~repro.serve.store.ShardFormatError` before any query.
    """

    def __init__(self, container: Container, model: ServeModel):
        self.container = check_sections(container, model.shard_sections)
        self.model = model
        self.row_lo = int(container.meta["row_lo"])
        self.row_hi = int(container.meta["row_hi"])
        self.doc_ids = np.asarray(container.load("doc_ids"))
        self.assignments = np.asarray(container.load("assignments"))
        self._unit: Optional[np.ndarray] = None
        self._sigs: Optional[np.ndarray] = None
        self._postings: Optional[TermPostings] = None
        self._blocks: Optional[BlockPostings] = None
        self._facets: Optional[FacetSections] = None

    @property
    def n_docs(self) -> int:
        return self.row_hi - self.row_lo

    @property
    def signatures(self) -> np.ndarray:
        if self._sigs is None:
            self._sigs = np.asarray(self.container.load("signatures"))
        return self._sigs

    @property
    def unit(self) -> np.ndarray:
        if self._unit is None:
            self._unit = unit_rows(self.signatures)
        return self._unit

    @property
    def blocks(self) -> BlockPostings:
        """Lazy block-aligned postings, what every search reads."""
        if self._blocks is None:
            if "post_offsets" not in self.container:
                raise KeyError(
                    f"{self.container.path}: shard was built without "
                    "postings (pass a corpus to build_shards)"
                )
            self._blocks = BlockPostings(self.container, self.n_docs)
        return self._blocks

    @property
    def postings(self) -> TermPostings:
        """Fully-decoded postings (the exhaustive reference search,
        window and set kernels)."""
        if self._postings is None:
            self._postings = self.blocks.to_term_postings()
        return self._postings

    @property
    def facets(self) -> Optional[FacetSections]:
        """Lazy facet sections, or ``None`` on an unstamped shard --
        the signal the broker turns into a typed error instead of a
        fan-out."""
        if self._facets is None:
            self._facets = load_facet_sections(
                self.container, self.n_docs
            )
        return self._facets

    def _hits(self, local: np.ndarray, scores: np.ndarray) -> Hits:
        """Reply columns of local rows ``local`` scored ``scores``."""
        local = np.asarray(local, dtype=np.int64)
        return (
            np.asarray(scores, dtype=np.float64),
            self.row_lo + local,
            np.asarray(self.doc_ids[local], dtype=np.int64),
            np.asarray(self.assignments[local], dtype=np.int64),
        )

    # ------------------------------------------------------------------
    # operators (shard-local halves)
    # ------------------------------------------------------------------
    def op_fetch_unit(
        self, doc_id: int
    ) -> tuple[Optional[np.ndarray], int, int]:
        """``(unit signature row, global row, bytes scanned)`` of one
        locally-owned document (``(None, -1, scanned)`` if absent)."""
        scanned = self.doc_ids.nbytes
        rows = np.flatnonzero(self.doc_ids == doc_id)
        if rows.size == 0:
            return None, -1, scanned
        row = int(rows[0])
        return (
            self.unit[row].copy(),
            self.row_lo + row,
            scanned + self.unit[row].nbytes,
        )

    def _local_restrict(
        self, restrict_rows: np.ndarray
    ) -> np.ndarray:
        """Shard-local rows of the globally-rowed restriction set."""
        rows = np.asarray(restrict_rows, dtype=np.int64)
        rows = rows[(rows >= self.row_lo) & (rows < self.row_hi)]
        return rows - self.row_lo

    def op_matvec(
        self,
        unit_query: np.ndarray,
        k: int,
        skip_row: int = -1,
        restrict_rows: Optional[np.ndarray] = None,
    ) -> tuple[Hits, int]:
        """Local cosine top-k against a unit query vector.

        ``skip_row`` (a *global* row) masks the query document itself
        for k-NN, exactly like the session's ``sims[row] = -inf``.
        ``restrict_rows`` (global rows) limits ranking to a result
        set's members -- the workbench ``refine`` path.  Scores are
        per-row cosines either way, so restriction changes which rows
        compete, never any row's float.
        """
        sims = cosine_scores(self.unit, unit_query)
        if self.row_lo <= skip_row < self.row_hi:
            sims[skip_row - self.row_lo] = -np.inf
        if restrict_rows is not None:
            local = self._local_restrict(restrict_rows)
            sims_r = sims[local]
            sel = topk_score_row(sims_r, local, k)
            return self._hits(local[sel], sims_r[sel]), self.unit.nbytes
        take = min(k, sims.shape[0])
        idx = topk_desc(sims, take)
        return self._hits(idx, sims[idx]), self.unit.nbytes

    def op_search(
        self,
        term_rows: list[int],
        icf: np.ndarray,
        k: int,
        pruned: bool = True,
        restrict_rows: Optional[np.ndarray] = None,
    ) -> tuple[Hits, int, int]:
        """Local tf·icf ranked search over the shard's postings.

        Returns ``(hits, bytes scanned, blocks skipped)``.  With
        ``pruned`` (the default), runs :func:`topk_search` and reports
        only the posting bytes it actually decoded; ``pruned=False`` is
        the exhaustive reference (fully-decoded postings, 0 blocks
        skipped by definition).  Both return bit-identical hits.

        ``restrict_rows`` (global rows) limits the ranking to a result
        set's members (the workbench ``refine`` path).  Restricted
        search accumulates every term run (block-skip thresholds are
        global, not bounds within an arbitrary subset) and then
        filters, so refined scores equal unrestricted scores on the
        same rows bit for bit.
        """
        if restrict_rows is not None:
            blocks = self.blocks
            scores, scanned_postings = accumulate_runs(
                blocks, term_runs(blocks, term_rows, icf)
            )
            local = self._local_restrict(restrict_rows)
            sc = scores[local]
            pos = sc > 0
            local = local[pos]
            sc = sc[pos]
            sel = topk_score_row(sc, local, k)
            return self._hits(local[sel], sc[sel]), scanned_postings * 16, 0
        if pruned:
            idx, cand_scores, scanned_postings, skipped = topk_search(
                self.blocks, term_rows, icf, k
            )
            return (
                self._hits(idx, cand_scores),
                scanned_postings * 16,
                skipped,
            )
        postings = self.postings
        scores = np.zeros(self.n_docs, dtype=np.float64)
        scanned_postings = accumulate_tficf(
            postings, term_rows, icf, scores
        )
        take = min(k, scores.shape[0])
        idx = topk_desc(scores, take)
        idx = idx[scores[idx] > 0]
        # each posting stores a delta-coded row and a tf (8 bytes each)
        return self._hits(idx, scores[idx]), scanned_postings * 16, 0

    def op_cluster(
        self, cluster: int, n_docs: int
    ) -> tuple[int, Hits, int]:
        """Local member count + the members nearest the centroid.

        The hits score ``-d2`` (negation is exact), so the broker
        merges representatives by ascending ``(d2, row)`` through the
        same ``(-score, row)`` rule as every ranked answer.
        """
        centroid = self.model.centroids[cluster]
        members = np.flatnonzero(self.assignments == cluster)
        d2 = centroid_distances(self.signatures[members], centroid)
        idx = topk_asc(d2, min(n_docs, members.size))
        return (
            int(members.size),
            self._hits(members[idx], -d2[idx]),
            self.assignments.nbytes
            + members.size * (self.signatures.shape[1] * 8),
        )

    def op_region(
        self, x: float, y: float, radius: float
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Global rows + signature block of local in-circle documents.

        The *broker* computes the region mean on the concatenation of
        all shards' blocks (global row order) so the reduction is
        bit-identical to the session's single-array mean.
        """
        coords = np.asarray(self.container.load("coords"))
        d2 = point_distances(coords, x, y)
        mask = d2 <= radius * radius
        scanned = coords.nbytes
        if not mask.any():
            return (
                np.empty(0, dtype=np.int64),
                np.empty((0, self.model.centroids.shape[1])),
                scanned,
            )
        block = self.signatures[mask]
        rows = self.row_lo + np.flatnonzero(mask).astype(np.int64)
        return rows, block, scanned + block.nbytes

    def _require_facets(self) -> FacetSections:
        facets = self.facets
        if facets is None:
            raise KeyError(
                f"{self.container.path}: shard has no facet sections "
                "(unstamped store; rebuild from a stamped corpus)"
            )
        return facets

    def op_facet_counts(
        self, t0: float, t1: float, n_sources: int
    ) -> tuple[np.ndarray, int]:
        """Local per-source document counts within ``[t0, t1)``.

        Integer counts sum associatively across shards, so the
        broker's merged counts are shard-order-independent.
        """
        return self._require_facets().source_counts(t0, t1, n_sources)

    def op_window_tf(
        self, t0: float, t1: float, source: int = -1
    ) -> tuple[np.ndarray, int, int]:
        """Exact per-term int64 tf totals over the window's rows.

        Returns ``(totals, window doc count, bytes scanned)``.  The
        totals are partial sums the broker adds across shards --
        integer addition is associative, so the merged totals (and
        everything ranked from them) are identical at every shard
        count and shard order.
        """
        rows, scanned = self._require_facets().window_rows(
            t0, t1, source
        )
        totals, scanned_postings = set_term_tf(self.postings, rows)
        return totals, int(rows.size), scanned + scanned_postings * 16

    def op_window_restrict(
        self, rows: np.ndarray, t0: float, t1: float, source: int = -1
    ) -> tuple[np.ndarray, int]:
        """Global rows of the restriction set that fall in the window.

        The workbench ``window`` verb: filter a saved result set's
        locally-owned rows by stamp (and optionally source) without
        rescoring anything.  Returns ascending global rows.
        """
        facets = self._require_facets()
        local = self._local_restrict(rows)
        scanned = 0
        if local.size:
            scanned += 8 * int(local.size)
            stamps = np.asarray(
                facets.stamp_s[local], dtype=np.float64
            )
            keep = (stamps >= t0) & (stamps < t1)
            local = local[keep]
            if source >= 0 and local.size:
                scanned += 8 * int(local.size)
                src = np.asarray(
                    facets.source[local], dtype=np.int64
                )
                local = local[src == source]
        return np.sort(local) + self.row_lo, scanned


# ----------------------------------------------------------------------
# exact top-k term search
# ----------------------------------------------------------------------
def _single_term_search(
    blocks: BlockPostings, lo: int, hi: int, wp: float, k: int
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Exact single-term top-k with integer-threshold block skipping.

    With one positive-weight term the k-th largest *tf* bounds the
    k-th score exactly (``tf -> fl(tf·w)`` is monotone, so order
    statistics commute with the rounding), which allows skipping the
    row decode of every block whose ``fl(maxtf·w)`` falls strictly
    below ``fl(kth_tf·w)`` -- no float margin needed.  The per-block
    tf values are read directly (they are a flat section slice); only
    the delta-coded rows of surviving blocks pay the cumsum decode.
    """
    nb = hi - lo
    if nb == 0 or wp <= 0.0:
        # zero weight: every score is 0 and the positive filter drops
        # all of them, so nothing needs decoding at all
        return (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
            0,
            nb,
        )
    tfs = blocks.run_tf(lo, hi)
    df = int(tfs.size)
    if df > k > 0:
        kth = float(np.partition(tfs, df - k)[df - k])
        theta = kth * wp
        maxtf = np.asarray(blocks.block_maxtf[lo:hi], dtype=np.float64)
        keep_mask = maxtf * wp >= theta
        kept = np.flatnonzero(keep_mask) + lo
    else:
        theta = 0.0
        kept = np.arange(lo, hi, dtype=np.int64)
    rows_parts: list[np.ndarray] = []
    tf_parts: list[np.ndarray] = []
    scanned = 0
    breaks = np.flatnonzero(np.diff(kept) > 1) + 1
    for seg in np.split(kept, breaks):
        j0, j1 = int(seg[0]), int(seg[-1]) + 1
        rows_parts.append(blocks.run_rows(j0, j1))
        tf_parts.append(blocks.run_tf(j0, j1))
        scanned += int(
            blocks.block_offsets[j1] - blocks.block_offsets[j0]
        )
    rows_k = np.concatenate(rows_parts)
    sc = np.concatenate(tf_parts) * wp
    cidx = np.flatnonzero(sc >= theta if theta > 0.0 else sc > 0)
    rows_c = rows_k[cidx]
    sc_c = sc[cidx]
    sel = topk_score_row(sc_c, rows_c, k)
    return rows_c[sel], sc_c[sel], scanned, nb - int(kept.size)


def term_runs(
    blocks: BlockPostings, term_rows: list[int], icf: np.ndarray
) -> list[tuple[int, int, float]]:
    """``(block lo, block hi, weight)`` of each query term, in query
    order (duplicates kept: a repeated term adds its run twice)."""
    icf = np.asarray(icf, dtype=np.float64)
    return [
        (*blocks.term_block_range(int(r)), float(icf[int(r)]))
        for r in term_rows
    ]


def accumulate_runs(
    blocks: BlockPostings, runs: list[tuple[int, int, float]]
) -> tuple[np.ndarray, int]:
    """Dense ``tf * w`` scores over the shard's rows, term runs added
    in the given order -- the same float ops, in the same order, as
    ``accumulate_tficf`` over the decoded postings, so the scores are
    the reference's bit for bit for any sign of weight.  Returns
    ``(scores, postings scanned)``, counting each run once per
    occurrence."""
    scores = np.zeros(blocks.n_docs, dtype=np.float64)
    scanned = 0
    for lo, hi, w in runs:
        if hi > lo:
            scores[blocks.run_rows(lo, hi)] += blocks.run_tf(lo, hi) * w
            scanned += int(
                blocks.block_offsets[hi] - blocks.block_offsets[lo]
            )
    return scores, scanned


def topk_search(
    blocks: BlockPostings,
    term_rows: list[int],
    icf: np.ndarray,
    k: int,
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Exact top-k tf·icf search over one shard's block postings.

    Returns ``(local rows, scores, postings decoded, blocks skipped)``
    where the rows/scores are bit-identical -- values *and* tie order --
    to exhaustive ``accumulate_tficf`` + stable ``topk_desc`` + the
    positive-score filter.

    A one-term query runs :func:`_single_term_search`, whose exact
    integer threshold skips the blocks that cannot reach the top k.
    Every other query accumulates its term runs densely
    (:func:`accumulate_runs`), reports every run it read and no skipped
    block, and selects the top k among the positive scores by a
    partition threshold plus ``(-score, row)`` over the rows reaching
    it.  Multi-term block-max bounds skipped almost nothing on real
    shards and cost more than this accumulation (see the architecture
    notes, "Term search").
    """
    runs = term_runs(blocks, term_rows, icf)
    if len(runs) == 1:
        return _single_term_search(blocks, *runs[0], k)
    scores, scanned = accumulate_runs(blocks, runs)
    cand = np.flatnonzero(scores > 0)
    sc = scores[cand]
    if 0 < k < cand.size:
        # every row tying the k-th score survives the threshold, so
        # the candidate lexsort reproduces the reference tie order
        kth = np.partition(sc, cand.size - k)[cand.size - k]
        keep = sc >= kth
        cand, sc = cand[keep], sc[keep]
    sel = topk_score_row(sc, cand, k)
    return cand[sel], sc[sel], scanned, 0


# ----------------------------------------------------------------------
# broker-side merges
# ----------------------------------------------------------------------
def merge_desc(per_shard: list[Hits], k: int) -> list[Candidate]:
    """Global top-k by (score desc, global row asc).

    Equivalent to a stable global argsort on descending score: one
    ``(-score, row)`` selection over the concatenated shard columns
    reproduces the reference order.  Only the ``k`` selected hits
    become :class:`Candidate`\\ s, built from ``tolist`` values so
    every field is a Python ``float`` / ``int``.
    """
    if not per_shard:
        return []
    score, row, doc, cluster = map(np.concatenate, zip(*per_shard))
    sel = topk_score_row(score, row, k)
    return list(
        map(
            Candidate,
            score[sel].tolist(),
            row[sel].tolist(),
            doc[sel].tolist(),
            cluster[sel].tolist(),
        )
    )


def topk_int_score_row(
    scores: np.ndarray, rows: np.ndarray, k: int
) -> np.ndarray:
    """Indices of the top-``k`` entries by ``(-score, row)``, exact
    over int64 scores.

    The integer twin of :func:`repro.index.termindex.topk_score_row`:
    window-analytics scores are exact int64 tf sums, and selecting on
    the integers directly keeps the order exact at any magnitude
    (no float64 conversion anywhere).
    """
    scores = np.asarray(scores, dtype=np.int64)
    rows = np.asarray(rows, dtype=np.int64)
    take = rows.size if k < 0 else min(k, rows.size)
    return np.lexsort((rows, -scores))[:take]


def hits_payload(cands: list[Candidate]) -> list[dict]:
    """JSON-native hit list of a merged candidate ranking."""
    return [
        {"doc": c.doc_id, "score": c.score, "cluster": c.cluster}
        for c in cands
    ]


def canonical_response(response: dict) -> bytes:
    """Canonical serialized form of one response.

    Sorted keys, minimal separators, UTF-8: two responses are
    bit-identical iff these bytes are equal (the determinism tests'
    comparison oracle).
    """
    return json.dumps(
        response, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
