"""Per-shard query execution over the on-disk store.

A :class:`ShardStore` wraps one shard container plus the replicated
model and executes the shard-local half of every query operator.  All
scoring goes through the *same module-level kernels* as
:class:`repro.analysis.session.AnalysisSession` -- every per-document
float is produced by an identical sequence of float ops on identical
row data, which is what makes the broker's merged answers bit-identical
to the single-result reference path (the acceptance criterion of the
serving layer).

Each operator returns per-document *candidates* keyed by
``(score, global_row)`` so the broker can merge shards' top-k lists
with the same deterministic tie-breaking a global stable argsort would
apply, plus the number of payload bytes it scanned (the accounting
input for ``serve.shard.bytes_scanned``).

The broker-side merge helpers and the canonical response serialization
(used by the determinism byte-compare tests) also live here.
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
    """One shard-local scored document, keyed for the global merge."""

    score: float
    row: int  # global document row
    doc_id: int
    cluster: int


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
        """Fully-decoded postings (exhaustive and restricted search,
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

    def _candidates(
        self, local_idx: np.ndarray, scores: np.ndarray
    ) -> list[Candidate]:
        local_idx = np.asarray(local_idx, dtype=np.int64)
        return self._candidate_list(
            local_idx,
            np.asarray(scores, dtype=np.float64)[local_idx],
        )

    def _candidate_list(
        self, local_idx: np.ndarray, cand_scores: np.ndarray
    ) -> list[Candidate]:
        """Candidates from parallel (local row, score) arrays.

        Gathers every field with array indexing and one ``tolist`` per
        column -- same values and ordering as the old per-candidate
        loop, without the per-element numpy scalar boxing.
        """
        local_idx = np.asarray(local_idx, dtype=np.int64)
        rows = (self.row_lo + local_idx).tolist()
        scores = np.asarray(cand_scores, dtype=np.float64).tolist()
        docs = np.asarray(self.doc_ids, dtype=np.int64)[
            local_idx
        ].tolist()
        clusters = np.asarray(self.assignments, dtype=np.int64)[
            local_idx
        ].tolist()
        return [
            Candidate(score=s, row=r, doc_id=d, cluster=c)
            for s, r, d, c in zip(scores, rows, docs, clusters)
        ]

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
    ) -> tuple[list[Candidate], int]:
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
            return (
                self._candidate_list(local[sel], sims_r[sel]),
                self.unit.nbytes,
            )
        take = min(k, sims.shape[0])
        idx = topk_desc(sims, take)
        return self._candidates(idx, sims), self.unit.nbytes

    def op_search(
        self,
        term_rows: list[int],
        icf: np.ndarray,
        k: int,
        pruned: bool = True,
        restrict_rows: Optional[np.ndarray] = None,
    ) -> tuple[list[Candidate], int, int]:
        """Local tf·icf ranked search over the shard's postings.

        Returns ``(candidates, bytes scanned, blocks skipped)``.  With
        ``pruned`` (the default), runs the exact block-max kernel and
        reports only the posting bytes it actually decoded;
        ``pruned=False`` and negative weights score exhaustively (0
        blocks skipped by definition).  Both paths return bit-identical
        candidates -- the pruning exactness oracle.

        ``restrict_rows`` (global rows) limits the ranking to a result
        set's members (the workbench ``refine`` path).  Restricted
        search always scores exhaustively: block-max prunes by global
        score bounds, which are not bounds within an arbitrary subset.
        Restriction never changes a surviving row's float -- scores are
        accumulated over all postings in query-term order first, then
        filtered -- so refined scores equal unrestricted scores on the
        same rows bit for bit.
        """
        if restrict_rows is not None:
            postings = self.postings
            scores = np.zeros(self.n_docs, dtype=np.float64)
            scanned_postings = accumulate_tficf(
                postings, term_rows, icf, scores
            )
            local = self._local_restrict(restrict_rows)
            sc = scores[local]
            pos = sc > 0
            local = local[pos]
            sc = sc[pos]
            sel = topk_score_row(sc, local, k)
            return (
                self._candidate_list(local[sel], sc[sel]),
                scanned_postings * 16,
                0,
            )
        if pruned and not np.any(
            np.asarray(icf, dtype=np.float64)[
                np.asarray(term_rows, dtype=np.int64)
            ]
            < 0
        ):
            idx, cand_scores, scanned_postings, skipped = blockmax_search(
                self.blocks, term_rows, icf, k
            )
            return (
                self._candidate_list(idx, cand_scores),
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
        return self._candidates(idx, scores), scanned_postings * 16, 0

    def op_search_batch(
        self,
        requests: list[tuple[list[int], int]],
        icf: np.ndarray,
        pruned: bool = True,
    ) -> list[tuple[list[Candidate], int, int]]:
        """Batched :meth:`op_search` over ``(term_rows, k)`` requests.

        The batch members share one lazy postings decode (the
        :class:`BlockPostings` per-block row cache persists across
        members), so N queries hitting overlapping terms pay the
        cumsum/decode cost once.  Each member's candidate list is
        bit-identical to a solo :meth:`op_search` call -- the batching
        identity contract.
        """
        return [
            self.op_search(term_rows, icf, k, pruned=pruned)
            for term_rows, k in requests
        ]

    def op_cluster(
        self, cluster: int, n_docs: int
    ) -> tuple[int, list[Candidate], int]:
        """Local member count + nearest-to-centroid candidates."""
        centroid = self.model.centroids[cluster]
        members = np.flatnonzero(self.assignments == cluster)
        scanned = self.assignments.nbytes
        if members.size == 0:
            return 0, [], scanned
        d2 = centroid_distances(self.signatures[members], centroid)
        take = min(n_docs, members.size)
        idx = topk_asc(d2, take)
        cands = [
            Candidate(
                score=float(d2[j]),
                row=self.row_lo + int(members[j]),
                doc_id=int(self.doc_ids[members[j]]),
                cluster=cluster,
            )
            for j in idx
        ]
        return int(members.size), cands, scanned + members.size * (
            self.signatures.shape[1] * 8
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
# block-max exact top-k
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


def blockmax_search(
    blocks: BlockPostings,
    term_rows: list[int],
    icf: np.ndarray,
    k: int,
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Exact top-k tf·icf search with block-level early termination.

    Returns ``(local rows, scores, postings decoded, blocks skipped)``
    where the rows/scores are bit-identical -- values *and* tie order --
    to exhaustive ``accumulate_tficf`` + stable ``topk_desc`` + the
    positive-score filter.

    The kernel prunes only *candidate generation*; every survivor is
    rescored from scratch with the identical in-query-term-order float
    accumulation, so determinism never rests on the pruning math.
    Phase A walks terms in descending max-contribution order,
    accumulating partial scores per block while maintaining a running
    k-th-partial-score threshold; a block whose upper bound
    (``icf·block_maxtf`` plus the unprocessed-term remainder) cannot
    reach the threshold is skipped without decoding -- its bound is
    banked in a per-row ``slack`` array so no already-touched document
    can be lost.  All bound comparisons are inflated/deflated by a
    conservative float-error margin, so a pruning decision can only
    ever *keep* a document that exact arithmetic would drop, never the
    reverse.  Phase B selects survivors whose optimistic bound
    (partial + slack + remainder) reaches the threshold; phase C
    rescores them exactly; phase D applies the reference
    ``(-score, row)`` selection.
    """
    n_docs = blocks.n_docs
    positions = [int(r) for r in term_rows]
    n_pos = len(positions)
    icf = np.asarray(icf, dtype=np.float64)
    w = np.array([float(icf[r]) for r in positions], dtype=np.float64)
    ranges = [blocks.term_block_range(r) for r in positions]

    if n_pos == 1:
        lo, hi = ranges[0]
        return _single_term_search(blocks, lo, hi, float(w[0]), k)

    relevant: set[int] = set()
    for lo, hi in ranges:
        relevant.update(range(lo, hi))

    ub = np.zeros(n_pos, dtype=np.float64)
    for p, (lo, hi) in enumerate(ranges):
        if hi > lo and w[p] > 0.0:
            ub[p] = w[p] * float(blocks.block_maxtf[lo:hi].max())

    order = np.lexsort((np.arange(n_pos), -ub))
    ub_sorted = ub[order]
    # suffix[i] = upper bound on everything at sorted position >= i
    suffix = np.zeros(n_pos + 1, dtype=np.float64)
    if n_pos:
        suffix[:n_pos] = np.cumsum(ub_sorted[::-1])[::-1]
    # conservative float margin: partial sums have at most ~n_pos
    # roundings, so a 4·(n_pos+2)·ulp relative band strictly separates
    # "provably below threshold" from "possibly top-k"
    eps = 4.0 * (n_pos + 2) * 2.0**-52
    inflate = 1.0 + eps
    deflate = 1.0 - 2.0 * eps

    acc = np.zeros(n_docs, dtype=np.float64)
    slack_diff: Optional[np.ndarray] = None
    decoded: set[int] = set()
    firsts = blocks.block_firsts
    theta = 0.0
    rem = 0.0
    first_processed = True
    for i in range(n_pos):
        if theta > 0.0 and suffix[i] * inflate < theta * deflate:
            rem = float(suffix[i])
            break
        p = int(order[i])
        lo, hi = ranges[p]
        wp = float(w[p])
        if hi <= lo or wp <= 0.0:
            continue
        after = float(suffix[i + 1])
        if theta > 0.0:
            ubj = wp * np.asarray(
                blocks.block_maxtf[lo:hi], dtype=np.float64
            )
            keep_mask = (ubj + after) * inflate >= theta * deflate
            all_kept = bool(keep_mask.all())
        else:
            all_kept = True
        if all_kept:
            acc[blocks.run_rows(lo, hi)] += blocks.run_tf(lo, hi) * wp
            decoded.update(range(lo, hi))
        else:
            skip = np.flatnonzero(~keep_mask) + lo
            # bank each skipped block's bound over its row span: its
            # first row is readable without decode, and its rows end
            # before the next block's first row (same term run)
            if slack_diff is None:
                slack_diff = np.zeros(n_docs + 1, dtype=np.float64)
            r0 = firsts[skip]
            nxt = skip + 1
            r1 = np.where(
                nxt < hi, firsts[np.minimum(nxt, hi - 1)], n_docs
            )
            np.add.at(slack_diff, r0, ubj[skip - lo])
            np.add.at(slack_diff, r1, -ubj[skip - lo])
            kept = np.flatnonzero(keep_mask) + lo
            if kept.size:
                # decode contiguous kept runs: one segmented cumsum each
                breaks = np.flatnonzero(np.diff(kept) > 1) + 1
                for seg in np.split(kept, breaks):
                    j0, j1 = int(seg[0]), int(seg[-1]) + 1
                    acc[blocks.run_rows(j0, j1)] += (
                        blocks.run_tf(j0, j1) * wp
                    )
                    decoded.update(range(j0, j1))
        # a stale (smaller) theta is still a valid lower bound on the
        # k-th final score, so only pay for a tighter one when a future
        # position could actually use it
        if 0 < k < n_docs and i + 1 < n_pos and ub_sorted[i + 1] > 0.0:
            if first_processed:
                # acc is exactly this one term's contributions, which
                # are nonzero only on its postings: partition the run
                # (cheap) instead of the dense score array
                contrib = blocks.run_tf(lo, hi) * wp
                if contrib.size >= k:
                    theta = float(
                        np.partition(contrib, contrib.size - k)[
                            contrib.size - k
                        ]
                    )
            else:
                theta = float(
                    np.partition(acc, n_docs - k)[n_docs - k]
                )
        first_processed = False

    if theta > 0.0:
        bound = acc if slack_diff is None else (
            acc + np.cumsum(slack_diff[:-1])
        )
        cand = np.flatnonzero(
            (bound + rem) * inflate >= theta * deflate
        )
    else:
        cand = np.flatnonzero(acc > 0)

    # adaptive bail: a dense candidate set means pruning bought
    # nothing, and per-candidate rescoring would cost more than the
    # straight dense accumulation -- which is trivially exact because
    # it IS the exhaustive reference computation (in query-term order)
    n_occ = int(
        sum(
            int(blocks.block_offsets[hi] - blocks.block_offsets[lo])
            for lo, hi in ranges
        )
    )
    if cand.size and cand.size * n_pos * 4 > n_occ:
        acc2 = np.zeros(n_docs, dtype=np.float64)
        for p in range(n_pos):
            lo, hi = ranges[p]
            if hi <= lo:
                continue
            acc2[blocks.run_rows(lo, hi)] += (
                blocks.run_tf(lo, hi) * float(w[p])
            )
        take = min(k, n_docs)
        # top-take by (-score, row) without a dense stable argsort:
        # every row tying the take-th score survives the partition
        # threshold, so the candidate lexsort reproduces the reference
        # tie order exactly
        if 0 < take < n_docs:
            kth = float(
                np.partition(acc2, n_docs - take)[n_docs - take]
            )
        else:
            kth = 0.0
        cand2 = np.flatnonzero(acc2 >= kth if kth > 0.0 else acc2 > 0)
        sc2 = acc2[cand2]
        sel2 = topk_score_row(sc2, cand2, take)
        sel2 = sel2[sc2[sel2] > 0]
        return cand2[sel2], sc2[sel2], n_occ, 0

    # exact rescore of survivors, in original query-term order.  Per
    # candidate and term occurrence this performs exactly one
    # ``score += tf * w`` add, so the floats match the exhaustive
    # accumulation bit-for-bit regardless of which decode path serves
    # the lookup.
    scores = np.zeros(cand.size, dtype=np.float64)
    if cand.size:
        for p in range(n_pos):
            lo, hi = ranges[p]
            wp = float(w[p])
            if hi <= lo or wp == 0.0:
                continue
            # block index of each candidate within this term's run
            bidx = (
                lo
                + np.searchsorted(firsts[lo:hi], cand, side="right")
                - 1
            )
            valid = bidx >= lo
            if not valid.any():
                continue
            # decode demand is charged per candidate-containing block
            # (pure per-query accounting, independent of cache state)
            decoded.update(np.unique(bidx[valid]).tolist())
            full = blocks.cached_rows(lo, hi)
            if full is not None:
                # whole run already decoded: one lookup pass
                pos = np.searchsorted(full, cand)
                clip = np.minimum(pos, full.size - 1)
                hit = full[clip] == cand
                if hit.any():
                    scores[hit] += (
                        blocks.run_tf(lo, hi)[pos[hit]] * wp
                    )
                continue
            cidx = np.flatnonzero(valid)
            vblocks = bidx[cidx]
            uniq, starts = np.unique(vblocks, return_index=True)
            bounds = np.append(starts, vblocks.size)
            for m, j in enumerate(uniq.tolist()):
                csel = cidx[bounds[m] : bounds[m + 1]]
                sub = cand[csel]
                rows_j = blocks.block_rows(j)
                pos = np.searchsorted(rows_j, sub)
                clip = np.minimum(pos, rows_j.size - 1)
                hit = rows_j[clip] == sub
                if hit.any():
                    scores[csel[hit]] += (
                        blocks.block_tf(j)[pos[hit]] * wp
                    )

    keep = scores > 0
    cand_pos = cand[keep]
    sc_pos = scores[keep]
    sel = topk_score_row(sc_pos, cand_pos, k)
    if decoded:
        ja = np.fromiter(decoded, dtype=np.int64, count=len(decoded))
        scanned = int(
            (blocks.block_offsets[ja + 1] - blocks.block_offsets[ja])
            .sum()
        )
    else:
        scanned = 0
    skipped = len(relevant) - len(decoded)
    return cand_pos[sel], sc_pos[sel], scanned, skipped


# ----------------------------------------------------------------------
# broker-side merges
# ----------------------------------------------------------------------
def merge_desc(
    per_shard: list[list[Candidate]], k: int
) -> list[Candidate]:
    """Global top-k by (score desc, global row asc).

    Equivalent to a stable global argsort on descending score: shard
    lists are already row-ordered within equal scores, so selecting
    the concatenation through the shared ``(-score, row)`` helper
    reproduces the reference order.
    """
    merged = [c for cands in per_shard for c in cands]
    if not merged:
        return []
    sel = topk_score_row(
        np.array([c.score for c in merged], dtype=np.float64),
        np.array([c.row for c in merged], dtype=np.int64),
        k,
    )
    return [merged[int(i)] for i in sel]


def merge_asc(
    per_shard: list[list[Candidate]], k: int
) -> list[Candidate]:
    """Global bottom-k by (score asc, global row asc)."""
    merged = [c for cands in per_shard for c in cands]
    merged.sort(key=lambda c: (c.score, c.row))
    return merged[:k]


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
