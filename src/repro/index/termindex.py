"""Major-term -> document postings for ranked term search.

The serving layer (:mod:`repro.serve`) answers ranked term searches
with tf·icf scoring over an inverted index restricted to the model's
major terms.  This module builds that index from a corpus plus an
:class:`~repro.engine.results.EngineResult` -- re-tokenizing with the
engine's tokenizer, mapping tokens onto major-term rows, and inverting
with the FAST-INV kernels from :mod:`repro.index.fastinv` -- and hosts
the scoring kernel both the single-result reference path
(:meth:`repro.analysis.session.AnalysisSession.term_search`) and the
shard-parallel path execute.

Determinism contract: per-document scores are accumulated **in query
term order**, so a document's score is the same float regardless of how
the posting lists are split across shards.  The serving layer's
bit-identity acceptance test rests on this.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.index.fastinv import invert_chunk
from repro.scan.scanner import scan_ids
from repro.text.tokenizer import Tokenizer, TokenizerConfig

#: default postings per block for block-max metadata
BLOCK_SIZE = 128


def compute_posting_blocks(
    offsets: np.ndarray, tf: np.ndarray, block_size: int = BLOCK_SIZE
) -> tuple[np.ndarray, np.ndarray]:
    """Block table ``(block_offsets, block_maxtf)`` of a posting layout.

    Every term run is chunked into blocks of at most ``block_size``
    postings, restarting at each run boundary (a block never crosses
    terms).  Blocks tile the postings contiguously, so one ascending
    boundary array describes them all: block ``j`` covers postings
    ``[block_offsets[j], block_offsets[j+1])`` and ``block_maxtf[j]``
    is the largest term frequency inside it (the per-block score-bound
    input of the block-max search kernel).  Both arrays are a pure
    function of ``(offsets, tf, block_size)``, which is what makes a
    compacted store's block sections byte-identical to a fresh build's.
    """
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    offsets = np.asarray(offsets, dtype=np.int64)
    tf = np.asarray(tf, dtype=np.int64)
    counts = np.diff(offsets)
    nb = -(-counts // block_size)  # ceil per term; 0 for empty runs
    total_blocks = int(nb.sum())
    if total_blocks == 0:
        return (
            np.zeros(1, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
        )
    seg = np.repeat(np.arange(counts.shape[0], dtype=np.int64), nb)
    first = np.repeat(np.cumsum(nb) - nb, nb)
    within = np.arange(total_blocks, dtype=np.int64) - first
    block_lo = offsets[:-1][seg] + within * block_size
    block_hi = np.minimum(block_lo + block_size, offsets[1:][seg])
    block_offsets = np.concatenate(
        [np.zeros(1, dtype=np.int64), block_hi]
    ).astype(np.int64)
    block_maxtf = np.maximum.reduceat(tf, block_lo).astype(np.int64)
    return block_offsets, block_maxtf


@dataclass
class TermPostings:
    """Columnar term -> document postings over the major-term model.

    Term *row* ``i`` is the i-th entry of the result's canonical
    ``major_terms`` ranking; document *rows* index ``result.doc_ids``.
    ``rows[offsets[i]:offsets[i+1]]`` are the (ascending) document rows
    containing term ``i``, with term frequencies in the parallel ``tf``
    slice.
    """

    n_docs: int
    #: (n_terms + 1,) prefix offsets into ``rows``/``tf``
    offsets: np.ndarray
    #: document rows, ascending within each term run
    rows: np.ndarray
    #: term frequencies, parallel to ``rows``
    tf: np.ndarray

    @property
    def n_terms(self) -> int:
        return int(self.offsets.shape[0] - 1)

    def __len__(self) -> int:
        return int(self.rows.shape[0])

    def term_slice(self, term_row: int) -> tuple[np.ndarray, np.ndarray]:
        """``(doc_rows, tfs)`` of one term's posting run."""
        lo = int(self.offsets[term_row])
        hi = int(self.offsets[term_row + 1])
        return self.rows[lo:hi], self.tf[lo:hi]

    def restrict(self, row_lo: int, row_hi: int) -> "TermPostings":
        """Postings of document rows ``[row_lo, row_hi)``, rebased.

        This is the shard partitioner: document rows are renumbered to
        be shard-local (``rows - row_lo``) and every term keeps its
        global term row.  Because rows ascend within a term run, a
        contiguous document range selects a contiguous sub-run of every
        term -- found by one ``np.searchsorted`` pair per run, so the
        cost is O(n_terms log + output) rather than a mask scan over
        every posting.
        """
        if not 0 <= row_lo <= row_hi <= self.n_docs:
            raise ValueError(
                f"bad row range [{row_lo}, {row_hi}) for "
                f"{self.n_docs} documents"
            )
        n_terms = self.n_terms
        lo = np.empty(n_terms, dtype=np.int64)
        hi = np.empty(n_terms, dtype=np.int64)
        for t in range(n_terms):
            a = int(self.offsets[t])
            b = int(self.offsets[t + 1])
            run = self.rows[a:b]
            lo[t] = a + np.searchsorted(run, row_lo, side="left")
            hi[t] = a + np.searchsorted(run, row_hi, side="left")
        kept = hi - lo
        offsets = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(kept)]
        )
        total = int(offsets[-1])
        # gather indices of every kept posting: each term's contiguous
        # sub-run [lo[t], hi[t]) laid out back to back
        take = (
            np.arange(total, dtype=np.int64)
            - np.repeat(offsets[:-1], kept)
            + np.repeat(lo, kept)
        )
        return TermPostings(
            n_docs=row_hi - row_lo,
            offsets=offsets,
            rows=(self.rows[take] - row_lo).astype(np.int64),
            tf=self.tf[take].astype(np.int64),
        )


def scan_major_rows(
    documents,
    result,
    tokenizer_config: TokenizerConfig | None = None,
) -> list[np.ndarray]:
    """Each document's major-term rows, in token order (int64 arrays).

    One :func:`repro.scan.scan_ids` pass over each document's joined
    fields, each raw token mapped to its major-term row through the
    kernel's memo.  Equal to tokenizing ``doc.text()`` and to
    tokenizing field by field (property-tested).
    """
    tokenizer = Tokenizer(
        tokenizer_config
        if tokenizer_config is not None
        else TokenizerConfig()
    )
    # 1-based rows; terms outside the model get None and are skipped
    row_of = {t.term: i + 1 for i, t in enumerate(result.major_terms)}
    ids, ends = scan_ids(
        (doc.text() for doc in documents), tokenizer, row_of.get
    )
    rows = ids - 1
    bounds = [0, *ends.tolist()]
    return [rows[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def invert_major_rows(
    doc_rows: "list[np.ndarray]",
    row_ids,
    n_docs: int,
    n_terms: int,
) -> TermPostings:
    """Postings of scanned documents placed at document rows ``row_ids``.

    ``doc_rows[i]`` (from :func:`scan_major_rows`) becomes document row
    ``row_ids[i]``; runs keep input document order within each term.
    """
    sizes = [r.shape[0] for r in doc_rows]
    gids = np.concatenate(doc_rows or [np.zeros(0, np.int64)])
    rows = np.repeat(np.asarray(row_ids, dtype=np.int64), sizes)
    t2d = invert_chunk(gids, rows)
    offsets = np.searchsorted(
        t2d.gids, np.arange(n_terms + 1, dtype=np.int64)
    ).astype(np.int64)
    return TermPostings(
        n_docs=n_docs,
        offsets=offsets,
        rows=t2d.keys.astype(np.int64),
        tf=t2d.counts.astype(np.int64),
    )


def build_term_postings(
    corpus,
    result,
    tokenizer_config: TokenizerConfig | None = None,
) -> TermPostings:
    """Invert ``corpus`` onto the result's major-term rows.

    Tokenization must match the engine run that produced ``result``;
    pass the run's ``EngineConfig.tokenizer`` when it was non-default.
    Documents absent from ``result.doc_ids`` are ignored, as are tokens
    outside the major-term model.
    """
    doc_row = {int(d): i for i, d in enumerate(result.doc_ids)}
    docs = [d for d in corpus.documents if d.doc_id in doc_row]
    return invert_major_rows(
        scan_major_rows(docs, result, tokenizer_config),
        [doc_row[d.doc_id] for d in docs],
        n_docs=int(result.doc_ids.shape[0]),
        n_terms=len(result.major_terms),
    )


def concat_postings(parts: "list[TermPostings]") -> TermPostings:
    """Stack postings of document ranges laid out back to back.

    Part ``i``'s document rows are rebased by the total length of the
    parts before it, and each term's run is the in-order concatenation
    of the parts' runs -- exactly the postings a single inversion over
    the concatenated document sequence would produce (rows ascend
    within a run because each part's rows do and rebasing preserves
    part order).
    """
    if not parts:
        raise ValueError("concat_postings needs at least one part")
    n_terms = parts[0].n_terms
    for p in parts[1:]:
        if p.n_terms != n_terms:
            raise ValueError(
                f"postings disagree on term count: {p.n_terms} != {n_terms}"
            )
    n_docs = sum(p.n_docs for p in parts)
    kept = np.zeros(n_terms, dtype=np.int64)
    for p in parts:
        kept += np.diff(p.offsets)
    offsets = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(kept)]
    )
    total = int(offsets[-1])
    rows = np.empty(total, dtype=np.int64)
    tf = np.empty(total, dtype=np.int64)
    cursor = offsets[:-1].copy()
    base = 0
    for p in parts:
        for t in range(n_terms):
            lo = int(p.offsets[t])
            hi = int(p.offsets[t + 1])
            if hi > lo:
                n = hi - lo
                c = int(cursor[t])
                rows[c : c + n] = p.rows[lo:hi] + base
                tf[c : c + n] = p.tf[lo:hi]
                cursor[t] = c + n
        base += p.n_docs
    return TermPostings(n_docs=n_docs, offsets=offsets, rows=rows, tf=tf)


def topk_score_row(
    scores: np.ndarray, rows: np.ndarray, k: int
) -> np.ndarray:
    """Indices of the top-``k`` entries by ``(-score, row)``.

    The serving layer's one merge order: descending score with
    ascending global document row breaking ties, selected stably.
    Every ranked answer -- shard-local top-k, broker merge, workbench
    set algebra -- selects through this helper so tie order cannot
    drift between subsystems.
    """
    scores = np.asarray(scores, dtype=np.float64)
    rows = np.asarray(rows, dtype=np.int64)
    take = rows.size if k < 0 else min(k, rows.size)
    return np.lexsort((rows, -scores))[:take]


def set_term_tf(
    postings: TermPostings, member_rows: np.ndarray
) -> tuple[np.ndarray, int]:
    """Per-term int64 tf totals over a set of document rows.

    ``member_rows`` are postings-local rows (any order, no
    duplicates).  Returns ``(totals, postings scanned)`` where
    ``totals[t]`` is the exact integer sum of term ``t``'s frequencies
    inside the member set.  Integer addition is associative, so
    summing per-shard totals in shard order reproduces the single
    array's totals bit for bit at every shard count -- the workbench
    keyphrase determinism contract.
    """
    member_rows = np.asarray(member_rows, dtype=np.int64)
    mask = np.zeros(postings.n_docs, dtype=bool)
    mask[member_rows] = True
    keep = mask[postings.rows]
    term_ids = np.repeat(
        np.arange(postings.n_terms, dtype=np.int64),
        np.diff(postings.offsets),
    )
    out = np.zeros(postings.n_terms, dtype=np.int64)
    np.add.at(out, term_ids[keep], postings.tf[keep])
    return out, int(postings.rows.shape[0])


def set_term_cooccurrence(
    postings: TermPostings,
    member_rows: np.ndarray,
    term_rows: "list[int]",
) -> tuple[np.ndarray, int]:
    """Document co-occurrence counts of selected terms over a set.

    Returns ``(C, postings scanned)`` where ``C[i, j]`` is the exact
    int64 number of member documents containing both
    ``term_rows[i]`` and ``term_rows[j]`` (diagonal = in-set document
    frequency).  Computed as ``B.T @ B`` on an int64 incidence matrix,
    so per-shard matrices sum exactly across any shard layout.
    """
    member_rows = np.asarray(member_rows, dtype=np.int64)
    m = len(term_rows)
    n = int(member_rows.shape[0])
    if m == 0 or n == 0:
        return np.zeros((m, m), dtype=np.int64), 0
    rank = np.full(postings.n_docs, -1, dtype=np.int64)
    rank[member_rows] = np.arange(n, dtype=np.int64)
    incidence = np.zeros((n, m), dtype=np.int64)
    scanned = 0
    for j, t in enumerate(term_rows):
        rows, _tfs = postings.term_slice(int(t))
        scanned += int(rows.size)
        if rows.size:
            r = rank[rows]
            incidence[r[r >= 0], j] = 1
    return incidence.T @ incidence, scanned


def icf_weights(df: np.ndarray, n_docs: int) -> np.ndarray:
    """Inverse-collection-frequency term weights.

    ``log1p(n_docs / df)`` over the major terms' document frequencies:
    a pure function of the (replicated) model statistics, so every
    shard computes the identical weight vector.
    """
    df = np.asarray(df, dtype=np.float64)
    return np.log1p(float(n_docs) / np.maximum(df, 1.0))


def accumulate_tficf(
    postings: TermPostings,
    term_rows: list[int],
    icf: np.ndarray,
    out: np.ndarray,
) -> int:
    """Add each query term's ``tf * icf`` contribution into ``out``.

    ``out`` is a float64 score array over the postings' document rows
    (shard-local or global).  Terms are applied **in the given order**
    -- the op-order contract that makes shard-split scores bit-identical
    to the single-array path.  Returns the number of postings scanned
    (the bytes-scanned accounting input).
    """
    scanned = 0
    for r in term_rows:
        rows, tfs = postings.term_slice(int(r))
        if rows.size:
            out[rows] += tfs * icf[int(r)]
        scanned += int(rows.size)
    return scanned
