"""Per-document reference scan: the flat scan's test oracle.

This is the scan the engines ran before the tokenize-to-id pass: each
document tokenized field by field into lists of term strings, the
unique terms gathered and sorted, then every token looked up again in
the finalized vocabulary, one int64 array per document.  Kept here,
not in ``src/``, to pin :func:`repro.scan.scan_forward` and the
:class:`repro.scan.ForwardIndex` slices to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.scan import ScanStats


@dataclass
class ScannedDocument:
    """Forward-indexed record: tokens per field, in field order."""

    doc_id: int
    field_names: list[str]
    field_tokens: list[list[str]]
    nbytes: int

    @property
    def ntokens(self) -> int:
        return sum(len(t) for t in self.field_tokens)


@dataclass
class EncodedDocument:
    """One record's token stream as dense term IDs, with field slices."""

    doc_id: int
    gids: np.ndarray
    field_offsets: np.ndarray
    field_ids: np.ndarray

    @property
    def ntokens(self) -> int:
        return int(self.gids.shape[0])


def scan_documents(documents, tokenizer):
    """Tokenize ``documents`` into per-field term lists."""
    scanned: list[ScannedDocument] = []
    stats = ScanStats()
    for doc in documents:
        rec = ScannedDocument(
            doc_id=doc.doc_id,
            field_names=list(doc.fields.keys()),
            field_tokens=[tokenizer.tokens(t) for t in doc.fields.values()],
            nbytes=doc.nbytes,
        )
        scanned.append(rec)
        stats.ndocs += 1
        stats.nbytes += rec.nbytes
        stats.ntokens += rec.ntokens
        stats.nfields += len(rec.field_names)
    return scanned, stats


def unique_terms(scanned) -> list[str]:
    """Sorted distinct terms across scanned documents."""
    seen: set[str] = set()
    for rec in scanned:
        for toks in rec.field_tokens:
            seen.update(toks)
    return sorted(seen)


def encode_forward(scanned, term_to_gid, field_name_to_id):
    """Scanned token text as dense-ID records, one per document."""
    docs: list[EncodedDocument] = []
    nfields_global = max(field_name_to_id.values(), default=-1) + 1
    for rec in scanned:
        offsets = [0]
        parts = []
        field_ids = []
        for name, toks in zip(rec.field_names, rec.field_tokens):
            parts.append(np.array([term_to_gid[t] for t in toks], np.int64))
            offsets.append(offsets[-1] + len(toks))
            field_ids.append(
                rec.doc_id * nfields_global + field_name_to_id[name]
            )
        docs.append(
            EncodedDocument(
                doc_id=rec.doc_id,
                gids=(
                    np.concatenate(parts) if parts else np.empty(0, np.int64)
                ),
                field_offsets=np.asarray(offsets, dtype=np.int64),
                field_ids=np.asarray(field_ids, dtype=np.int64),
            )
        )
    return docs


def nbytes_of_chunk(docs, lo: int, hi: int) -> int:
    """Transfer size of ``docs[lo:hi]``: the arrays' own bytes + 16."""
    return sum(
        d.gids.nbytes + d.field_offsets.nbytes + d.field_ids.nbytes + 16
        for d in docs[lo:hi]
    )


def chunk_streams(docs, lo: int, hi: int):
    """Concatenated (gids, per-token doc ids) of ``docs[lo:hi]``."""
    part = [d for d in docs[lo:hi] if d.ntokens]
    if not part:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    return (
        np.concatenate([d.gids for d in part]),
        np.concatenate([np.full(d.ntokens, d.doc_id, np.int64) for d in part]),
    )


def token_weights(docs, nfields_global: int, field_weight_by_idx):
    """Per-document token weights: each token takes its field's."""
    weights = np.asarray(field_weight_by_idx, dtype=np.float64)
    return [
        np.repeat(
            weights[d.field_ids % nfields_global], np.diff(d.field_offsets)
        )
        if d.ntokens
        else np.empty(0, np.float64)
        for d in docs
    ]
