"""Encoded forward index: documents as global-term-ID arrays.

After the vocabulary is finalized, tokens become dense global term IDs
and the forward index becomes a set of NumPy arrays -- the structure
the inverted-file-indexing stage chunks into *loads* for dynamic load
balancing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .scanner import ScannedDocument


@dataclass
class EncodedDocument:
    """One record's token stream as dense term IDs, with field slices."""

    doc_id: int
    #: all fields' term IDs concatenated in field order
    gids: np.ndarray
    #: ``gids[field_offsets[f]:field_offsets[f+1]]`` is field ``f``
    field_offsets: np.ndarray
    #: global field IDs, aligned with field slices
    field_ids: np.ndarray

    @property
    def ntokens(self) -> int:
        return int(self.gids.shape[0])


@dataclass
class ForwardIndex:
    """A rank's forward index: encoded documents in global-doc order."""

    docs: list[EncodedDocument]

    def __len__(self) -> int:
        return len(self.docs)

    @property
    def total_postings(self) -> int:
        return sum(d.ntokens for d in self.docs)

    def nbytes_of_chunk(self, lo: int, hi: int) -> int:
        """Approximate size of documents ``[lo, hi)`` for transfer costs."""
        return sum(
            d.gids.nbytes + d.field_offsets.nbytes + d.field_ids.nbytes + 16
            for d in self.docs[lo:hi]
        )

    def token_weights(
        self, nfields_global: int, field_weight_by_idx: np.ndarray
    ) -> list[np.ndarray]:
        """Per-token weight arrays from per-field weights.

        ``field_weight_by_idx[f]`` is the weight of canonical field
        index ``f``; each document's tokens inherit their field's
        weight (used for field-emphasized signatures).
        """
        out: list[np.ndarray] = []
        for d in self.docs:
            if d.ntokens == 0:
                out.append(np.empty(0, dtype=np.float64))
                continue
            field_idx = d.field_ids % nfields_global
            counts = np.diff(d.field_offsets)
            out.append(
                np.repeat(
                    np.asarray(field_weight_by_idx, dtype=np.float64)[
                        field_idx
                    ],
                    counts,
                )
            )
        return out

    def chunk_streams(
        self, lo: int, hi: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Concatenated (gids, doc_ids) for documents [lo, hi).

        ``doc_ids`` is expanded per token, ready for FAST-INV inversion.
        """
        gid_parts: list[np.ndarray] = []
        doc_parts: list[np.ndarray] = []
        for d in self.docs[lo:hi]:
            n = d.ntokens
            if n == 0:
                continue
            gid_parts.append(d.gids)
            doc_parts.append(np.full(n, d.doc_id, dtype=np.int64))
        if not gid_parts:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy()
        return np.concatenate(gid_parts), np.concatenate(doc_parts)


def encode_forward(
    scanned: Sequence[ScannedDocument],
    term_to_gid: Mapping[str, int],
    field_name_to_id: Mapping[str, int],
) -> ForwardIndex:
    """Turn scanned token text into dense-ID forward records."""
    docs: list[EncodedDocument] = []
    nfields_global = max(field_name_to_id.values(), default=-1) + 1
    for rec in scanned:
        offsets = [0]
        gid_parts: list[np.ndarray] = []
        field_ids: list[int] = []
        for name, toks in zip(rec.field_names, rec.field_tokens):
            gid_parts.append(
                np.fromiter(
                    (term_to_gid[t] for t in toks),
                    dtype=np.int64,
                    count=len(toks),
                )
            )
            offsets.append(offsets[-1] + len(toks))
            # a *global* field id: unique per (document, field name)
            field_ids.append(
                rec.doc_id * nfields_global + field_name_to_id[name]
            )
        gids = (
            np.concatenate(gid_parts)
            if gid_parts
            else np.empty(0, dtype=np.int64)
        )
        docs.append(
            EncodedDocument(
                doc_id=rec.doc_id,
                gids=gids,
                field_offsets=np.asarray(offsets, dtype=np.int64),
                field_ids=np.asarray(field_ids, dtype=np.int64),
            )
        )
    return ForwardIndex(docs=docs)
