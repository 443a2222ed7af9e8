"""Flat forward index: a rank's documents as term-ID arrays.

The scan writes every token's term id into one flat array; per-document
and per-field offsets slice it.  Once the vocabulary is finalized, one
gather turns the scan's local ids into dense global term IDs, and the
index is the structure the inverted-file-indexing stage chunks into
*loads* for dynamic load balancing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np


@dataclass
class ForwardIndex:
    """A rank's forward index, documents in global-doc order.

    Document ``i`` is ``doc_ids[i]``; its tokens are
    ``gids[doc_offsets[i]:doc_offsets[i + 1]]`` and its fields are
    ``doc_fields[i] .. doc_fields[i + 1] - 1``.  Field ``f`` has the
    global id ``field_ids[f]`` and the tokens
    ``gids[field_offsets[f]:field_offsets[f + 1]]``.
    """

    doc_ids: np.ndarray
    doc_offsets: np.ndarray
    doc_fields: np.ndarray
    field_offsets: np.ndarray
    field_ids: np.ndarray
    gids: np.ndarray

    def __len__(self) -> int:
        return int(self.doc_ids.shape[0])

    @property
    def total_postings(self) -> int:
        return int(self.gids.shape[0])

    def assign_gids(
        self, terms: Sequence[str], term_to_gid: Mapping[str, int]
    ) -> None:
        """Replace the scan's 1-based local ids into ``terms`` with
        their global IDs: one gather through a local -> global table."""
        local_to_gid = np.zeros(len(terms) + 1, dtype=np.int64)
        local_to_gid[1:] = np.fromiter(
            map(term_to_gid.__getitem__, terms), np.int64, len(terms)
        )
        self.gids = local_to_gid[self.gids]

    def per_doc(self, tokens: np.ndarray) -> list[np.ndarray]:
        """Per-document views of a per-token array (e.g. ``gids``)."""
        off = self.doc_offsets.tolist()
        return [tokens[a:b] for a, b in zip(off[:-1], off[1:])]

    def _clamp(self, lo: int, hi: int) -> tuple[int, int]:
        n = len(self)
        return min(lo, n), min(max(lo, hi), n)

    def ntokens_of_chunk(self, lo: int, hi: int) -> int:
        lo, hi = self._clamp(lo, hi)
        return int(self.doc_offsets[hi] - self.doc_offsets[lo])

    def nbytes_of_chunk(self, lo: int, hi: int) -> int:
        """Transfer size of documents ``[lo, hi)``: per document, 8 B
        per token, per field offset (one more than its fields) and per
        field id, plus 16 B."""
        lo, hi = self._clamp(lo, hi)
        nfields = int(self.doc_fields[hi] - self.doc_fields[lo])
        return 8 * self.ntokens_of_chunk(lo, hi) + 16 * nfields + 24 * (
            hi - lo
        )

    def token_weights(
        self, nfields_global: int, field_weight_by_idx: np.ndarray
    ) -> list[np.ndarray]:
        """Per-document token weight arrays from per-field weights.

        ``field_weight_by_idx[f]`` is the weight of canonical field
        index ``f``; each token inherits its field's weight (used for
        field-emphasized signatures).
        """
        weights = np.asarray(field_weight_by_idx, dtype=np.float64)
        flat = np.repeat(
            weights[self.field_ids % nfields_global],
            np.diff(self.field_offsets),
        )
        return self.per_doc(flat)

    def chunk_streams(
        self, lo: int, hi: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """(gids, doc_ids) of documents [lo, hi), ready for FAST-INV
        inversion: ``doc_ids`` is expanded per token."""
        lo, hi = self._clamp(lo, hi)
        a, b = self.doc_offsets[lo], self.doc_offsets[hi]
        return self.gids[a:b], np.repeat(
            self.doc_ids[lo:hi], np.diff(self.doc_offsets[lo : hi + 1])
        )
