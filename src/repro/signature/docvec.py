"""Knowledge signatures (DocVecs).

Paper §3.4: "Knowledge signatures are numerical vectors based on the
dimensions of the top M topics.  ... For each term that exists in that
record, we obtain the row within the association matrix.  These rows
represent a term vector that when linearly combined with other term
vectors and then normalized we form a signature of that record.
During the linear combination, each term vector is multiplied by the
frequency of that term within that record. ... Each signature is
normalized based on a L1 Norm."

A record with no major terms (or whose combined vector is zero) has a
*null signature* -- the phenomenon whose prevalence triggers the
paper's adaptive-dimensionality remedy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .association import major_blocks


@dataclass
class SignatureBatch:
    """Signatures for a batch of documents, plus null accounting."""

    #: (ndocs, M) L1-normalized signatures; null rows are all-zero
    signatures: np.ndarray
    #: boolean mask of null signatures
    null_mask: np.ndarray

    @property
    def n_null(self) -> int:
        return int(self.null_mask.sum())


def compute_signatures(
    doc_gid_arrays: Sequence[np.ndarray],
    table: np.ndarray,
    association: np.ndarray,
    doc_weight_arrays: Optional[Sequence[np.ndarray]] = None,
) -> SignatureBatch:
    """L1-normalized frequency-weighted signature per document.

    ``table`` is the gid -> canonical-row lookup of
    :func:`repro.signature.association.major_row_table`; ``association``
    is the global (n_major, n_topics) matrix.

    ``doc_weight_arrays`` (optional, aligned token-for-token with
    ``doc_gid_arrays``) lets the engine weight occurrences by their
    field -- e.g. counting title terms several times, the standard
    IN-SPIRE-style emphasis of high-signal fields.  Omitted, every
    occurrence counts once.

    Documents run in blocks.  A block's term frequencies are one
    ``bincount`` over (document, row) bins in token order, so each bin
    sums its weights in the same order as a per-document count; the
    block's signatures are one stacked matmul, which still issues one
    ``vector @ matrix`` gemv per document.  The bytes therefore equal a
    per-document loop's; a single ``TF @ A`` gemm would move the last
    bits.
    """
    ndocs = len(doc_gid_arrays)
    if doc_weight_arrays is not None:
        if len(doc_weight_arrays) != ndocs:
            raise ValueError(
                f"{len(doc_weight_arrays)} doc weight arrays for "
                f"{ndocs} documents"
            )
        for i, (gids, weights) in enumerate(
            zip(doc_gid_arrays, doc_weight_arrays)
        ):
            if np.shape(weights) != np.shape(gids):
                raise ValueError(
                    f"doc weights must align with doc gids (document {i})"
                )
    n_major, n_topics = association.shape
    out = np.zeros((ndocs, n_topics), dtype=np.float64)
    null_mask = np.ones(ndocs, dtype=bool)
    for lo, nb, doc, rows, weights in major_blocks(
        doc_gid_arrays, table, doc_weight_arrays
    ):
        if rows.size == 0:
            continue
        tf = np.bincount(
            doc * n_major + rows, weights=weights, minlength=nb * n_major
        )
        tf = tf.astype(np.float64, copy=False).reshape(nb, n_major)
        sig = (tf[:, None, :] @ association)[:, 0, :]
        norm = sig.sum(axis=1)
        ok = norm > 0.0
        out[lo : lo + nb][ok] = sig[ok] / norm[ok, None]
        null_mask[lo : lo + nb][ok] = False
    return SignatureBatch(signatures=out, null_mask=null_mask)
