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
from typing import Sequence

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
) -> SignatureBatch:
    """L1-normalized frequency-weighted signature per document.

    ``table`` is the gid -> canonical-row lookup of
    :func:`repro.signature.association.major_row_table`; ``association``
    is the global (n_major, n_topics) matrix.  Every occurrence of a
    major term counts once.

    Documents run in blocks.  A block's term frequencies are one
    ``bincount`` over (document, row) bins, exact integers; the
    block's signatures are one stacked matmul, which still issues one
    ``vector @ matrix`` gemv per document.  The bytes therefore equal a
    per-document loop's; a single ``TF @ A`` gemm would move the last
    bits.
    """
    ndocs = len(doc_gid_arrays)
    n_major, n_topics = association.shape
    out = np.zeros((ndocs, n_topics), dtype=np.float64)
    null_mask = np.ones(ndocs, dtype=bool)
    for lo, nb, doc, rows in major_blocks(doc_gid_arrays, table):
        if rows.size == 0:
            continue
        tf = np.bincount(doc * n_major + rows, minlength=nb * n_major)
        tf = tf.astype(np.float64, copy=False).reshape(nb, n_major)
        sig = (tf[:, None, :] @ association)[:, 0, :]
        norm = sig.sum(axis=1)
        ok = norm > 0.0
        out[lo : lo + nb][ok] = sig[ok] / norm[ok, None]
        null_mask[lo : lo + nb][ok] = False
    return SignatureBatch(signatures=out, null_mask=null_mask)
