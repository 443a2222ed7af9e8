"""Scan & Map: tokenize sources straight into term ids.

Paper §3.2: each process scans its list of sources, tokenizes the byte
stream, and identifies records, fields and terms locally, producing a
field-to-term table (terms identified in each field) and a
document-to-field table -- *forward indexing*.  Unique terms are
registered in the global vocabulary hashmap.

:func:`scan_ids` is the one tokenize-to-id kernel: every raw token goes
through one memo dict straight to an integer id, appended to one flat
buffer.  :func:`scan_forward` runs it with first-seen local term ids
to build a rank's :class:`~repro.scan.forward.ForwardIndex`;
:func:`repro.index.termindex.scan_major_rows` runs it with major-term
rows.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.text.documents import Document
from repro.text.tokenizer import Tokenizer

from .forward import ForwardIndex


@dataclass
class ScanStats:
    """Work counters that feed the scan-stage cost model."""

    ndocs: int = 0
    nbytes: int = 0
    ntokens: int = 0


def scan_ids(
    texts: Iterable[str],
    tokenizer: Tokenizer,
    id_of: Callable[[str], int],
) -> tuple[np.ndarray, np.ndarray]:
    """Ids of every text's terms, back to back, and each text's end.

    ``id_of`` maps a normalized term to a positive id, or to 0 or
    ``None`` to skip it.  Each distinct raw token is normalized and
    looked up once per call; every later occurrence is one memo probe.
    Ids are 1-based so that ``filter(None, ...)`` drops the skipped
    tokens at C speed.  Returns int64 ``(ids, ends)``: text ``i``'s ids
    are ``ids[ends[i - 1]:ends[i]]`` (from 0 for the first text), in
    token order -- the terms of :meth:`Tokenizer.tokens`
    (property-tested).
    """
    normalize = tokenizer._normalize_uncached

    class RawIds(dict):
        def __missing__(self, raw: str) -> int:
            term = normalize(raw)
            tid = self[raw] = None if term is None else id_of(term)
            return tid

    split = tokenizer.split
    token_id = RawIds().__getitem__
    ids = array("q")
    ends = array("q")
    for text in texts:
        ids.extend(filter(None, map(token_id, split(text))))
        ends.append(len(ids))
    return np.frombuffer(ids, np.int64), np.frombuffer(ends, np.int64)


def scan_forward(
    documents: Sequence[Document], tokenizer: Tokenizer
) -> tuple[ForwardIndex, list[str], ScanStats]:
    """Forward-index ``documents`` in one tokenize-to-id pass.

    Returns ``(forward, terms, stats)``: ``forward.gids`` holds 1-based
    local ids into ``terms`` (the distinct terms, first seen first)
    until :meth:`~repro.scan.forward.ForwardIndex.assign_gids` maps
    them to the finalized vocabulary.
    """
    terms: dict[str, int] = {}  # term -> 1-based id, first seen first
    ids, ends = scan_ids(
        (text for doc in documents for text in doc.fields.values()),
        tokenizer,
        lambda term: terms.setdefault(term, len(terms) + 1),
    )
    doc_fields = np.zeros(len(documents) + 1, dtype=np.int64)
    np.cumsum([len(doc.fields) for doc in documents], out=doc_fields[1:])
    forward = ForwardIndex(
        doc_ids=np.array([d.doc_id for d in documents], dtype=np.int64),
        doc_offsets=np.concatenate([np.zeros(1, np.int64), ends])[doc_fields],
        doc_fields=doc_fields,
        gids=ids,
    )
    stats = ScanStats(
        ndocs=len(documents),
        nbytes=sum(d.nbytes for d in documents),
        ntokens=int(ids.size),
    )
    return forward, list(terms), stats
