"""Scan & Map: tokenize sources and build the forward index.

Paper §3.2: each process scans its list of sources, tokenizes the byte
stream, and identifies records, fields and terms locally, producing a
field-to-term table (terms identified in each field) and a
document-to-field table -- *forward indexing*.  Unique terms are
registered in the global vocabulary hashmap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.text.documents import Document
from repro.text.tokenizer import Tokenizer


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
class ScanStats:
    """Work counters that feed the scan-stage cost model."""

    ndocs: int = 0
    nbytes: int = 0
    ntokens: int = 0
    nfields: int = 0


def scan_documents(
    documents: Sequence[Document], tokenizer: Tokenizer
) -> tuple[list[ScannedDocument], ScanStats]:
    """Tokenize ``documents`` into forward-index records."""
    scanned: list[ScannedDocument] = []
    stats = ScanStats()
    for doc in documents:
        names = list(doc.fields.keys())
        tokens = [tokenizer.tokens(text) for text in doc.fields.values()]
        rec = ScannedDocument(
            doc_id=doc.doc_id,
            field_names=names,
            field_tokens=tokens,
            nbytes=doc.nbytes,
        )
        scanned.append(rec)
        stats.ndocs += 1
        stats.nbytes += rec.nbytes
        stats.ntokens += rec.ntokens
        stats.nfields += len(names)
    return scanned, stats


def unique_terms(scanned: Sequence[ScannedDocument]) -> list[str]:
    """Sorted distinct terms across scanned documents."""
    seen: set[str] = set()
    for rec in scanned:
        for toks in rec.field_tokens:
            seen.update(toks)
    return sorted(seen)
