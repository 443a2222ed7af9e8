"""Corpus serialization: line-delimited JSON sources on disk.

A *source* on disk is a ``.jsonl`` file with one record per line:
``{"doc_id": int, "fields": {name: text, ...}}``.  The engine can run
either from in-memory corpora or from source files; the file path
exists so the examples exercise the scan stage's real I/O code path.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from .documents import Corpus, Document

PathLike = Union[str, Path]


def write_corpus(corpus: Corpus, path: PathLike) -> int:
    """Write a corpus to a ``.jsonl`` source file; returns bytes written."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    nbytes = 0
    with p.open("w", encoding="utf-8") as f:
        header = {
            "corpus": corpus.name,
            "represented_bytes": corpus.represented_bytes,
            "meta": corpus.meta,
        }
        line = json.dumps({"_header": header}) + "\n"
        f.write(line)
        nbytes += len(line)
        for doc in corpus:
            line = (
                json.dumps({"doc_id": doc.doc_id, "fields": doc.fields}) + "\n"
            )
            f.write(line)
            nbytes += len(line)
    return nbytes


def read_corpus(path: PathLike) -> Corpus:
    """Read a corpus from a ``.jsonl`` source file."""
    p = Path(path)
    documents: list[Document] = []
    name = p.stem
    represented = None
    meta: dict = {}
    with p.open("r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            if "_header" in obj:
                header = obj["_header"]
                name = header.get("corpus", name)
                represented = header.get("represented_bytes")
                meta = header.get("meta", {})
                continue
            documents.append(
                Document(doc_id=int(obj["doc_id"]), fields=dict(obj["fields"]))
            )
    return Corpus(
        name=name,
        documents=documents,
        represented_bytes=represented,
        meta=meta,
    )
