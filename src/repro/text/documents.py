"""Document / field / corpus data model.

The paper's terminology (§2.1): a *source* is a collection of
documents (records); each document is a set of named *fields*; each
field is a sequence of *terms*.  We model documents as immutable
records with string fields; byte sizes drive the static partitioner
and the I/O cost model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Optional, Sequence


@dataclass(frozen=True)
class Document:
    """One record of a source: an ID plus named text fields."""

    doc_id: int
    fields: dict[str, str]

    @cached_property
    def nbytes(self) -> int:
        """Approximate on-disk size of this record (computed once: the
        partitioner, the engine and the scan stats all read it)."""
        return sum(
            len(k) + len(v.encode("utf-8", errors="replace")) + 4
            for k, v in self.fields.items()
        )

    def __getstate__(self) -> dict:
        # the cached size is derived, not state: pickle the fields only
        return {"doc_id": self.doc_id, "fields": self.fields}

    def text(self) -> str:
        """All field contents joined (field order preserved)."""
        return " ".join(self.fields.values())


@dataclass
class Corpus:
    """A named collection of documents plus reproduction metadata."""

    name: str
    documents: list[Document]
    #: the real-world byte size this corpus stands for (``None`` when it
    #: represents itself); see ``MachineSpec.workload_scale``
    represented_bytes: Optional[float] = None
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self) -> Iterator[Document]:
        return iter(self.documents)

    def __getitem__(self, i: int) -> Document:
        return self.documents[i]

    @property
    def nbytes(self) -> int:
        """Generated (actual) byte size of the corpus."""
        return sum(d.nbytes for d in self.documents)

    @property
    def field_names(self) -> list[str]:
        """Union of field names across documents, first-seen order."""
        seen: dict[str, None] = {}
        for d in self.documents:
            for k in d.fields:
                seen.setdefault(k, None)
        return list(seen)

    def workload_scale(self) -> float:
        """Bytes-represented per byte-generated (>= 1.0)."""
        if self.represented_bytes is None:
            return 1.0
        actual = self.nbytes
        if actual <= 0:
            return 1.0
        return max(1.0, self.represented_bytes / actual)


def partition_documents(
    documents: Sequence[Document], nprocs: int
) -> list[list[Document]]:
    """Static partitioning of sources by byte size (paper §3.2).

    Documents are assigned in contiguous runs such that each rank
    receives approximately ``total_bytes / nprocs`` bytes.  Contiguity
    preserves global document order, which keeps the parallel engine's
    output identical to the serial engine's.
    """
    if nprocs < 1:
        raise ValueError(f"nprocs must be >= 1, got {nprocs}")
    sizes = [d.nbytes for d in documents]
    total = sum(sizes)
    parts: list[list[Document]] = [[] for _ in range(nprocs)]
    if total == 0:
        for i, d in enumerate(documents):
            parts[i % nprocs].append(d)
        return parts
    target = total / nprocs
    rank = 0
    acc = 0.0
    for d, sz in zip(documents, sizes):
        # move on to the next rank once this one has its fair share,
        # keeping at least the possibility of documents for the rest
        if acc >= target * (rank + 1) and rank < nprocs - 1:
            rank += 1
        parts[rank].append(d)
        acc += sz
    return parts
