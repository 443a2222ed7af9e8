"""Workbench session state: scripts, result sets, algebra, quotas.

A *result set* is a named tuple of serving-layer
:class:`~repro.serve.query.Candidate`\\ s -- the hits the broker's
merge builds from the shards' reply columns -- held in the canonical
``(-score, row)`` order (selected through the shared
:func:`repro.index.termindex.topk_score_row` helper, so set algebra
cannot drift from the broker's merge order).  Set combinators score a
row by the **max** of its operand scores -- ``max`` is commutative and
associative on floats (no NaNs enter: every candidate score is a real
tf·icf or cosine value), which is what makes ``union`` and
``intersect`` bit-exactly commutative and associative, the property
the hypothesis suite checks against a brute-force reference.

Every over-quota or out-of-contract request is answered with a typed
:class:`WorkbenchReject` (the workbench analogue of the tier's
``ShedResponse``): state is never partially mutated -- an op either
saves its full result set / artifact or changes nothing.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from repro.index.termindex import topk_score_row
from repro.serve.broker import SessionReport
from repro.serve.query import Candidate, Query

WORKBENCH_VERBS = (
    "open",
    "search",
    "refine",
    "union",
    "diff",
    "intersect",
    "window",
    "keyphrases",
    "cooccur",
    "relations",
    "close",
)

#: query kinds a set may be created or refined from (ranked kinds
#: whose scores are per-row and shard-independent)
SET_QUERY_KINDS = ("search", "query")


@dataclass(frozen=True)
class WorkbenchConfig:
    """Per-tenant quota and lifecycle knobs of a workbench tier."""

    #: concurrently open sessions per tenant
    max_sessions: int = 4
    #: saved named sets per tenant, across its open sessions
    max_sets: int = 16
    #: per-tenant artifact-cache budget (canonical-response bytes)
    max_derived_bytes: int = 1 << 15
    #: virtual seconds of idleness before a session is evicted
    session_ttl_s: float = 120.0

    def __post_init__(self) -> None:
        if self.max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        if self.max_sets < 1:
            raise ValueError("max_sets must be >= 1")
        if self.max_derived_bytes < 1:
            raise ValueError("max_derived_bytes must be >= 1")
        if self.session_ttl_s <= 0:
            raise ValueError("session_ttl_s must be > 0")


@dataclass(frozen=True)
class WorkbenchOp:
    """One scripted analyst action inside a session.

    ``name`` is the result set an op *creates* (``search``/``refine``,
    the combinators, and ``window``); ``base``/``other`` name its
    operands (``refine`` refines ``base``; derives read ``base``).
    ``n`` is the top-term budget of a derive; ``min_support`` the
    relation pair-count floor.  ``window`` restricts ``base`` to rows
    stamped inside ``[t0, t1)`` (and to one source region when
    ``source >= 0``), keeping per-row scores and the canonical order;
    it needs a stamped store.
    """

    verb: str
    name: str = ""
    base: str = ""
    other: str = ""
    query: Optional[Query] = None
    n: int = 10
    min_support: int = 2
    t0: float = 0.0
    t1: float = 0.0
    source: int = -1

    def __post_init__(self) -> None:
        if self.verb not in WORKBENCH_VERBS:
            raise ValueError(
                f"unknown workbench verb {self.verb!r}; "
                f"expected one of {WORKBENCH_VERBS}"
            )
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.min_support < 1:
            raise ValueError("min_support must be >= 1")

    def key(self) -> tuple:
        """Hashable identity (the artifact-cache op component)."""
        return (
            self.verb,
            self.name,
            self.base,
            self.other,
            self.query.key() if self.query is not None else None,
            self.n,
            self.min_support,
            self.t0,
            self.t1,
            self.source,
        )


@dataclass(frozen=True)
class WorkbenchScript:
    """One analyst session script, pumped like a client script.

    ``think_s[i]`` is the virtual think time between the completion of
    op ``i - 1`` (tier start for ``i = 0``) and the issue of op ``i``.
    A tenant's scripts all route to the same workbench broker (quota
    state is broker-local), mirroring the tier's sticky client
    routing.
    """

    tenant: int
    client: int
    ops: tuple[WorkbenchOp, ...]
    think_s: tuple[float, ...]
    priority: int = 0


@dataclass(frozen=True)
class WorkbenchReject:
    """One workbench request turned away (typed, never silent).

    ``reason`` is one of: ``session_quota``, ``set_quota``,
    ``derived_bytes_quota``, ``session_evicted``, ``no_session``,
    ``already_open``, ``unknown_set``, ``bad_query``,
    ``unstamped_store`` (a ``window`` op against a store without
    facet sections).
    """

    tenant: int
    client: int
    seq: int
    verb: str
    reason: str


@dataclass
class WorkbenchSession:
    """Server-side state of one open analyst session.

    Epoch-pinned: ``epoch``, ``n_docs``, and ``icf`` are frozen at
    open time, so every fan-out and derive of this session answers
    from the generation the analyst started against -- even while
    ingest publishes newer generations to the broker.
    """

    tenant: int
    client: int
    epoch: int
    n_docs: int
    icf: np.ndarray
    opened_s: float
    last_active_s: float
    sets: dict[str, tuple[Candidate, ...]] = field(default_factory=dict)


# ----------------------------------------------------------------------
# result-set ordering, digests, and algebra
# ----------------------------------------------------------------------
def order_set(cands: Iterable[Candidate]) -> tuple[Candidate, ...]:
    """Candidates in the canonical ``(-score, row)`` order."""
    lst = list(cands)
    if not lst:
        return ()
    sel = topk_score_row(
        np.array([c.score for c in lst], dtype=np.float64),
        np.array([c.row for c in lst], dtype=np.int64),
        -1,
    )
    return tuple(lst[int(i)] for i in sel)


def set_digest(cands: tuple[Candidate, ...]) -> str:
    """Content digest of an ordered result set.

    Hashes the exact float bits of every score alongside rows and
    payload columns, so two sets digest equal iff they are
    bit-identical -- the artifact-cache key component and the
    transcript byte-compare anchor.
    """
    h = hashlib.blake2b(digest_size=16)
    for c in cands:
        h.update(
            struct.pack("<qdqq", c.row, c.score, c.doc_id, c.cluster)
        )
    return h.hexdigest()


def _max_merge(a: Candidate, b: Candidate) -> Candidate:
    """The higher-scored of two candidates for one row (ties keep
    either: same row means same document payload)."""
    return b if b.score > a.score else a


def union_sets(
    a: tuple[Candidate, ...], b: tuple[Candidate, ...]
) -> tuple[Candidate, ...]:
    """Rows of either set; each row keeps its max operand score."""
    by_row: dict[int, Candidate] = {c.row: c for c in a}
    for c in b:
        prev = by_row.get(c.row)
        by_row[c.row] = c if prev is None else _max_merge(prev, c)
    return order_set(by_row.values())


def intersect_sets(
    a: tuple[Candidate, ...], b: tuple[Candidate, ...]
) -> tuple[Candidate, ...]:
    """Rows of both sets; each row keeps its max operand score."""
    in_b = {c.row: c for c in b}
    out = [
        _max_merge(c, in_b[c.row]) for c in a if c.row in in_b
    ]
    return order_set(out)


def diff_sets(
    a: tuple[Candidate, ...], b: tuple[Candidate, ...]
) -> tuple[Candidate, ...]:
    """Rows of ``a`` absent from ``b``, keeping ``a``'s scores.

    ``diff(a, a)`` is the empty set by construction.
    """
    drop = {c.row for c in b}
    return order_set(c for c in a if c.row not in drop)


def set_rows(cands: tuple[Candidate, ...]) -> np.ndarray:
    """Ascending global rows of a set (the ``restrict_rows`` wire
    payload of a refine fan-out)."""
    return np.sort(
        np.array([c.row for c in cands], dtype=np.int64)
    )


# ----------------------------------------------------------------------
# session report
# ----------------------------------------------------------------------
@dataclass
class WorkbenchReport(SessionReport):
    """Outcome of one workbench tier session over analyst scripts."""

    rejected: list[WorkbenchReject]
    failed_ranks: list[int]
    makespan: float
    sessions_opened: int = 0
    sessions_closed: int = 0
    sessions_evicted: int = 0
    sets_saved: int = 0
    artifact_hits: int = 0
    artifact_misses: int = 0
    artifact_evictions: int = 0
    metrics: dict = field(repr=False, default_factory=dict)
    generations: dict = field(default_factory=dict)
    per_broker: list = field(default_factory=list)
    ingest: Optional[dict] = None

    @property
    def artifact_hit_rate(self) -> float:
        total = self.artifact_hits + self.artifact_misses
        return self.artifact_hits / total if total else 0.0
