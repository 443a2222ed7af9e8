"""Query broker over shard-server ranks on the deterministic runtime.

Topology: ``nprocs = nshards + 1`` SPMD ranks (plus one optional
ingest-driver rank, see below).  Rank 0 is the broker; rank ``r`` with
``1 <= r <= nshards`` serves shard ``r - 1`` from its on-disk
containers.  The broker runs a closed-loop discrete-event simulation of
the client scripts: queries arrive in (virtual arrival time, client)
order, pass bounded-in-flight admission control and an LRU result
cache, then fan out to the live shard ranks; ranked shards reply with
score/row/doc/cluster columns, which merge with the same
(score, global row) tie-breaking a global stable argsort applies, so
the merged answer is bit-identical to the single-result
:class:`~repro.analysis.session.AnalysisSession` path at every shard
count.

Generational serving (live ingest): when the store is generational --
or an ingest plan runs alongside in an extra rank ``nshards + 1`` --
the broker polls the store's ``CURRENT`` pointer between queries and
hot-reloads the newest manifest (a charged, bounded amount of broker
work; zero downtime).  Every accepted query is pinned to the epoch the
broker saw at its arrival: the fan-out messages carry that epoch, each
shard rank resolves exactly that generation's segment list (its base
shard plus the delta segments it owns), and the response envelope
records the generation -- one query never mixes generations.  The
per-epoch icf weights are recomputed on reload because they depend on
the collection size.

One request shape: every fan-out message is ``(qid, epoch, shard,
ops)``, ``ops`` a tuple of ``(verb, params)`` pairs, on static and
generational stores and on every tier alike; the worker answers
``(qid, shard, [payload, ...])``, one payload per pair.  Cross-query
batching is nothing more than an ``ops`` tuple longer than one.

Degradation policy: a per-query shard timeout bounds each fan-out
round.  :class:`~repro.runtime.errors.RankFailedError` (a shard rank
crashed) permanently removes the dead ranks from the live set;
:class:`~repro.runtime.errors.CommTimeoutError` (alive but silent)
retries the round once, then drops the unresponsive shards for this
query.  Either way the query *answers* -- with ``"partial": true`` and
the missing shards listed -- instead of failing, and the response is
excluded from the cache.  Every layer feeds
:mod:`repro.runtime.metrics` (``serve.queries``,
``serve.cache.{hit,miss,evict}``, ``serve.rejected``,
``serve.degraded``, ``serve.latency``, ``serve.shard.bytes_scanned``,
``ingest.broker.reloads`` in generational mode, and the
``facets.*`` families on stamped stores).

Window analytics (stamped stores): ``facet_counts`` fans out exact
per-source int64 counts over ``[t0, t1)``; ``window_terms`` ranks the
model's major terms by exact int64 tf partial sums inside the window;
``emerging`` compares the window against the preceding window of equal
width under the epoch-pinned frozen model.  All three merge integer
partials in sorted shard order (associative sums -- any shard layout
lands on identical bytes) and rank through the canonical
``(-score, row)`` order on the integers directly.  Unstamped stores
answer facet queries with a typed ``"error"`` response, never a
fan-out; so do stamped stores built without postings for the two
term-window kinds.

One of each: shard verbs are records in :data:`SHARD_OPS` (kernel
call, combine rule, modelled charge) run by :func:`execute_shard_op`
on the one :class:`_ShardWorker` both tiers use; query kinds are
records in :data:`QUERY_OPS` (parameter derivation, fan-out verb, merge
rule); :meth:`_Broker.pump` is the only event pump -- the replicated
tier's brokers and the analyst workbench run it with their own
admission policy and item handler; :func:`_launch` starts every tier.

Responses carry no timing fields; latencies live in the
:class:`ServeReport`.  That is what makes serialized responses the
byte-compare oracle for the determinism tests: identical across shard
layouts and scheduler modes even though latencies differ per layout.
"""

from __future__ import annotations

import heapq
import os
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Optional

import numpy as np

from repro.analysis.session import pseudo_signature, top_positive_terms
from repro.facets.windows import emerging_scores
from repro.index.termindex import (
    icf_weights,
    set_term_cooccurrence,
    set_term_tf,
)
from repro.runtime.cluster import Cluster, MachineSpec
from repro.runtime.errors import CommTimeoutError, RankFailedError
from repro.runtime.service import Service
from repro.serve.query import (
    Query,
    ShardStore,
    hits_payload,
    merge_desc,
    topk_int_score_row,
)
from repro.serve.store import (
    CURRENT_FILE,
    Container,
    ServeModel,
    ShardFormatError,
    StoreManifest,
    current_generation,
    load_manifest_generation,
    load_model,
)
from repro.serve.workload import ClientScript

TAG_REQ = 101
TAG_RESP = 102

#: modelled broker-side op costs (abstract cpu ops)
_DISPATCH_OPS = 1_000
_CACHE_HIT_OPS = 200
_REJECT_OPS = 50
_RELOAD_OPS = 200

#: default ``batch_max_queries`` of both tiers, equal to their default
#: ``max_inflight``: measured best over B in {1, 2, 4, 8} (CHANGES.md)
DEFAULT_BATCH = 8

#: resend rounds after a silent fan-out round before its shards are
#: dropped (both tiers)
RETRIES = 1


@dataclass(frozen=True)
class BrokerConfig:
    """Serving-policy knobs of one broker session."""

    #: virtual seconds a fan-out round waits on silent shards
    shard_timeout_s: float = 5.0
    #: accepted-but-unfinished queries admitted before rejecting
    max_inflight: int = 8
    #: LRU result-cache capacity (entries); 0 disables caching
    cache_capacity: int = 128
    #: max already-arrived queries, of any kind, drained into one
    #: fan-out round (one ``(verb, params)`` pair each); the default
    #: drains every arrival the default ``max_inflight`` admits; 1
    #: sends one query per round
    batch_max_queries: int = DEFAULT_BATCH

    def __post_init__(self) -> None:
        if not self.shard_timeout_s > 0:
            raise ValueError("shard_timeout_s must be > 0")
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.cache_capacity < 0:
            raise ValueError("cache_capacity must be >= 0")
        if self.batch_max_queries < 1:
            raise ValueError("batch_max_queries must be >= 1")


@dataclass
class SessionReport:
    """What every session report carries and derives from it.

    Base of :class:`ServeReport`,
    :class:`~repro.serve.router.TierReport` and
    :class:`~repro.workbench.state.WorkbenchReport`, each of which
    adds its own fields (a ``makespan`` among them).
    """

    responses: list[dict]
    latencies: list[float]

    @property
    def served(self) -> int:
        return len(self.responses)

    @property
    def throughput(self) -> float:
        """Answered items per virtual second."""
        return self.served / self.makespan if self.makespan > 0 else 0.0

    @property
    def degraded(self) -> int:
        return sum(1 for r in self.responses if r["response"].get("partial"))

    @property
    def degraded_rate(self) -> float:
        return self.degraded / self.served if self.served else 0.0

    @property
    def cache_hit_rate(self) -> float:
        hits = sum(1 for r in self.responses if r.get("cached"))
        return hits / self.served if self.served else 0.0

    def latency_percentile(self, pct: float) -> float:
        """Nearest-rank percentile of answered-item virtual latency."""
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        idx = max(0, int(np.ceil(pct / 100.0 * len(ordered))) - 1)
        return ordered[idx]


@dataclass
class ServeReport(SessionReport):
    """Outcome of one broker session over a workload."""

    rejected: list[dict]
    failed_ranks: list[int]
    makespan: float
    metrics: dict = field(repr=False, default_factory=dict)
    #: generation -> {"queries", "first_virtual_s"} of served queries
    generations: dict = field(default_factory=dict)
    #: ingest-driver outcome when an ingest plan ran alongside
    ingest: Optional[dict] = None


# ----------------------------------------------------------------------
# shard operator table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardOp:
    """One shard verb, as a worker runs it over a segment list.

    ``kernel(seg, params)`` is the per-segment call, returning its
    partial answer in a tuple that ends with the bytes scanned (and,
    for ``prunes`` verbs, the blocks skipped after that);
    ``combine(model, params, parts)`` folds those tuples, in segment
    order, into the wire payload; ``cpu`` / ``flops`` give the
    modelled charge as ``(model, params, segs, payload, scanned) ->
    amount`` (``None``: the verb charges nothing of that kind).
    Facet verbs set ``reports_scan``: their payload travels as
    ``(payload, scanned)`` so the broker can account facet bytes
    separately (``facets.bytes_scanned``).
    """

    kernel: Callable
    combine: Callable
    cpu: Optional[Callable] = None
    flops: Optional[Callable] = None
    prunes: bool = False
    reports_scan: bool = False


def _set_kernel(count: Callable) -> Callable:
    """Kernel of an exact-count verb over a result set's local rows;
    ``count(postings, local rows, params)`` scans 16-byte postings."""

    def kernel(seg, p):
        local = seg._local_restrict(p["rows"])
        if not local.size:
            return None, 0
        counts, postings = count(seg.postings, local, p)
        return counts, postings * 16

    return kernel


def _windows(p) -> list[tuple[float, float]]:
    """The request's ``[t0, t1)``, preceded -- when it asks for the
    ``pair`` -- by the window of equal width just before it."""
    if not p.get("pair"):
        return [(p["t0"], p["t1"])]
    return [(p["t0"] - (p["t1"] - p["t0"]), p["t0"]), (p["t0"], p["t1"])]


def _window_tf(seg, p):
    slots = []
    scanned = 0
    for t0, t1 in _windows(p):
        totals, n_docs, s = seg.op_window_tf(t0, t1, p.get("source", -1))
        slots.append((totals, n_docs))
        scanned += s
    return slots, scanned


def _cat_hits(_model, _p, parts, col: int = 0) -> tuple:
    """Combine rule: the segments' ranked hit columns (``part[col]``),
    concatenated column by column."""
    return tuple(map(np.concatenate, zip(*(part[col] for part in parts))))


def _int_sum(shape: Callable) -> Callable:
    """Combine rule: the exact int64 sum of the segment partials.

    Integer sums are associative, so the broker-side sum over shard
    payloads is layout-independent bit for bit.
    """

    def combine(model, p, parts):
        total = np.zeros(shape(model, p), dtype=np.int64)
        for part in parts:
            if part[0] is not None:
                total += part[0]
        return total

    return combine


def _first_unit(_model, _p, parts):
    found = (part[:2] for part in parts if part[0] is not None)
    return next(found, (None, -1))


def _sum_cluster(model, p, parts):
    return sum(part[0] for part in parts), _cat_hits(model, p, parts, 1)


def _cat_region(model, _p, parts):
    parts = [part for part in parts if part[0].size]
    if not parts:
        return (
            np.empty(0, dtype=np.int64),
            np.empty((0, model.centroids.shape[1])),
        )
    return (
        np.concatenate([part[0] for part in parts]),
        np.concatenate([part[1] for part in parts], axis=0),
    )


def _sum_windows(model, p, parts):
    # exact int64 per-term tf totals over each window's rows: like
    # "set_tf", integer sums make the broker-side merge
    # layout-independent
    payload = []
    for slot in range(len(_windows(p))):
        totals = np.zeros(model.term_df.shape[0], dtype=np.int64)
        n_docs = 0
        for part in parts:
            totals += part[0][slot][0]
            n_docs += part[0][slot][1]
        payload.append((totals, n_docs))
    return payload


def _cat_rows(_model, _p, parts):
    parts = [part[0] for part in parts if part[0].size]
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


def _scan_cost(unit_bytes: int, ops: int) -> Callable:
    """Charge rule: ``ops`` per ``unit_bytes`` scanned."""
    return lambda _model, _p, _segs, _out, scanned: (
        scanned // unit_bytes * ops
    )


#: shard verb -> how a worker executes it
SHARD_OPS: dict[str, ShardOp] = {
    "search": ShardOp(
        lambda seg, p: seg.op_search(
            p["term_rows"],
            p["icf"],
            p["k"],
            restrict_rows=p.get("restrict_rows"),
        ),
        _cat_hits,
        cpu=_scan_cost(16, 4),
        prunes=True,
    ),
    "matvec": ShardOp(
        lambda seg, p: seg.op_matvec(
            p["unit"],
            p["k"],
            p.get("skip_row", -1),
            restrict_rows=p.get("restrict_rows"),
        ),
        _cat_hits,
        flops=lambda _m, p, segs, _out, _s: (
            2 * sum(s.n_docs for s in segs) * p["unit"].shape[0]
        ),
    ),
    "set_tf": ShardOp(
        _set_kernel(lambda post, local, _p: set_term_tf(post, local)),
        _int_sum(lambda model, _p: model.term_df.shape[0]),
        cpu=_scan_cost(16, 2),
    ),
    "set_cooc": ShardOp(
        _set_kernel(
            lambda post, local, p: set_term_cooccurrence(
                post, local, p["term_rows"]
            )
        ),
        _int_sum(lambda _m, p: (len(p["term_rows"]),) * 2),
        cpu=lambda _m, p, _segs, _out, scanned: (
            scanned // 16 * 2 + len(p["term_rows"]) ** 2
        ),
    ),
    "fetch_unit": ShardOp(
        lambda seg, p: seg.op_fetch_unit(p["doc_id"]), _first_unit
    ),
    "cluster": ShardOp(
        lambda seg, p: seg.op_cluster(p["cluster"], p["n_docs"]),
        _sum_cluster,
        flops=lambda model, _p, _segs, out, _s: (
            3 * out[0] * model.centroids.shape[1]
        ),
    ),
    "region": ShardOp(
        lambda seg, p: seg.op_region(p["x"], p["y"], p["radius"]),
        _cat_region,
        cpu=lambda _m, _p, segs, _out, _s: 2 * sum(s.n_docs for s in segs),
    ),
    "facet_counts": ShardOp(
        lambda seg, p: seg.op_facet_counts(
            p["t0"], p["t1"], p["n_sources"]
        ),
        _int_sum(lambda _m, p: p["n_sources"]),
        cpu=_scan_cost(8, 1),
        reports_scan=True,
    ),
    "window_tf": ShardOp(
        _window_tf, _sum_windows, cpu=_scan_cost(16, 2), reports_scan=True
    ),
    "window_restrict": ShardOp(
        lambda seg, p: seg.op_window_restrict(
            p["rows"], p["t0"], p["t1"], p.get("source", -1)
        ),
        _cat_rows,
        cpu=_scan_cost(8, 1),
        reports_scan=True,
    ),
}


def execute_shard_op(
    ctx, model, segs: list[ShardStore], op: str, params: dict
) -> tuple[object, int, int]:
    """Run one shard operator over a segment list.

    Returns ``(payload, bytes_scanned, blocks_skipped)``; charges the
    verb's cpu/flops cost from :data:`SHARD_OPS` but leaves the io
    charge and metrics to the worker loop.  Every replica of a shard
    runs the same record over the same segment list, so replicas are
    bit-identical by construction.
    """
    rec = SHARD_OPS.get(op)
    if rec is None:
        raise ValueError(f"unknown shard op {op!r}")
    parts = [rec.kernel(seg, params) for seg in segs]
    scanned = sum(part[-2 if rec.prunes else -1] for part in parts)
    skipped = sum(part[-1] for part in parts) if rec.prunes else 0
    payload = rec.combine(model, params, parts)
    if rec.cpu is not None:
        ctx.charge_cpu(rec.cpu(model, params, segs, payload, scanned))
    if rec.flops is not None:
        ctx.charge_flops(rec.flops(model, params, segs, payload, scanned))
    if rec.reports_scan:
        payload = (payload, scanned)
    return payload, scanned, skipped


# ----------------------------------------------------------------------
# shard worker rank
# ----------------------------------------------------------------------
class _ShardWorker:
    """One worker rank's request handler over the shards it hosts.

    Per ``(epoch, shard)`` the rank serves a *segment list*: the base
    shard plus every delta segment that shard owns -- the identical
    files on every replica of the shard, so replicas answer
    bit-identically.  Manifests and segment stores are cached across
    epochs (a generation's containers are immutable once published).

    The worker is a service handler (:mod:`repro.runtime.service`):
    called as ``worker(src, request)`` with ``(qid, epoch, shard,
    ops)``, it runs :func:`execute_shard_op` once per ``(verb,
    params)`` pair of ``ops`` over the pinned segment list, charges
    the io of the whole request once, and returns the one reply
    ``(qid, shard, [payload, ...])`` to ``src``; ``("stop",)`` ends
    the service.  Single-copy tier (``rmap`` is ``None``): the rank
    hosts shard ``rank - 1``, takes broker rank 0's requests, and has
    no thread of its own under the default scheduler.  Replicated
    tier: it hosts what ``rmap`` places on worker ``rank - 1 -
    n_brokers``, takes requests from any broker through the tier's
    blocking loop, and re-raises a
    :class:`~repro.serve.store.ShardFormatError` naming which copy on
    which worker hit it.

    ``model`` is the session's opened store, shared with every other
    rank; its manifest seeds the per-epoch manifest cache.
    """

    def __init__(self, ctx, model: ServeModel, rmap=None, n_brokers: int = 0):
        self.ctx = ctx
        self.store_dir = model.store_dir
        self.rmap = rmap
        self.n_brokers = n_brokers
        self.worker_id = ctx.rank - 1 - n_brokers
        self.model = model
        self._manifests: dict[int, StoreManifest] = {
            model.manifest.generation: model.manifest
        }
        self._segments: dict[tuple[int, int], list[ShardStore]] = {}
        self._stores: dict[str, ShardStore] = {}

    def start(self) -> "_ShardWorker":
        """Register the rank's scan counters as it starts serving (a
        rank that never answers still reports them); returns the
        handler."""
        m = self.ctx.metrics
        self._bytes_scanned = m.counter("serve.shard.bytes_scanned", ("shard",))
        self._blocks_skipped = m.counter(
            "serve.shard.blocks_skipped", ("shard",)
        )
        return self

    def _read(self, shard: int, load: Callable, *args):
        """One store read on behalf of ``shard``."""
        try:
            return load(*args)
        except ShardFormatError as exc:
            if self.rmap is None:
                raise
            w, hosts = self.worker_id, self.rmap.workers_for(shard)
            copy = hosts.index(w) if w in hosts else -1
            raise ShardFormatError(
                exc.path,
                exc.reason,
                context=(
                    f"shard {shard} copy {copy} on worker {w} "
                    f"(rank {self.ctx.rank})"
                ),
            ) from exc

    def _store(self, fname: str, shard: int) -> ShardStore:
        s = self._stores.get(fname)
        if s is None:
            s = self._read(
                shard,
                lambda: ShardStore(
                    Container(os.path.join(self.store_dir, fname)),
                    self.model,
                ),
            )
            self._stores[fname] = s
        return s

    def segments(self, epoch: int, shard: int) -> list[ShardStore]:
        """The epoch's segment list for one hosted shard."""
        segs = self._segments.get((epoch, shard))
        if segs is None:
            m = self._manifests.get(epoch)
            if m is None:
                m = self._read(
                    shard, load_manifest_generation, self.store_dir, epoch
                )
                self._manifests[epoch] = m
            files = [m.shards[shard].file]
            files += [d.file for d in m.deltas if d.owner == shard]
            segs = [self._store(f, shard) for f in files]
            self._segments[(epoch, shard)] = segs
        return segs

    def __call__(self, src: int, msg: tuple):
        """Answer one request with its one reply; ``None`` on stop."""
        if msg[0] == "stop":
            return None
        ctx = self.ctx
        qid, epoch, shard, ops = msg
        segs = self.segments(epoch, shard)
        payloads, scanned, skipped = [], 0, 0
        for op, params in ops:
            payload, s, sk = execute_shard_op(
                ctx, self.model, segs, op, params
            )
            payloads.append(payload)
            scanned += s
            skipped += sk
        ctx.charge_io(scanned, concurrent_readers=1)
        skey = (str(shard),)
        self._bytes_scanned.inc(ctx.rank, float(scanned), key=skey)
        self._blocks_skipped.inc(ctx.rank, float(skipped), key=skey)
        return [(src, (qid, shard, payloads), TAG_RESP)]


# ----------------------------------------------------------------------
# query operator table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class QueryOp:
    """One query kind, as a broker answers it.

    ``derive(broker, query, at, restrict)`` turns the query into the
    fan-out parameters of shard verb ``op`` -- returning ``(params,
    None)`` -- or, when no fan-out is needed or possible, into the
    finished answer: ``(None, response)``.  ``at`` supplies the
    collection size and icf weights to derive against (the broker
    itself, or a workbench session pinned to an older epoch);
    ``restrict`` (ascending global rows) limits a ranked kind to a
    saved set's members.  ``merge(broker, query, params, got,
    dropped)`` folds the per-shard payloads into the response.
    ``stamped`` kinds answer a typed error on stores without facet
    sections, never a fan-out.
    """

    op: str
    derive: Callable
    merge: Callable
    stamped: bool = False


def _answer(kind: str, **fields) -> dict:
    """A complete answer that needed no shard."""
    return {"kind": kind, **fields, "partial": False, "failed_shards": []}


def _unstamped(kind: str) -> dict:
    """Typed answer for a facet query the store cannot serve."""
    return _answer(
        kind,
        error=(
            "store is not stamped: no facet sections "
            "(rebuild from a stamped corpus)"
        ),
    )


def _no_postings(kind: str) -> dict:
    """Typed answer for a term-window query on a store whose shards
    hold no postings (its facet sections alone cannot count terms)."""
    return _answer(
        kind,
        error=(
            "store was built without postings: window term queries "
            "need them (rebuild with the corpus)"
        ),
    )


def _term_rows(model, query: Query) -> list[int]:
    return [model.term_row[t] for t in query.terms if t in model.term_row]


def _ranked_k(query: Query, pool: int, restrict=None) -> int:
    """Candidates a ranked fan-out asks for: every member of the
    restriction set, else the query's ``k`` clamped to the pool."""
    if restrict is not None:
        return int(restrict.size)
    return min(max(1, query.k), pool)


def _restricted(params: dict, restrict):
    if restrict is not None:
        params["restrict_rows"] = restrict
    return params, None


def _derive_search(b, query, at, restrict=None):
    term_rows = _term_rows(b.model, query)
    k = _ranked_k(query, at.n_docs, restrict)
    if not term_rows or not b.model.has_postings or k < 1:
        return None, _answer("search", hits=[])
    return _restricted(
        {"term_rows": term_rows, "icf": at.icf, "k": k}, restrict
    )


def _derive_query(b, query, at, restrict=None):
    unit = pseudo_signature(b.model.association, _term_rows(b.model, query))
    k = _ranked_k(query, at.n_docs, restrict)
    if unit is None or k < 1:
        return None, _answer("query", hits=[])
    return _restricted({"unit": unit, "k": k}, restrict)


def _derive_similar(b, query, at, restrict=None):
    manifest = b.manifest
    doc_id = query.doc_id
    # base shards first, then the deltas their owners also serve
    spans = chain(
        enumerate(manifest.shards), ((d.owner, d) for d in manifest.deltas)
    )
    owner = next(
        (o for o, g in spans if g.n_docs and g.doc_lo <= doc_id <= g.doc_hi),
        None,
    )
    unknown = _answer("similar", hits=[], error=f"unknown doc_id {doc_id}")
    if owner is None:
        return None, unknown
    # a one-target round either answers or drops its target, so a
    # fetched unit means this round dropped nothing to carry over
    got, dropped = {}, [owner]
    if owner in b.live:
        got, dropped = b._fanout(
            [owner], (("fetch_unit", {"doc_id": doc_id}),)
        )
    if owner not in got:
        # the only shard that could anchor this query is gone or silent
        gone = dropped or [owner]
        return None, b._flag({"kind": "similar", "hits": []}, gone)
    unit, global_row = got[owner][0]
    if unit is None:
        return None, unknown
    k = _ranked_k(query, b.n_docs - 1)
    return {"unit": unit, "k": k, "skip_row": global_row}, None


def _derive_cluster(b, query, at, restrict=None):
    kmax = b.model.centroids.shape[0]
    if not 0 <= query.cluster < kmax:
        return None, _answer(
            "cluster",
            error=f"cluster {query.cluster} out of range [0, {kmax})",
        )
    return {"cluster": query.cluster, "n_docs": query.n_docs}, None


def _derive_region(b, query, at, restrict=None):
    return {"x": query.x, "y": query.y, "radius": query.radius}, None


def _derive_facet_counts(b, query, at, restrict=None):
    n_sources = b.manifest.facets.n_sources
    return {"t0": query.t0, "t1": query.t1, "n_sources": n_sources}, None


def _derive_window(pair: bool) -> Callable:
    def derive(b, query, at, restrict=None):
        if not b.model.has_postings:
            return None, _no_postings(query.kind)
        params = {"t0": query.t0, "t1": query.t1, "source": query.source}
        if pair:
            params["pair"] = True
        return params, None

    return derive


def merge_ranked(ctx, got: dict, k: int, overhead_ops: int):
    """Global top-``k`` of per-shard hit columns, merged in sorted
    shard order and charged per hit plus ``overhead_ops``."""
    per_shard = [got[s] for s in sorted(got)]
    cands = merge_desc(per_shard, k)
    ctx.charge_cpu(sum(p[0].size for p in per_shard) + overhead_ops)
    return cands


def _merge_hits(b, query, params, got, dropped):
    cands = merge_ranked(b.ctx, got, params["k"], _DISPATCH_OPS)
    return b._flag({"kind": query.kind, "hits": hits_payload(cands)}, dropped)


def _merge_cluster(b, query, params, got, dropped):
    centroid = b.model.centroids[query.cluster]
    size = int(sum(got[s][0] for s in got))
    reps = merge_ranked(
        b.ctx,
        {s: got[s][1] for s in got},
        min(query.n_docs, size),
        _DISPATCH_OPS,
    )
    resp = {
        "kind": "cluster",
        "cluster": query.cluster,
        "size": size,
        "top_terms": top_positive_terms(
            centroid, b.model.topic_terms, query.n_terms
        ),
        "representative_docs": [c.doc_id for c in reps],
        "centroid_norm": float(np.linalg.norm(centroid)),
    }
    return b._flag(resp, dropped)


def _merge_region(b, query, params, got, dropped):
    parts = [got[s] for s in sorted(got) if got[s][0].size]
    size = int(sum(got[s][0].size for s in got))
    if size == 0:
        return b._flag({"kind": "region", "size": 0, "terms": []}, dropped)
    # reassembling the shard blocks in global row order rebuilds
    # the exact contiguous array the reference session reduces, so
    # the mean is bit-identical to the unsharded path; on static
    # stores the permutation is the identity (shard order IS row
    # order), on generational stores it interleaves delta rows back
    # into collection order
    rows = np.concatenate([p[0] for p in parts])
    block = np.concatenate([p[1] for p in parts], axis=0)
    order = np.argsort(rows, kind="stable")
    mean_sig = block[order].mean(axis=0)
    b.ctx.charge_flops(size * mean_sig.shape[0] + _DISPATCH_OPS)
    resp = {
        "kind": "region",
        "size": size,
        "terms": top_positive_terms(
            mean_sig, b.model.topic_terms, query.n_terms
        ),
    }
    return b._flag(resp, dropped)


def _merge_facet_counts(b, query, params, got, dropped):
    fac = b.manifest.facets
    counts = np.zeros(fac.n_sources, dtype=np.int64)
    scanned = 0
    for s in sorted(got):
        c, sc = got[s]
        counts += c
        scanned += sc
    b.ctx.charge_cpu(fac.n_sources * max(1, len(got)) + _DISPATCH_OPS)
    b._count_facets("facet_counts", scanned)
    resp = {
        "kind": "facet_counts",
        "t0": query.t0,
        "t1": query.t1,
        "sources": list(fac.source_names),
        "counts": [int(c) for c in counts],
        "total": int(counts.sum()),
    }
    return b._flag(resp, dropped)


def _window_totals(
    model, got: dict[int, object], slot: int
) -> tuple[np.ndarray, int, int]:
    """Sum one window slot's per-shard int64 partials in sorted
    shard order -- associative, so any shard layout lands on the
    identical totals."""
    totals = np.zeros(model.term_df.shape[0], dtype=np.int64)
    n_docs = 0
    scanned = 0
    for s in sorted(got):
        pairs, sc = got[s]
        t, n = pairs[slot]
        totals += t
        n_docs += int(n)
        scanned += sc
    return totals, n_docs, scanned


def _merge_window_terms(b, query, params, got, dropped):
    totals, window_docs, scanned = _window_totals(b.model, got, 0)
    pos = np.flatnonzero(totals > 0)
    sel = topk_int_score_row(totals[pos], pos, max(1, query.n_terms))
    rows = pos[sel]
    b.ctx.charge_cpu(int(totals.shape[0]) + _DISPATCH_OPS)
    b._count_facets("window_terms", scanned)
    resp = {
        "kind": "window_terms",
        "t0": query.t0,
        "t1": query.t1,
        "source": query.source,
        "window_docs": window_docs,
        "terms": [
            {"term": b.model.terms[int(r)], "tf": int(totals[int(r)])}
            for r in rows
        ],
    }
    return b._flag(resp, dropped)


def _merge_emerging(b, query, params, got, dropped):
    prev, prev_docs, scanned = _window_totals(b.model, got, 0)
    cur, cur_docs, _ = _window_totals(b.model, got, 1)
    scores = emerging_scores(prev, cur)
    keep = np.flatnonzero((cur > 0) & (scores > 0))
    sel = topk_int_score_row(scores[keep], keep, max(1, query.n_terms))
    rows = keep[sel]
    b.ctx.charge_cpu(3 * int(cur.shape[0]) + _DISPATCH_OPS)
    b._count_facets("emerging", scanned, hits=int(rows.size))
    resp = {
        "kind": "emerging",
        "t0": query.t0,
        "t1": query.t1,
        "source": query.source,
        "window_docs": cur_docs,
        "prev_docs": prev_docs,
        "terms": [
            {
                "term": b.model.terms[int(r)],
                "score": int(scores[int(r)]),
                "tf": int(cur[int(r)]),
                "prev_tf": int(prev[int(r)]),
            }
            for r in rows
        ],
    }
    return b._flag(resp, dropped)


#: query kind -> how a broker answers it
QUERY_OPS: dict[str, QueryOp] = {
    "search": QueryOp("search", _derive_search, _merge_hits),
    "query": QueryOp("matvec", _derive_query, _merge_hits),
    "similar": QueryOp("matvec", _derive_similar, _merge_hits),
    "cluster": QueryOp("cluster", _derive_cluster, _merge_cluster),
    "region": QueryOp("region", _derive_region, _merge_region),
    "facet_counts": QueryOp(
        "facet_counts",
        _derive_facet_counts,
        _merge_facet_counts,
        stamped=True,
    ),
    "window_terms": QueryOp(
        "window_tf", _derive_window(False), _merge_window_terms, stamped=True
    ),
    "emerging": QueryOp(
        "window_tf", _derive_window(True), _merge_emerging, stamped=True
    ),
}


# ----------------------------------------------------------------------
# broker rank
# ----------------------------------------------------------------------
class _Loop:
    """Books of one closed-loop session: the arrival heap, the finish
    times admission reads its depth from, and what the report carries.

    Heap entries carry the *position* in ``scripts``; response records
    carry the script's own identity (they differ when a tier broker
    pumps a routed subset of the client set).
    """

    def __init__(self, broker: "_Broker", scripts: list, handler):
        self.broker = broker
        self.scripts = scripts
        self.handler = handler
        #: per script, the items it holds for this handler
        self.items = [getattr(script, handler.items) for script in scripts]
        self.heap: list[tuple[float, int, int]] = []
        for i, script in enumerate(scripts):
            if self.items[i]:
                heapq.heappush(self.heap, (script.think_s[0], i, 0))
        self.responses: list[dict] = []
        self.latencies: list[float] = []
        self.rejected: list = []
        self.finishes: list[float] = []  # ascending: server is sequential

    def _schedule_next(self, idx: int, seq: int, now: float) -> None:
        if seq + 1 < len(self.items[idx]):
            think_s = self.scripts[idx].think_s[seq + 1]
            heapq.heappush(self.heap, (now + think_s, idx, seq + 1))

    def take(self, assembling: int = 0) -> Optional[tuple]:
        """Pop the next arrival through counting and admission.

        Returns the admitted ``(arrival, idx, seq, item)``, or ``None``
        when the handler's policy turned it away (its client's next
        arrival is then already scheduled).  ``assembling`` counts
        arrivals admitted but not yet served -- the members of a batch
        being drained -- on top of the accepted-but-unfinished depth.
        """
        b, handler = self.broker, self.handler
        arrival, idx, seq = heapq.heappop(self.heap)
        script = self.scripts[idx]
        item = self.items[idx][seq]
        handler.c_arrivals.inc(b.mrank, key=(getattr(item, handler.label),))
        depth = (
            len(self.finishes)
            - bisect_right(self.finishes, arrival)
            + assembling
        )
        if not handler._admit(script, depth):
            b.ctx.charge_cpu(_REJECT_OPS)
            handler._on_reject(script, seq, item, depth, self.rejected)
            self._schedule_next(idx, seq, arrival)
            return None
        return arrival, idx, seq, item

    def record(self, entry: tuple, resp: dict, cached: bool, gen: int) -> None:
        """Book one answered arrival and schedule its client's next."""
        b, handler = self.broker, self.handler
        arrival, idx, seq, item = entry
        script = self.scripts[idx]
        label = getattr(item, handler.label)
        finish = b.ctx.now
        latency = finish - arrival
        handler.h_latency.observe(b.mrank, latency, key=(label,))
        stats = b.gen_stats.setdefault(
            gen, {"queries": 0, "first_virtual_s": float(arrival)}
        )
        stats["queries"] += 1
        envelope = {f: getattr(script, f) for f in handler.ident}
        envelope["seq"] = seq
        envelope[handler.label] = label
        envelope["cached"] = cached
        envelope["generation"] = gen
        envelope["response"] = resp
        self.responses.append(envelope)
        self.latencies.append(latency)
        self.finishes.append(finish)
        self._schedule_next(idx, seq, finish)


class _Broker:
    """The single-copy tier's broker rank -- and the pump handler
    that answers plain query scripts."""

    #: what a pump handler declares of its scripts: the attribute
    #: holding the items it serves, the item attribute naming the verb
    #: (the metric label and the envelope field), and the script
    #: fields saying whose item it is -- they head every response
    #: envelope, the first is the replicated tier's sticky routing
    #: key, and ``ident + ("seq",)`` is its merge order
    items, label, ident = "queries", "kind", ("client",)

    def __init__(
        self,
        ctx,
        model: ServeModel,
        config: BrokerConfig,
        generational: bool = False,
    ):
        self.ctx = ctx
        self.store_dir = model.store_dir
        self.config = config
        self.model = model
        manifest = model.manifest
        self.manifest = manifest
        self.nshards = manifest.nshards
        self.epoch = manifest.generation
        self.n_docs = manifest.n_docs
        self.generational = generational or os.path.exists(
            os.path.join(self.store_dir, CURRENT_FILE)
        )
        #: live shard indices (0-based); shrinks on RankFailedError
        self.live = list(range(self.nshards))
        #: this broker's metric slot (rank 0 in the single-broker tier)
        self.mrank = ctx.rank
        self.qid = 0
        self.icf = icf_weights(self.model.term_df, self.n_docs)
        m = ctx.metrics
        self.c_arrivals = m.counter("serve.queries", ("kind",))
        self.c_hit = m.counter("serve.cache.hit")
        self.c_miss = m.counter("serve.cache.miss")
        self.c_evict = m.counter("serve.cache.evict")
        self.c_rejected = m.counter("serve.rejected")
        self.c_degraded = m.counter("serve.degraded")
        self.h_latency = m.histogram("serve.latency", label_names=("kind",))
        # registered only in generational mode so static-serve metric
        # snapshots gain no empty ingest families
        self.c_reloads = (
            m.counter("ingest.broker.reloads") if self.generational else None
        )
        # likewise: facet families exist only on stamped stores, so an
        # unstamped session's metric snapshot is byte-identical to the
        # pre-facet output
        self.c_facet_windows = self.c_facet_bytes = self.c_facet_hits = None
        if manifest.facets is not None:
            self.c_facet_windows = m.counter("facets.windows", ("kind",))
            self.c_facet_bytes = m.counter("facets.bytes_scanned")
            self.c_facet_hits = m.counter("facets.emerging_hits")
        self.cache: OrderedDict[tuple, dict] = OrderedDict()
        self.gen_stats: dict[int, dict] = {}

    # -- hot reload ----------------------------------------------------
    def _maybe_reload(self) -> None:
        """Swap to the newest published generation between queries.

        Bounded broker work (one pointer read; on change, one manifest
        parse plus an icf recompute), charged as ``_RELOAD_OPS``.  The
        epoch set here pins every fan-out of the next query.
        """
        if not self.generational:
            return
        # sync point before the poll: lets the ingest rank (and any
        # other lower-clock rank) run first, so every publish stamped
        # at or before this query's arrival is really on disk
        self.ctx.sync()
        gen = current_generation(self.store_dir)
        # adopt the newest generation already published in virtual
        # time: a generation stamped later than this query's arrival
        # is not visible to it (walk back -- publishes are stamped in
        # ascending order, so the first hit is the right one)
        while gen > self.epoch:
            manifest = load_manifest_generation(self.store_dir, gen)
            if manifest.published_s > self.ctx.now:
                gen -= 1
                continue
            self.epoch = gen
            self.manifest = manifest
            self.n_docs = manifest.n_docs
            # icf depends on the collection size: per-epoch state
            self.icf = icf_weights(self.model.term_df, self.n_docs)
            self.ctx.charge_cpu(_RELOAD_OPS)
            self.c_reloads.inc(self.mrank)
            return

    # -- fan-out -------------------------------------------------------
    def _fanout(
        self, targets: list[int], ops: tuple, epoch: Optional[int] = None
    ) -> tuple[dict[int, list], list[int]]:
        """One request round over ``targets`` (shard indices): every
        target gets ``(qid, epoch, shard, ops)``, ``ops`` a tuple of
        ``(verb, params)`` pairs.  Returns (per shard index, the list
        of its payloads in ``ops`` order; shards dropped this query).

        ``epoch`` pins the round to a generation other than the
        broker's current one (a workbench session's open-time epoch).
        """
        ctx, cfg = self.ctx, self.config
        self.qid += 1
        qid = self.qid
        epoch = self.epoch if epoch is None else epoch

        def send(s: int) -> None:
            # single-copy tier: shard s lives on rank s + 1
            ctx.comm.send(s + 1, (qid, epoch, s, ops), tag=TAG_REQ)

        got: dict[int, list] = {}
        pending = sorted(targets)
        for _round in range(1 + RETRIES):
            for s in pending:
                send(s)
            # one receive per shard, in shard order, on every backend
            # (the merge folds the replies in that order anyway); the
            # round shares one deadline, however many shards are silent
            deadline, silent = ctx.now + cfg.shard_timeout_s, []
            for s in pending:
                try:
                    reply = (None,)
                    while reply[0] != qid:  # a late answer to a past round
                        reply = ctx.comm.recv(
                            s + 1,
                            tag=TAG_RESP,
                            timeout=max(0.0, deadline - ctx.now),
                        )
                    got[s] = reply[2]
                except RankFailedError:
                    self.live.remove(s)
                except CommTimeoutError:
                    silent.append(s)
            if not silent:
                break
            pending = silent
        return got, silent

    def _flag(self, resp: dict, dropped: list[int]) -> dict:
        """Mark a response that is missing any shard's documents.

        Permanently-dead shards count on every later query too: an
        answer that cannot see part of the collection stays flagged
        partial even though its fan-out round had no new failures.
        """
        dead = [s for s in range(self.nshards) if s not in self.live]
        missing = sorted(set(dropped) | set(dead))
        resp["partial"] = bool(missing)
        resp["failed_shards"] = missing
        return resp

    def _count_facets(
        self, kind: str, scanned: int, hits: int = 0
    ) -> None:
        if self.c_facet_windows is None:
            return
        self.c_facet_windows.inc(self.mrank, key=(kind,))
        self.c_facet_bytes.inc(self.mrank, float(scanned))
        if hits:
            self.c_facet_hits.inc(self.mrank, float(hits))

    # -- operators -----------------------------------------------------
    def execute_batch(self, queries: list[Query]) -> list[dict]:
        """Answer accepted, uncached queries with one shard round.

        Each member is derived on its own -- a member the derivation
        answers outright (unknown terms, an unstamped store) keeps
        that answer -- and the rest share one fan-out carrying one
        ``(verb, params)`` pair each.  Merging stays per member, so
        every response is the one that query gets alone.
        """
        out: list[Optional[dict]] = []
        fanned = []
        for i, query in enumerate(queries):
            rec = QUERY_OPS[query.kind]
            if rec.stamped and self.manifest.facets is None:
                out.append(_unstamped(query.kind))
                continue
            params, answer = rec.derive(self, query, self)
            out.append(answer)
            if params is not None:
                fanned.append((i, rec, params))
        if fanned:
            got, dropped = self._fanout(
                self.live, tuple((rec.op, p) for _i, rec, p in fanned)
            )
            for m, (i, rec, params) in enumerate(fanned):
                got_m = {s: got[s][m] for s in got}
                out[i] = rec.merge(self, queries[i], params, got_m, dropped)
        return out

    # -- the pump's two hooks, for query scripts -----------------------
    def _admit(self, script: ClientScript, depth: int) -> bool:
        """Whether a query may enter at the given in-flight depth."""
        return depth < self.config.max_inflight

    def _on_reject(
        self,
        script: ClientScript,
        seq: int,
        query: Query,
        depth: int,
        rejected: list,
    ) -> None:
        """Record one turned-away query."""
        self.c_rejected.inc(self.mrank)
        rejected.append(
            {"client": script.client, "seq": seq, "kind": query.kind}
        )

    def _cached(self, loop: _Loop, entry: tuple) -> Optional[tuple]:
        """Answer an admitted query from the result cache.

        Returns ``None`` after recording the hit, else the cache key
        the freshly computed answer is to be stored under.
        """
        key = (self.epoch,) + entry[3].key()
        if self.config.cache_capacity > 0 and key in self.cache:
            self._hit(loop, entry, key, self.cache[key])
            return None
        return key

    def _hit(self, loop: _Loop, entry: tuple, key: tuple, resp: dict) -> None:
        """Record a cache hit: ``resp`` is the answer cached under
        ``key`` (refreshed in the LRU order if still held)."""
        if key in self.cache:
            self.cache.move_to_end(key)
        self.c_hit.inc(self.mrank)
        self.ctx.charge_cpu(_CACHE_HIT_OPS)
        loop.record(entry, resp, True, self.epoch)

    def _answered(
        self, loop: _Loop, entry: tuple, key: tuple, resp: dict
    ) -> None:
        """Count the miss, cache (or count as degraded) and record a
        computed answer."""
        self.c_miss.inc(self.mrank)
        if resp.get("partial"):
            self.c_degraded.inc(self.mrank)
        elif self.config.cache_capacity > 0:
            self.cache[key] = resp
            if len(self.cache) > self.config.cache_capacity:
                self.cache.popitem(last=False)
                self.c_evict.inc(self.mrank)
        loop.record(entry, resp, False, self.epoch)

    def _serve(self, loop: _Loop, entry: tuple) -> None:
        """Answer one admitted query together with the queries already
        queued behind it, up to ``batch_max_queries`` in all."""
        ctx, cfg = self.ctx, self.config
        # pin this query's epoch: reload happens between queries,
        # never inside a fan-out
        self._maybe_reload()
        key = self._cached(loop, entry)
        if key is None:
            return
        # cross-query batching: drain queries that have already
        # arrived into one shard round-trip.  Members pass the same
        # admission check and cache lookup and keep their own response
        # identity; they only share the fan-out and a common finish
        # time.
        batch = [(entry, key)]
        # per member, the member whose answer it gets: its own, or --
        # with the cache on -- the first member with its key, whose
        # fresh answer it hits as it would queued behind it unbatched
        source = [0]
        first = {key: 0}
        while (
            loop.heap
            and len(batch) < cfg.batch_max_queries
            and loop.heap[0][0] <= ctx.now
        ):
            # the depth a member sees counts the batch being assembled:
            # its members are admitted but not served
            member = loop.take(assembling=len(batch))
            if member is not None:
                key2 = self._cached(loop, member)
                if key2 is not None:
                    i = len(batch)
                    if cfg.cache_capacity > 0:
                        i = first.setdefault(key2, i)
                    source.append(i)
                    batch.append((member, key2))
        fanned = [i for i, src in enumerate(source) if src == i]
        resps = dict(
            zip(fanned, self.execute_batch([batch[i][0][3] for i in fanned]))
        )
        for i, (member, key2) in enumerate(batch):
            resp = resps[source[i]]
            if source[i] == i or resp.get("partial"):
                # a partial answer is never cached: a repeat of it
                # is a miss, degraded, like its first
                self._answered(loop, member, key2, resp)
            else:
                self._hit(loop, member, key2, resp)

    def _shutdown(self) -> None:
        """End-of-session: stop the shard ranks this broker owns."""
        for s in self.live:
            self.ctx.comm.send(s + 1, ("stop",), tag=TAG_REQ)

    def _session(self, loop: _Loop) -> dict:
        """The report fields every handler's session shares."""
        return {
            "responses": loop.responses,
            "latencies": loop.latencies,
            "failed_ranks": sorted(
                s + 1 for s in range(self.nshards) if s not in self.live
            ),
            "makespan": self.ctx.now,
            "generations": self.gen_stats,
        }

    def _report(self, loop: _Loop) -> ServeReport:
        return ServeReport(rejected=loop.rejected, **self._session(loop))

    # -- closed-loop event pump ----------------------------------------
    def pump(self, scripts: list, handler=None):
        """Serve ``scripts`` to completion: the one closed-loop pump.

        Arrivals pop in (virtual arrival time, script position) order;
        each is counted, put to the admission policy at the
        accepted-but-unfinished depth it finds, and -- admitted -- has
        the clock advanced to its arrival and is handed over to be
        answered; its client's next item arrives one think time after
        the answer.  ``handler`` (default: this broker, serving plain
        query scripts) supplies the two hooks: the admission policy
        (``_admit`` / ``_on_reject``) and the item handler
        ``_serve(loop, entry)``, which records what it answers through
        the loop and may take further arrivals off it.  It also names
        its scripts' shape and metric families (see ``items``) and
        closes the session with ``_report(loop)``.
        """
        handler = self if handler is None else handler
        ctx = self.ctx
        loop = _Loop(self, scripts, handler)
        while loop.heap:
            entry = loop.take()
            if entry is None:
                continue
            if ctx.now < entry[0]:
                ctx.charge(entry[0] - ctx.now)
            handler._serve(loop, entry)
        self._shutdown()
        return handler._report(loop)


def shard_service(model: ServeModel) -> Service:
    """The single-copy tier's shard ranks: each answers broker rank
    0's requests through a :class:`_ShardWorker` over ``model``."""
    return Service(
        lambda ctx: _ShardWorker(ctx, model).start(), source=0, tag=TAG_REQ
    )


# ----------------------------------------------------------------------
# tier launcher
# ----------------------------------------------------------------------
def _launch(
    model: ServeModel,
    roles: list[tuple[int, Callable]],
    front: str,
    machine: Optional[MachineSpec],
    faults,
    ingest,
    backend: str = "sim",
):
    """Run one serving session over an opened store and return rank
    0's report.

    ``roles`` lays the ranks out in order as ``(count, role)`` runs,
    ``role(ctx)`` being what each of those ranks executes -- or a
    :class:`~repro.runtime.service.Service` for ranks that only
    answer requests; ``ingest`` appends its one driver rank.  Under a
    fault plan the session degrades rather than failing (the cluster
    runs with ``raise_on_failure=False``) -- unless the ``front`` rank
    itself, whose result is the report, is among the dead.  The report leaves
    with the run's metrics snapshot, the runtime's view of the failed
    ranks, and the ingest driver's outcome attached.  A rank that hit
    a corrupt store file surfaces as that rank's
    :class:`~repro.serve.store.ShardFormatError`.
    """
    ranks = [role for count, role in roles for _ in range(count)]
    if ingest is not None:
        ranks.append(lambda ctx: ingest.run(ctx, model.store_dir))
    nprocs = len(ranks)
    cluster = Cluster(nprocs, machine=machine, faults=faults, backend=backend)
    services = {
        r: role for r, role in enumerate(ranks) if isinstance(role, Service)
    }
    try:
        result = cluster.run(
            lambda ctx: ranks[ctx.rank](ctx),
            services=services,
            raise_on_failure=False,
        )
    except RuntimeError as exc:
        if isinstance(exc.__cause__, ShardFormatError):
            raise exc.__cause__ from None
        raise
    report = result.rank_results[0]
    if report is None:
        raise RankFailedError(result.failed_ranks, f"{front} rank crashed")
    report.metrics = result.metrics.snapshot()
    report.failed_ranks = sorted(
        set(report.failed_ranks) | set(result.failed_ranks)
    )
    if ingest is not None:
        report.ingest = result.rank_results[nprocs - 1]
    return report


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def serve(
    store_dir: str | os.PathLike,
    scripts: list[ClientScript],
    config: Optional[BrokerConfig] = None,
    machine: Optional[MachineSpec] = None,
    faults=None,
    ingest=None,
    backend: str = "sim",
) -> ServeReport:
    """Run one broker session over a sharded store.

    Spawns ``nshards + 1`` ranks on the deterministic runtime, serves
    every scripted query, and returns the broker's
    :class:`ServeReport` with the run's metrics snapshot attached.
    Under a fault plan the session degrades (partial responses) rather
    than failing: the cluster runs with ``raise_on_failure=False``.

    ``ingest`` (an object with ``run(ctx, store_dir) -> dict``, e.g. an
    :class:`repro.ingest.IngestPlan`) adds one extra driver rank that
    feeds, publishes, and compacts generations while the broker serves;
    its outcome is attached as ``report.ingest``.

    ``backend`` selects the runtime execution backend (``"sim"`` or
    ``"mp"``).  A fault-free session is the same program on both:
    responses, virtual latencies, makespan and the metrics snapshot
    are byte-identical (see the mp backend's determinism contract).

    The store is opened once, here: every rank shares the one model.
    """
    model = load_model(store_dir)
    config = config if config is not None else BrokerConfig()

    def broker(ctx):
        b = _Broker(ctx, model, config, generational=ingest is not None)
        return b.pump(list(scripts))

    roles = [(1, broker), (model.manifest.nshards, shard_service(model))]
    return _launch(
        model, roles, "broker", machine, faults, ingest, backend
    )


def query_store(
    store_dir: str | os.PathLike,
    query: Query,
    config: Optional[BrokerConfig] = None,
    machine: Optional[MachineSpec] = None,
) -> dict:
    """Answer one query against a store (the ``serve-query`` path)."""
    script = ClientScript(client=0, queries=(query,), think_s=(0.0,))
    report = serve(store_dir, [script], config=config, machine=machine)
    return report.responses[0]["response"]
