"""Deterministic per-rank runtime metrics (counters, gauges, histograms).

The paper's contribution is *measured* scaling behaviour: per-component
times, the communication cost of the distributed hashmap and task
queue, and the load balance across processors (IPPS 2007 §4.2).  This
module is the first-class measurement substrate behind those numbers: a
:class:`MetricsRegistry` is created per simulated run (one per
:class:`~repro.runtime.world.World`) and threaded through the runtime
and the Global Arrays layer, which record

* per-(src, dst) point-to-point messages and bytes (``comm.p2p.*``),
* per-collective-operation call and byte totals (``comm.coll.*``),
* ARMCI-style RPC and one-sided transfer volumes (``comm.rpc.*``,
  ``comm.onesided.*``),
* hashmap RPC locality and retries (``hashmap.*``),
* task-queue chunks claimed and lease reclamations (``taskq.*``),
* per-rank blocked time (``sched.*``), and
* per-stage counter deltas plus busy/blocked seconds (captured by
  :meth:`repro.runtime.context.RankContext.region`).

Determinism contract
--------------------
Recording a metric **never charges virtual time** and never consults
wall-clock time or random state: every recorded value is a pure
function of the deterministic simulation (virtual clocks, payload
sizes, operation counts).  Because every recording site runs while its
rank holds the scheduler turn (or touches only rank-private state), the
registry's contents -- and the canonical JSON produced by
:meth:`MetricsRegistry.snapshot` -- are bit-identical across repeated
runs at a fixed seed and across the fast-path and
``REPRO_SCHED_SLOWPATH=1`` scheduler mechanisms.  That makes the
snapshot a cheap determinism oracle: CI diffs two JSON documents
instead of parsing full Chrome traces.

Snapshot schema
---------------
:meth:`MetricsRegistry.snapshot` returns a JSON-native dict versioned
by ``schema`` (currently ``"repro-metrics/1"``); see
:func:`validate_snapshot`.  :func:`to_prometheus` renders the
Prometheus text exposition format for scraping.

Text report
-----------
:func:`render_report` (the ``metrics-report`` command) walks the
:data:`SECTIONS` table: one ``(title, gate, rows)`` row per section,
each built from :func:`_sum`, the one counter aggregation.  A new
section is one more table row.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from typing import Any, Optional, Sequence

#: snapshot schema identifier; bump when the layout changes shape
SCHEMA = "repro-metrics/1"

#: virtual-seconds bucket upper bounds for blocked-time histograms
#: (log-spaced; the implicit final bucket is +Inf)
BLOCK_SECONDS_BOUNDS: tuple[float, ...] = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0,
)

_KINDS = ("counter", "gauge", "histogram")


class MetricsSchemaError(ValueError):
    """A metrics snapshot has an unknown or incompatible schema."""


def _norm_label(v: Any):
    """Normalize a label value to a JSON-native str/int/float."""
    if isinstance(v, str):
        return v
    try:
        return operator.index(v)  # ints incl. numpy integers
    except TypeError:
        return float(v)


class MetricFamily:
    """One named metric with fixed label names and per-rank values.

    Values are keyed by the tuple of label values; label tuples within
    a family must be homogeneous in type so the snapshot ordering is
    well-defined.  Counter and gauge values are floats; histogram
    values are ``[bucket_counts, sum, count]`` records.
    """

    __slots__ = ("name", "kind", "label_names", "bounds", "per_rank")

    def __init__(
        self,
        name: str,
        kind: str,
        nprocs: int,
        label_names: tuple[str, ...] = (),
        bounds: Optional[tuple[float, ...]] = None,
    ):
        if kind not in _KINDS:
            raise ValueError(f"unknown metric kind {kind!r}")
        self.name = name
        self.kind = kind
        self.label_names = tuple(label_names)
        self.bounds = tuple(bounds) if bounds is not None else None
        self.per_rank: list[dict] = [{} for _ in range(nprocs)]

    def inc(self, rank: int, value: float = 1.0, key: tuple = ()) -> None:
        """Add ``value`` to the counter at ``key`` on ``rank``."""
        d = self.per_rank[rank]
        d[key] = d.get(key, 0.0) + value

    def set(self, rank: int, value: float, key: tuple = ()) -> None:
        """Set the gauge at ``key`` on ``rank``."""
        self.per_rank[rank][key] = float(value)

    def observe(self, rank: int, value: float, key: tuple = ()) -> None:
        """Record one sample into the histogram at ``key`` on ``rank``."""
        d = self.per_rank[rank]
        rec = d.get(key)
        if rec is None:
            rec = d[key] = [[0] * (len(self.bounds) + 1), 0.0, 0]
        rec[0][bisect_left(self.bounds, value)] += 1
        rec[1] += value
        rec[2] += 1


class MetricsRegistry:
    """All metric families of one simulated run, plus stage captures."""

    def __init__(self, nprocs: int):
        self.nprocs = nprocs
        self._families: dict[str, MetricFamily] = {}
        #: stage name -> {"seconds": [per rank], "blocked_seconds":
        #: [per rank], "counters": {name: {(rank, key): delta}}}
        self._stages: dict[str, dict] = {}

    # ------------------------------------------------------------------
    # family registration (idempotent; shape-checked)
    # ------------------------------------------------------------------
    def _family(
        self,
        name: str,
        kind: str,
        label_names: Sequence[str],
        bounds: Optional[Sequence[float]] = None,
    ) -> MetricFamily:
        fam = self._families.get(name)
        if fam is None:
            fam = MetricFamily(
                name, kind, self.nprocs, tuple(label_names),
                tuple(bounds) if bounds is not None else None,
            )
            self._families[name] = fam
            return fam
        if fam.kind != kind or fam.label_names != tuple(label_names):
            raise ValueError(
                f"metric {name!r} re-registered as {kind}{tuple(label_names)} "
                f"but exists as {fam.kind}{fam.label_names}"
            )
        return fam

    def counter(self, name: str, label_names: Sequence[str] = ()) -> MetricFamily:
        return self._family(name, "counter", label_names)

    def gauge(self, name: str, label_names: Sequence[str] = ()) -> MetricFamily:
        return self._family(name, "gauge", label_names)

    def histogram(
        self,
        name: str,
        bounds: Sequence[float] = BLOCK_SECONDS_BOUNDS,
        label_names: Sequence[str] = (),
    ) -> MetricFamily:
        return self._family(name, "histogram", label_names, bounds)

    # ------------------------------------------------------------------
    # per-stage capture (used by RankContext.region)
    # ------------------------------------------------------------------
    def rank_totals(self, rank: int) -> dict[tuple, float]:
        """Flat ``(family, key) -> value`` view of one rank's counters."""
        out: dict[tuple, float] = {}
        for name, fam in self._families.items():
            if fam.kind != "counter":
                continue
            for key, value in fam.per_rank[rank].items():
                out[(name, key)] = value
        return out

    def rank_deltas(
        self, rank: int, before: dict[tuple, float]
    ) -> dict[tuple, float]:
        """Counter movement on ``rank`` since a :meth:`rank_totals` call."""
        out: dict[tuple, float] = {}
        for k, v in self.rank_totals(rank).items():
            d = v - before.get(k, 0.0)
            if d != 0.0:
                out[k] = d
        return out

    def record_stage(
        self,
        stage: str,
        rank: int,
        seconds: float,
        blocked_seconds: float,
        deltas: dict[tuple, float],
    ) -> None:
        """Accumulate one rank's traversal of a named stage region."""
        st = self._stages.get(stage)
        if st is None:
            st = self._stages[stage] = {
                "seconds": [0.0] * self.nprocs,
                "blocked_seconds": [0.0] * self.nprocs,
                "counters": {},
            }
        st["seconds"][rank] += seconds
        st["blocked_seconds"][rank] += blocked_seconds
        counters = st["counters"]
        for (name, key), v in deltas.items():
            d = counters.setdefault(name, {})
            rk = (rank, key)
            d[rk] = d.get(rk, 0.0) + v

    # ------------------------------------------------------------------
    # snapshot
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """The run's metrics as a canonical, JSON-native document.

        Deterministic: values appear sorted by ``(rank, label key)``
        and families by name, so ``json.dumps(snapshot, sort_keys=True)``
        is a byte-stable digest of the run's measured behaviour.
        """
        counters: dict[str, dict] = {}
        gauges: dict[str, dict] = {}
        histograms: dict[str, dict] = {}
        for name in sorted(self._families):
            fam = self._families[name]
            values = []
            for rank, d in enumerate(fam.per_rank):
                for key, value in d.items():
                    entry = {
                        "rank": rank,
                        "key": [_norm_label(v) for v in key],
                    }
                    if fam.kind == "histogram":
                        entry["counts"] = list(value[0])
                        entry["sum"] = float(value[1])
                        entry["count"] = int(value[2])
                    else:
                        entry["value"] = float(value)
                    values.append(entry)
            values.sort(key=lambda e: (e["rank"], e["key"]))
            doc = {"labels": list(fam.label_names), "values": values}
            if fam.kind == "counter":
                counters[name] = doc
            elif fam.kind == "gauge":
                gauges[name] = doc
            else:
                doc["bounds"] = list(fam.bounds)
                histograms[name] = doc
        stages: dict[str, dict] = {}
        for stage in sorted(self._stages):
            st = self._stages[stage]
            stage_counters: dict[str, dict] = {}
            for name in sorted(st["counters"]):
                values = [
                    {
                        "rank": rank,
                        "key": [_norm_label(v) for v in key],
                        "value": float(v),
                    }
                    for (rank, key), v in st["counters"][name].items()
                ]
                values.sort(key=lambda e: (e["rank"], e["key"]))
                stage_counters[name] = {"values": values}
            stages[stage] = {
                "seconds": [float(s) for s in st["seconds"]],
                "blocked_seconds": [
                    float(s) for s in st["blocked_seconds"]
                ],
                "counters": stage_counters,
            }
        return {
            "schema": SCHEMA,
            "nprocs": self.nprocs,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "stages": stages,
        }


# ----------------------------------------------------------------------
# snapshot-level operations
# ----------------------------------------------------------------------
def validate_snapshot(snap: dict) -> dict:
    """Check a snapshot's schema; returns it unchanged.

    Raises :class:`MetricsSchemaError` on an unknown schema version or
    a structurally foreign document, so readers fail loudly instead of
    silently misinterpreting a future layout.
    """
    if not isinstance(snap, dict):
        raise MetricsSchemaError(
            f"metrics snapshot must be a dict, got {type(snap).__name__}"
        )
    schema = snap.get("schema")
    if schema != SCHEMA:
        raise MetricsSchemaError(
            f"unsupported metrics schema {schema!r} (expected {SCHEMA!r})"
        )
    for section in ("nprocs", "counters", "gauges", "histograms", "stages"):
        if section not in snap:
            raise MetricsSchemaError(f"snapshot missing {section!r}")
    return snap


def _sum(snap: dict, name: str, by: tuple[int, ...] = ()):
    """A counter family's total over all ranks and label keys.

    Given label positions ``by``, the family's sums per label tuple
    instead (labels as strings, in first-seen order).  An absent
    family sums to ``0.0`` (or ``{}``).
    """
    doc = snap["counters"].get(name)
    values = doc["values"] if doc else ()
    if not by:
        return float(sum(e["value"] for e in values))
    out: dict[tuple, float] = {}
    for e in values:
        k = tuple(str(e["key"][i]) for i in by)
        out[k] = out.get(k, 0.0) + float(e["value"])
    return out


def counter_totals(snap: dict) -> dict[str, float]:
    """Each counter family's total over all ranks and label keys."""
    return {name: _sum(snap, name) for name in snap["counters"]}


# ----------------------------------------------------------------------
# derived reports
# ----------------------------------------------------------------------
def comm_matrix(snap: dict, metric: str = "bytes"):
    """The P x P communication matrix ``M[src, dst]``.

    ``metric="bytes"`` aggregates point-to-point payload bytes, RPC
    request/response bytes, and one-sided transfer bytes; the diagonal
    is rank-local volume (self-sends, local one-sided windows).
    ``metric="messages"`` counts p2p messages and RPC calls.  Each
    transfer is attributed once, in its direction of data flow.
    """
    import numpy as np

    p = int(snap["nprocs"])
    m = np.zeros((p, p))
    counters = snap["counters"]

    def entries(name):
        doc = counters.get(name)
        return doc["values"] if doc else ()

    if metric == "bytes":
        for e in entries("comm.p2p.bytes"):
            peer, direction = e["key"]
            if direction == "sent":
                m[e["rank"], int(peer)] += e["value"]
        for e in entries("comm.rpc.bytes"):
            peer, direction = e["key"]
            if direction == "out":
                m[e["rank"], int(peer)] += e["value"]
            else:  # response bytes flow peer -> caller
                m[int(peer), e["rank"]] += e["value"]
        for e in entries("comm.onesided.bytes"):
            peer, direction = e["key"]
            if direction == "get":  # data flows owner -> caller
                m[int(peer), e["rank"]] += e["value"]
            else:
                m[e["rank"], int(peer)] += e["value"]
    elif metric == "messages":
        for e in entries("comm.p2p.messages"):
            peer, direction = e["key"]
            if direction == "sent":
                m[e["rank"], int(peer)] += e["value"]
        for e in entries("comm.rpc.calls"):
            m[e["rank"], int(e["key"][0])] += e["value"]
    else:
        raise ValueError(f"unknown comm matrix metric {metric!r}")
    return m


def stage_imbalance(snap: dict) -> dict[str, dict[str, float]]:
    """Per-stage busy-time statistics and load-imbalance factor.

    Busy time is the virtual time a rank spent inside the stage region
    minus the time it sat blocked (waiting on messages, collectives, or
    wakes) there.  The imbalance factor ``max(busy) / mean(busy)`` is
    1.0 for a perfectly balanced stage -- the quantity behind the
    paper's dynamic-load-balancing claim (Fig. 9).
    """
    out: dict[str, dict[str, float]] = {}
    for stage, st in snap["stages"].items():
        busy = [
            s - b
            for s, b in zip(st["seconds"], st["blocked_seconds"])
        ]
        mean = sum(busy) / len(busy) if busy else 0.0
        peak = max(busy) if busy else 0.0
        out[stage] = {
            "max_busy": peak,
            "mean_busy": mean,
            "imbalance": (peak / mean) if mean > 0 else 1.0,
        }
    return out


def _fmt_bytes(n: float) -> str:
    for unit in ("B", "KB", "MB", "GB", "TB"):
        if abs(n) < 1024.0 or unit == "TB":
            return (
                f"{n:.0f}{unit}" if unit == "B" else f"{n:.2f}{unit}"
            )
        n /= 1024.0
    return f"{n:.2f}TB"  # pragma: no cover - unreachable


def _names(*sums: dict) -> list[str]:
    """The sorted first labels of some per-label :func:`_sum` dicts."""
    return sorted({k[0] for by in sums for k in by})


def _mix(by: dict, prefix: str = "") -> str:
    """``label=count`` pairs of a one-label :func:`_sum` breakdown."""
    return ", ".join(f"{prefix}{k}={by[(k,)]:.0f}" for k in _names(by))


def _per_shard(by: dict, fmt) -> str:
    shards = sorted(by, key=lambda k: int(k[0]))
    return ", ".join(f"shard {k[0]}: {fmt(by[k])}" for k in shards)


def _table(header: str, rows: list[str]) -> list[str]:
    return [header, *rows] if rows else []


def _comm_rows(snap: dict) -> list[str]:
    m = comm_matrix(snap, "bytes")
    width = max(
        9, max((len(_fmt_bytes(v)) for row in m for v in row), default=9)
    )
    lines = [
        "  src\\dst "
        + "".join(f"{d:>{width + 1}}" for d in range(len(m)))
    ]
    for src, row in enumerate(m):
        cells = "".join(f" {_fmt_bytes(v):>{width}}" for v in row)
        lines.append(f"  {src:>7} {cells}")
    total = float(m.sum())
    off_diag = _fmt_bytes(total - float(m.trace()))
    return lines + [f"  total {_fmt_bytes(total)} ({off_diag} cross-rank)"]


def _collective_rows(snap: dict) -> list[str]:
    calls = _sum(snap, "comm.coll.calls", (0,))
    nbytes = _sum(snap, "comm.coll.bytes", (0,))
    return _table(
        f"  {'kind':<12} {'calls':>8} {'bytes':>12}",
        [
            f"  {k:<12} {calls.get((k,), 0.0):>8.0f} "
            f"{_fmt_bytes(nbytes.get((k,), 0.0)):>12}"
            for k in _names(calls, nbytes)
        ],
    )


def _stage_rows(snap: dict) -> list[str]:
    return _table(
        f"  {'stage':<14} {'max busy':>10} {'mean busy':>10} "
        f"{'imbalance':>10}",
        [
            f"  {stage:<14} {s['max_busy']:>10.4f} "
            f"{s['mean_busy']:>10.4f} {s['imbalance']:>9.3f}x"
            for stage, s in sorted(stage_imbalance(snap).items())
        ],
    )


def _hashmap_rows(snap: dict) -> list[str]:
    ops = _sum(snap, "hashmap.ops", (0, 1))
    retries = _sum(snap, "hashmap.rpc_retries", (0,))
    lines = []
    for name in _names(ops, retries):
        local = ops.get((name, "local"), 0.0)
        remote = ops.get((name, "remote"), 0.0)
        total = local + remote
        lines.append(
            f"  {name}: {local:.0f} local / {remote:.0f} remote "
            f"({local / total if total else 0.0:.1%} local), "
            f"{retries.get((name,), 0.0):.0f} retries"
        )
    return lines


def _taskqueue_rows(snap: dict) -> list[str]:
    chunks = _sum(snap, "taskq.chunks", (0, 1))
    tasks = _sum(snap, "taskq.tasks", (0,))
    reclaims = _sum(snap, "taskq.lease_reclaims", (0,))
    return [
        f"  {q}: {chunks.get((q, 'own'), 0.0):.0f} own + "
        f"{chunks.get((q, 'stolen'), 0.0):.0f} stolen chunks "
        f"({tasks.get((q,), 0.0):.0f} tasks), "
        f"{reclaims.get((q,), 0.0):.0f} lease reclaims"
        for q in _names(chunks, tasks, reclaims)
    ]


def _serving_rows(snap: dict) -> list[str]:
    kinds = _sum(snap, "serve.queries", (0,))
    hit = _sum(snap, "serve.cache.hit")
    miss = _sum(snap, "serve.cache.miss")
    lines = [
        f"  queries: {sum(kinds.values()):.0f} ({_mix(kinds)})",
        f"  cache: {hit:.0f} hits / {miss:.0f} misses "
        f"({hit / (hit + miss) if hit + miss else 0.0:.1%} hit rate), "
        f"{_sum(snap, 'serve.cache.evict'):.0f} evictions",
        f"  admission: {_sum(snap, 'serve.rejected'):.0f} rejected; "
        f"degraded responses: {_sum(snap, 'serve.degraded'):.0f}",
    ]
    # replicated-tier families appear only when the router tier served
    # the session
    if {"serve.shed", "serve.failover"} & snap["counters"].keys():
        shed = _sum(snap, "serve.shed", (0,))
        lines += [
            f"  replica tier: {_sum(snap, 'serve.failover'):.0f} "
            f"failovers, {_sum(snap, 'serve.hedge'):.0f} hedged "
            f"requests; shed: {_sum(snap, 'serve.shed'):.0f}"
            + (f" ({_mix(shed, 'p')})" if shed else ""),
            f"  replica health: {_sum(snap, 'serve.replica.suspect'):.0f}"
            f" suspicions, {_sum(snap, 'serve.replica.down'):.0f} "
            "confirmed down",
        ]
    scanned = _sum(snap, "serve.shard.bytes_scanned", (0,))
    if scanned:
        lines.append(
            f"  bytes scanned: {_per_shard(scanned, _fmt_bytes)}"
        )
    skipped = _sum(snap, "serve.shard.blocks_skipped", (0,))
    n_skipped = _sum(snap, "serve.shard.blocks_skipped")
    if skipped and n_skipped > 0:
        lines.append(
            f"  posting blocks skipped (block-max pruning): "
            f"{n_skipped:.0f} ({_per_shard(skipped, '{:.0f}'.format)})"
        )
    return lines


def _facet_rows(snap: dict) -> list[str]:
    kinds = _sum(snap, "facets.windows", (0,))
    return [
        f"  windows served: {_sum(snap, 'facets.windows'):.0f}"
        + (f" ({_mix(kinds)})" if kinds else ""),
        f"  facet bytes scanned: "
        f"{_fmt_bytes(_sum(snap, 'facets.bytes_scanned'))}; "
        f"emerging-term hits: {_sum(snap, 'facets.emerging_hits'):.0f}",
    ]


def _workbench_rows(snap: dict) -> list[str]:
    verbs = _sum(snap, "workbench.ops", (0,))
    hits = _sum(snap, "workbench.artifact.hit")
    misses = _sum(snap, "workbench.artifact.miss")
    lines = [
        f"  ops: {sum(verbs.values()):.0f} ({_mix(verbs)})",
        f"  sessions: {_sum(snap, 'workbench.sessions.opened'):.0f} "
        f"opened / {_sum(snap, 'workbench.sessions.closed'):.0f} "
        f"closed / {_sum(snap, 'workbench.sessions.evicted'):.0f} "
        f"evicted (TTL); sets saved: "
        f"{_sum(snap, 'workbench.sets.saved'):.0f}",
        f"  artifact cache: {hits:.0f} hits / {misses:.0f} misses "
        f"({hits / (hits + misses) if hits + misses else 0.0:.1%} hit "
        f"rate), {_sum(snap, 'workbench.artifact.evict'):.0f} evictions",
    ]
    rejected = _sum(snap, "workbench.rejected")
    if rejected:
        lines.append(
            f"  quota/contract rejections: {rejected:.0f} "
            f"({_mix(_sum(snap, 'workbench.rejected', (0,)))})"
        )
    return lines


def _ingest_rows(snap: dict) -> list[str]:
    lines = [
        f"  docs ingested: {_sum(snap, 'ingest.docs'):.0f} "
        f"({_sum(snap, 'ingest.null_signatures'):.0f} null signatures)",
        f"  generations published: "
        f"{_sum(snap, 'ingest.generations'):.0f}; "
        f"compactions: {_sum(snap, 'ingest.compactions'):.0f}; "
        f"broker hot-reloads: {_sum(snap, 'ingest.broker.reloads'):.0f}",
    ]
    flags = _sum(snap, "ingest.rebuild_flags")
    if flags:
        lines.append(
            f"  full-model rebuild flagged {flags:.0f} time(s) "
            "(null-signature rate above threshold)"
        )
    return lines


#: The ``metrics-report`` layout in print order: ``(title, gate,
#: rows)``.  A section prints when some counter family's name starts
#: with ``gate`` (``None``: always) and ``rows(snap)`` is non-empty;
#: a new section is one more row here.
SECTIONS = (
    ("communication matrix (bytes moved src -> dst; p2p + RPC + "
     "one-sided; diagonal = rank-local):", None, _comm_rows),
    ("collective operations:", "comm.coll.", _collective_rows),
    ("per-stage load balance (busy = region - blocked virtual "
     "seconds):", None, _stage_rows),
    ("distributed hashmap RPC locality:", "hashmap.", _hashmap_rows),
    ("task queues (dynamic load balancing):", "taskq.", _taskqueue_rows),
    ("serving layer (broker session):", "serve.", _serving_rows),
    ("faceted analytics (window queries):", "facets.", _facet_rows),
    ("workbench tier (analyst sessions):", "workbench.", _workbench_rows),
    ("ingest layer (live generations):", "ingest.", _ingest_rows),
)


def render_report(snap: dict) -> str:
    """Human-readable metrics report (the ``metrics-report`` command).

    One header line, then each of :data:`SECTIONS` whose gate family
    is present and whose rows are non-empty, in table order.
    """
    validate_snapshot(snap)
    lines = [
        f"metrics report (schema {snap['schema']}, "
        f"P={int(snap['nprocs'])})"
    ]
    for title, gate, rows in SECTIONS:
        if gate is not None and not any(
            name.startswith(gate) for name in snap["counters"]
        ):
            continue
        body = rows(snap)
        if body:
            lines += ["", title, *body]
    return "\n".join(lines)


def _prom_name(name: str) -> str:
    return "repro_" + "".join(
        c if c.isalnum() or c == "_" else "_" for c in name
    )


def _prom_labels(rank: int, label_names, key, extra=()) -> str:
    parts = [f'rank="{rank}"']
    parts += [f'{n}="{v}"' for n, v in zip(label_names, key)]
    parts += [f'{n}="{v}"' for n, v in extra]
    return "{" + ",".join(parts) + "}"


def to_prometheus(snap: dict) -> str:
    """Render a snapshot in the Prometheus text exposition format.

    Optional scrape-side integration: pipe this to a file served by
    ``node_exporter``'s textfile collector (or any HTTP endpoint) to
    chart simulated runs with standard dashboards.
    """
    validate_snapshot(snap)
    lines: list[str] = []
    for section, prom_type in (
        ("counters", "counter"), ("gauges", "gauge")
    ):
        for name, doc in snap[section].items():
            pname = _prom_name(name)
            lines.append(f"# TYPE {pname} {prom_type}")
            for e in doc["values"]:
                labels = _prom_labels(e["rank"], doc["labels"], e["key"])
                lines.append(f"{pname}{labels} {e['value']}")
    for name, doc in snap["histograms"].items():
        pname = _prom_name(name)
        lines.append(f"# TYPE {pname} histogram")
        bounds = list(doc["bounds"]) + ["+Inf"]
        for e in doc["values"]:
            cum = 0
            for le, count in zip(bounds, e["counts"]):
                cum += count
                labels = _prom_labels(
                    e["rank"], doc["labels"], e["key"], (("le", le),)
                )
                lines.append(f"{pname}_bucket{labels} {cum}")
            labels = _prom_labels(e["rank"], doc["labels"], e["key"])
            lines.append(f"{pname}_sum{labels} {e['sum']}")
            lines.append(f"{pname}_count{labels} {e['count']}")
    return "\n".join(lines) + "\n"
