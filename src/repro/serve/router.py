"""Replicated, multi-broker serving tier on the deterministic runtime.

Topology: ``nprocs = 1 + brokers + workers`` SPMD ranks (plus one
optional ingest-driver rank).  Rank 0 is the front-end *router*: it
assigns every client to a broker by consistent hash (sticky sessions),
ships each broker its script subset, collects the per-broker session
reports, and stops the worker tier.  Ranks ``1..B`` are brokers, each
running the single-copy broker's closed-loop event pump over its own
clients with its own admission queue and result cache.  Ranks
``B+1..B+W`` are replica workers -- the single-copy tier's
:class:`~repro.serve.broker._ShardWorker` handler, told its placement
and run in the blocking service loop over requests from any broker:
worker ``w`` serves *every* shard that
:class:`~repro.serve.replica.ReplicaMap` places on it, for whatever
epoch a request pins.  Replicas of a shard resolve the identical
per-epoch segment list through the same
:func:`~repro.serve.broker.execute_shard_op` code path, so any copy
answers bit-identically at every epoch -- which is what lets a broker
fail over mid-query without perturbing a single response byte.

Failure handling replaces flagged degradation with failover:

- ``RankFailedError`` during a fan-out marks the dead workers DOWN
  (permanently) and re-sends each orphaned shard request to the next
  live replica in ring order, after a seeded jittered backoff in
  virtual time.
- A silent shard (``CommTimeoutError`` after ``hedge_delay_s``) gets a
  *hedged* duplicate request on the next replica; the first answer
  wins and stragglers are drained by query id.  The silent worker is
  marked SUSPECT for :data:`PROBATION_S` virtual seconds and
  deprioritized.
- Only when a shard has no replica left does the broker drop it and
  flag the response partial -- with ``replicas=1`` this reduces
  exactly to the single-copy tier's flagged-degradation behavior.

Overload protection: admission is by priority class (priority ``p``
admits while the in-flight depth is below ``max_inflight / 2**p``), so
as a broker saturates it sheds its lowest classes first.  Shed queries
surface as typed :class:`ShedResponse` records in the report -- never
as silently inflated latency -- and count into the ``serve.shed``
metric by class.

Every response still carries no timing fields, so the merged, (client,
seq)-sorted response list remains the byte-compare oracle: identical
across broker counts, replica counts, scheduler mechanisms, and -- with
``replicas >= 2`` -- identical with and without a worker crash.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Optional

import numpy as np

from repro.runtime.cluster import MachineSpec
from repro.runtime.errors import CommTimeoutError, RankFailedError
from repro.runtime.service import serve_loop
from repro.serve.broker import (
    DEFAULT_BATCH,
    RETRIES,
    TAG_REQ,
    TAG_RESP,
    SessionReport,
    _Broker,
    _launch,
    _ShardWorker,
)
from repro.serve.replica import ReplicaHealth, ReplicaMap, stable_hash
from repro.serve.store import ServeModel, load_model
from repro.serve.workload import ClientScript

TAG_SCRIPTS = 104
TAG_REPORT = 105

#: modelled router-side routing cost per client script (abstract ops)
_ROUTE_OPS = 50

#: placement, client-routing and backoff-jitter seed
SEED = 0
#: base of the jittered failover/retry backoff (virtual seconds)
RETRY_JITTER_S = 0.05
#: how long a timeout keeps a worker SUSPECT (virtual seconds)
PROBATION_S = 10.0


@dataclass(frozen=True)
class RouterConfig:
    """Policy knobs of one replicated serving session."""

    #: broker ranks fronting the worker tier
    brokers: int = 2
    #: worker ranks; 0 means ``max(nshards, replicas)``
    workers: int = 0
    #: replicas per shard; 0 means the store manifest's ``replication``
    replicas: int = 0
    #: virtual seconds before a silent shard gets a hedged duplicate
    hedge_delay_s: float = 1.0
    #: virtual seconds a post-hedge round waits before retrying
    shard_timeout_s: float = 5.0
    #: per-broker in-flight depth admitting priority-0 queries
    max_inflight: int = 8
    #: per-broker LRU result-cache capacity; 0 disables caching
    cache_capacity: int = 128
    #: max already-arrived queries, of any kind, drained into one
    #: shard round-trip; 1 sends one query per round
    batch_max_queries: int = DEFAULT_BATCH

    def __post_init__(self) -> None:
        for name in ("brokers", "max_inflight", "batch_max_queries"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("workers", "replicas", "cache_capacity"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("hedge_delay_s", "shard_timeout_s"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")


@dataclass(frozen=True)
class ShedResponse:
    """One query turned away by admission control (typed, not silent)."""

    client: int
    seq: int
    kind: str
    priority: int
    broker: int
    depth: int


@dataclass
class TierReport(SessionReport):
    """Outcome of one replicated-tier session over a workload."""

    shed: list[ShedResponse]
    failed_ranks: list[int]
    makespan: float
    replica_map: dict
    brokers: int
    workers: int
    failovers: int = 0
    hedges: int = 0
    suspicions: int = 0
    #: final worker health by state ("up" lists only ever-suspected ones)
    health: dict = field(default_factory=dict)
    metrics: dict = field(repr=False, default_factory=dict)
    generations: dict = field(default_factory=dict)
    per_broker: list = field(default_factory=list)
    ingest: Optional[dict] = None

    @property
    def shed_rate(self) -> float:
        total = self.served + len(self.shed)
        return len(self.shed) / total if total else 0.0


def broker_of_client(client: int, brokers: int, seed: int = 0) -> int:
    """Sticky client->broker assignment (pure hash, scheduler-free)."""
    return stable_hash(f"{seed}/client-{client}") % brokers


def _await(ctx, src: int, tag: int):
    """Receive from a peer that is busy, not dead: outwait timeouts."""
    while True:
        try:
            return ctx.comm.recv(src, tag=tag)
        except CommTimeoutError:
            continue


def _tier_requests(ctx, n_brokers: int):
    """A replica worker's requests, as ``(src, request)``: from the
    router or any live broker, until the router is seen dead."""
    sources = list(range(n_brokers + 1))  # router + brokers
    while True:
        try:
            yield ctx.comm.recv_any(sources=sources, tag=TAG_REQ)
        except CommTimeoutError:
            if 0 in ctx.failed_ranks():
                return
        except RankFailedError as exc:
            if 0 in exc.failed:
                return
            sources = [r for r in sources if r not in set(exc.failed)]


# ----------------------------------------------------------------------
# broker rank (tier flavour)
# ----------------------------------------------------------------------
class _TierBroker(_Broker):
    """A broker pumping its client subset against replica workers.

    Inherits the closed-loop pump, the per-epoch cache, the hot-reload
    dance, and every operator; overrides the fan-out (replica choice,
    failover, hedging), admission (priority shedding), and shutdown
    (the router owns the workers' lifecycle).
    """

    def __init__(self, ctx, model: ServeModel, config: RouterConfig,
                 rmap: ReplicaMap, generational: bool):
        super().__init__(ctx, model, config, generational=generational)
        self.rmap = rmap
        self.broker_idx = ctx.rank - 1
        self.worker_base = 1 + config.brokers
        self.health = ReplicaHealth(probation_s=PROBATION_S)
        self.rng = np.random.default_rng((SEED, ctx.rank))
        self.n_failover = 0
        self.n_hedge = 0
        m = ctx.metrics
        self.c_shed = m.counter("serve.shed", ("priority",))
        self.c_failover = m.counter("serve.failover")
        self.c_hedge = m.counter("serve.hedge")
        self.c_suspect = m.counter("serve.replica.suspect")
        self.c_down = m.counter("serve.replica.down")

    # -- replica health ------------------------------------------------
    def _mark_down(self, worker: int) -> None:
        if not self.health.is_down(worker):
            self.health.mark_down(worker)
            self.c_down.inc(self.mrank)

    def _refresh_live(self) -> None:
        """A shard is live while any replica of it is not DOWN."""
        self.live = [
            s
            for s in range(self.nshards)
            if any(
                not self.health.is_down(w)
                for w in self.rmap.workers_for(s)
            )
        ]

    def _observe_failures(self) -> None:
        """Fold the runtime failure detector into replica health."""
        changed = False
        for r in self.ctx.failed_ranks():
            w = r - self.worker_base
            if 0 <= w < len(self.rmap.workers) and not self.health.is_down(w):
                self._mark_down(w)
                changed = True
        if changed:
            self._refresh_live()

    def _next_replica(
        self, shard: int, tried: list[int], now: float
    ) -> Optional[int]:
        for w in self.health.preference(self.rmap.workers_for(shard), now):
            if w not in tried:
                return w
        return None

    def _jitter(self, attempt: int) -> None:
        """Charge a seeded, jittered backoff before a re-send."""
        base = RETRY_JITTER_S * max(1, attempt)
        self.ctx.charge(base * float(self.rng.uniform(0.5, 1.5)))

    # -- replica-aware fan-out -----------------------------------------
    def _fanout(
        self, targets: list[int], ops: tuple, epoch: Optional[int] = None
    ) -> tuple[dict[int, list], list[int]]:
        ctx, cfg = self.ctx, self.config
        self.qid += 1
        qid = self.qid
        epoch = self.epoch if epoch is None else epoch
        self._observe_failures()
        outstanding: dict[int, set[int]] = {}
        tried: dict[int, list[int]] = {}

        def _post(shard: int, worker: int) -> None:
            ctx.comm.send(
                self.worker_base + worker,
                (qid, epoch, shard, ops),
                tag=TAG_REQ,
            )

        def _send(shard: int, worker: int) -> None:
            _post(shard, worker)
            outstanding.setdefault(shard, set()).add(worker)
            tried.setdefault(shard, []).append(worker)

        for s in targets:
            prefs = self.health.preference(
                self.rmap.workers_for(s), ctx.now
            )
            if not prefs:
                continue  # no live replica: dropped below
            # deterministic spread: rotate the preferred replica by
            # query id and broker index so load shares across copies
            _send(s, prefs[(qid + self.broker_idx) % len(prefs)])
        pending = set(outstanding)
        got: dict[int, list] = {}
        hedged = False
        resends = 0
        while pending:
            srcs = sorted(
                {self.worker_base + w for s in pending for w in outstanding[s]}
            )
            timeout = cfg.shard_timeout_s if hedged else cfg.hedge_delay_s
            try:
                src, msg = ctx.comm.recv_any(
                    sources=srcs, tag=TAG_RESP, timeout=timeout
                )
            except RankFailedError as exc:
                dead = sorted(
                    r - self.worker_base
                    for r in exc.failed
                    if r >= self.worker_base
                )
                for w in dead:
                    self._mark_down(w)
                self._refresh_live()
                for s in sorted(pending):
                    outstanding[s] -= set(dead)
                    if outstanding[s]:
                        continue
                    nxt = self._next_replica(s, tried[s], ctx.now)
                    if nxt is None:
                        pending.discard(s)  # no replica left: drop
                        continue
                    self.n_failover += 1
                    self.c_failover.inc(self.mrank)
                    self._jitter(len(tried[s]))
                    _send(s, nxt)
                continue
            except CommTimeoutError:
                if not hedged:
                    # silent shards get one hedged duplicate on the
                    # next replica; the silent copy turns SUSPECT
                    hedged = True
                    for s in sorted(pending):
                        for w in sorted(outstanding[s]):
                            if self.health.state(w, ctx.now) != "suspect":
                                self.health.mark_suspect(w, ctx.now)
                                self.c_suspect.inc(self.mrank)
                        nxt = self._next_replica(s, tried[s], ctx.now)
                        if nxt is not None:
                            self.n_hedge += 1
                            self.c_hedge.inc(self.mrank)
                            _send(s, nxt)
                    continue
                if resends < RETRIES:
                    resends += 1
                    self._jitter(resends)
                    for s in sorted(pending):
                        for w in sorted(outstanding[s]):
                            _post(s, w)
                    continue
                break  # drop whatever is still silent
            rqid, shard, payloads = msg
            if rqid != qid or shard not in pending:
                continue  # stale or already-hedged duplicate
            got[shard] = payloads
            pending.discard(shard)
        dropped = sorted(set(targets) - set(got))
        return got, dropped

    # -- priority admission --------------------------------------------
    def _admit(self, script: ClientScript, depth: int) -> bool:
        """Class ``p`` admits below ``max_inflight / 2**p`` in-flight.

        Priority 0 is the highest class; as depth grows the lowest
        classes (largest ``p``) shed first, deterministically.
        """
        return depth < max(
            1, self.config.max_inflight // (2**script.priority)
        )

    def _on_reject(self, script, seq, query, depth, rejected):
        self.c_shed.inc(self.mrank, key=(str(script.priority),))
        rejected.append(
            ShedResponse(
                client=script.client,
                seq=seq,
                kind=query.kind,
                priority=script.priority,
                broker=self.broker_idx,
                depth=depth,
            )
        )

    # -- lifecycle -----------------------------------------------------
    def _shutdown(self) -> None:
        """The router owns the workers; brokers stop nothing."""

    def _session(self, loop) -> dict:
        """This broker's part of the tier report, as it travels to the
        router: the fields every handler's part shares."""
        return {
            "broker": self.broker_idx,
            "responses": loop.responses,
            "latencies": loop.latencies,
            "gen_stats": self.gen_stats,
            "makespan": self.ctx.now,
        }

    def _report(self, loop) -> dict:
        return dict(
            self._session(loop),
            shed=loop.rejected,
            failovers=self.n_failover,
            hedges=self.n_hedge,
            suspicions=self.health.suspicions,
            health=self.health.snapshot(self.ctx.now),
            live=list(self.live),
        )

    def run(self, handler=None) -> dict:
        """Pump the script subset the router assigns; report back."""
        scripts = _await(self.ctx, 0, TAG_SCRIPTS)
        report = self.pump(list(scripts), handler)
        self.ctx.comm.send(0, report, tag=TAG_REPORT)
        return report


# ----------------------------------------------------------------------
# router rank
# ----------------------------------------------------------------------
def _router_rank(
    ctx, scripts, cfg: RouterConfig, ident: tuple, finish: Callable
):
    """Route the scripts, collect the brokers' parts, stop the
    workers, and merge: ``finish(parts, order, session)`` builds the
    report from the live parts, the merge order ``ident + ("seq",)``,
    and the session fields every tier report shares."""
    nbrokers = cfg.brokers
    assign: dict[int, list] = {b: [] for b in range(nbrokers)}
    # sticky routing on who the script belongs to: a client's cached
    # results -- a tenant's quota and artifact state -- live on
    # exactly one broker
    for script in scripts:
        owner = getattr(script, ident[0])
        assign[broker_of_client(owner, nbrokers, SEED)].append(script)
    for b in range(nbrokers):
        ctx.charge_cpu(_ROUTE_OPS * max(1, len(assign[b])))
        ctx.comm.send(1 + b, tuple(assign[b]), tag=TAG_SCRIPTS)
    parts: list[dict] = []
    for b in range(nbrokers):
        try:
            parts.append(_await(ctx, 1 + b, TAG_REPORT))
        except RankFailedError:
            pass  # a crashed broker contributes no part
    dead = set(ctx.failed_ranks())
    for w in range(cfg.workers):
        rank = 1 + nbrokers + w
        if rank not in dead:
            ctx.comm.send(rank, ("stop",), tag=TAG_REQ)
    order = ident + ("seq",)
    indexed: list[tuple[tuple, dict, float]] = []
    for part in parts:
        for resp, lat in zip(part["responses"], part["latencies"]):
            resp = dict(resp, broker=part["broker"])
            indexed.append((tuple(resp[f] for f in order), resp, lat))
    indexed.sort(key=lambda t: t[0])
    generations: dict[int, dict] = {}
    for part in parts:
        for g, stats in part["gen_stats"].items():
            agg = generations.setdefault(
                g,
                {"queries": 0, "first_virtual_s": stats["first_virtual_s"]},
            )
            agg["queries"] += stats["queries"]
            agg["first_virtual_s"] = min(
                agg["first_virtual_s"], stats["first_virtual_s"]
            )
    session = {
        "responses": [r for _, r, _ in indexed],
        "latencies": [lat for _, _, lat in indexed],
        "failed_ranks": sorted(dead),
        "makespan": max((p["makespan"] for p in parts), default=ctx.now),
        "generations": generations,
    }
    return finish(parts, order, session)


def merged_rejects(parts: list[dict], field: str, order: tuple) -> list:
    """Every part's typed turn-aways, in merge order."""
    return sorted(
        (r for part in parts for r in part[field]),
        key=lambda r: tuple(getattr(r, f) for f in order),
    )


def _tier_report(
    cfg: RouterConfig, rmap: ReplicaMap, parts, order, session
) -> TierReport:
    health: dict[str, list[int]] = {"up": [], "suspect": [], "down": []}
    rank_of = {"up": 0, "suspect": 1, "down": 2}
    worst: dict[int, str] = {}
    for part in parts:
        for state, workers in part["health"].items():
            for w in workers:
                worst[w] = max(worst.get(w, state), state, key=rank_of.get)
    for w in sorted(worst):
        health[worst[w]].append(w)
    return TierReport(
        shed=merged_rejects(parts, "shed", order),
        replica_map=rmap.to_dict(),
        brokers=cfg.brokers,
        workers=cfg.workers,
        failovers=sum(part["failovers"] for part in parts),
        hedges=sum(part["hedges"] for part in parts),
        suspicions=sum(part["suspicions"] for part in parts),
        health=health,
        per_broker=[
            {
                "broker": part["broker"],
                "served": len(part["responses"]),
                "shed": len(part["shed"]),
                "failovers": part["failovers"],
                "hedges": part["hedges"],
                "makespan": part["makespan"],
            }
            for part in parts
        ],
        **session,
    )


def tier_roles(
    model: ServeModel,
    config: Optional[RouterConfig],
    router: Callable,
    broker: Callable,
) -> list[tuple[int, Callable]]:
    """Rank layout of one replicated session: router, brokers, workers.

    Resolves the config's store-dependent defaults from the opened
    store and places ``replicas`` copies of every shard by consistent
    hashing; ``router(ctx, cfg, rmap)`` and ``broker(ctx, cfg, rmap)``
    are the front ranks' roles, handed the resolved config and the
    placement.  Every worker shares ``model``.
    """
    manifest = model.manifest
    cfg = config if config is not None else RouterConfig()
    replicas = cfg.replicas or max(1, manifest.replication)
    workers = cfg.workers or max(manifest.nshards, replicas)
    cfg = replace(cfg, replicas=replicas, workers=workers)
    rmap = ReplicaMap.place(manifest.nshards, replicas, workers, seed=SEED)

    def worker(ctx):
        handler = _ShardWorker(ctx, model, rmap, cfg.brokers).start()
        return serve_loop(ctx, handler, _tier_requests(ctx, cfg.brokers))

    return [
        (1, lambda ctx: router(ctx, cfg, rmap)),
        (cfg.brokers, lambda ctx: broker(ctx, cfg, rmap)),
        (workers, worker),
    ]


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def serve_replicated(
    store_dir: str | os.PathLike,
    scripts: list[ClientScript],
    config: Optional[RouterConfig] = None,
    machine: Optional[MachineSpec] = None,
    faults=None,
    ingest=None,
) -> TierReport:
    """Run one replicated-tier session over a sharded store.

    Spawns ``1 + brokers + workers`` ranks (plus one when ``ingest``
    is given), places ``replicas`` copies of every shard by consistent
    hashing, serves every scripted query through the broker tier, and
    returns the router's merged :class:`TierReport` with the run's
    metrics snapshot attached.  Worker crashes under a fault plan fail
    over to surviving replicas; the cluster runs with
    ``raise_on_failure=False``.
    """
    model = load_model(store_dir)

    def router(ctx, cfg, rmap):
        finish = partial(_tier_report, cfg, rmap)
        return _router_rank(ctx, scripts, cfg, _TierBroker.ident, finish)

    def broker(ctx, cfg, rmap):
        return _TierBroker(
            ctx, model, cfg, rmap, generational=ingest is not None
        ).run()

    roles = tier_roles(model, config, router, broker)
    return _launch(model, roles, "router", machine, faults, ingest)
