"""Workbench ranks speaking the broker protocol.

Topologies:

- :func:`serve_workbench` -- ``nshards + 1`` ranks (plus one optional
  ingest-driver rank): rank 0 is a query broker pumping analyst
  scripts through the workbench layer it is handed, ranks
  ``1..nshards`` are the unchanged shard workers.  Every workbench
  fan-out rides the existing ``TAG_REQ``/``TAG_RESP`` wire protocol,
  pinned to the session's epoch.
- :func:`serve_workbench_replicated` -- ``1 + brokers + workers``
  ranks: rank 0 routes each *tenant* to a sticky workbench broker
  (quota state is broker-local, so a tenant's sessions must share a
  broker), brokers pump their tenant subsets against the replica
  worker tier with the replicated tier's failover/hedging fan-out.
  With ``replicas >= 2`` a worker crash mid-session is masked: every
  response and artifact stays byte-identical to the fault-free run.

Determinism: op handlers do float work only through the shared serving
kernels (merge order via ``topk_score_row``, tf·icf accumulation in
query-term order) and integer work through exact int64 sums that are
associative across shard layouts, so a transcript's canonical bytes
are identical across fastpath/slowpath schedulers, ``sim``/``mp``
backends, shard counts, and replica counts.

Quota and lifecycle: over-quota and post-eviction ops answer with a
typed rejection response (mirrored into ``report.rejected`` as
:class:`~repro.workbench.state.WorkbenchReject`); session state is
never partially mutated.  Idle sessions are evicted by virtual-time
TTL sweeps in sorted session order.  Derived artifacts cache per
tenant under ``(set digest, epoch, op)`` keys and are invalidated only
by generation change (the epoch component), with LRU eviction against
the tenant's byte budget.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import Optional

import numpy as np

from repro.index.termindex import topk_score_row
from repro.runtime.cluster import MachineSpec
from repro.serve.broker import (
    _REJECT_OPS,
    QUERY_OPS,
    BrokerConfig,
    _Broker,
    _launch,
    merge_ranked,
    shard_service,
)
from repro.serve.query import canonical_response, hits_payload
from repro.serve.router import (
    RouterConfig,
    _router_rank,
    _TierBroker,
    merged_rejects,
    tier_roles,
)
from repro.serve.store import load_model
from repro.workbench.state import (
    SET_QUERY_KINDS,
    WorkbenchConfig,
    WorkbenchOp,
    WorkbenchReject,
    WorkbenchReport,
    WorkbenchScript,
    WorkbenchSession,
    diff_sets,
    intersect_sets,
    set_digest,
    set_rows,
    union_sets,
)

#: modelled broker-side cost of a local set-algebra op (per candidate)
_ALGEBRA_OPS_PER_CAND = 4
#: modelled broker-side cost of assembling one artifact
_DERIVE_OPS = 500
#: hits included inline in a set response (preview, not the set)
_PREVIEW_HITS = 10

#: session tallies: :class:`WorkbenchReport` field -> metric family
_TALLIES = {
    "sessions_opened": "workbench.sessions.opened",
    "sessions_closed": "workbench.sessions.closed",
    "sessions_evicted": "workbench.sessions.evicted",
    "sets_saved": "workbench.sets.saved",
    "artifact_hits": "workbench.artifact.hit",
    "artifact_misses": "workbench.artifact.miss",
    "artifact_evictions": "workbench.artifact.evict",
}

_ALGEBRA = {
    "union": union_sets,
    "diff": diff_sets,
    "intersect": intersect_sets,
}


class _Rejected(Exception):
    """An op failed the precondition its message names as the typed
    reject reason; nothing was charged or mutated."""


class _WorkbenchCore:
    """The session/op layer: a client of the broker it holds.

    The pump handler that answers analyst scripts.  Uses only the
    broker's fan-out, flagging, reload, and operator derivation, so
    over a :class:`~repro.serve.router._TierBroker` replica failover
    and hedging come along for free.
    """

    items, label, ident = "ops", "verb", ("tenant", "client")

    def __init__(self, broker: _Broker, wcfg: WorkbenchConfig):
        self.b = broker
        self.ctx = broker.ctx
        self.wcfg = wcfg
        #: (tenant, client) -> open session
        self.sessions: dict[tuple[int, int], WorkbenchSession] = {}
        #: (tenant, client) tombstones of TTL-evicted sessions
        self.evicted_keys: set[tuple[int, int]] = set()
        #: tenant -> artifact LRU: key -> (response dict, nbytes)
        self.art_cache: dict[int, OrderedDict[tuple, tuple[dict, int]]] = {}
        self.art_bytes: dict[int, int] = {}
        self.rejected: list[WorkbenchReject] = []
        self.counts = dict.fromkeys(_TALLIES, 0)
        m = self.ctx.metrics
        self.c_tallies = {f: m.counter(name) for f, name in _TALLIES.items()}
        self.c_arrivals = m.counter("workbench.ops", ("verb",))
        self.c_rejected = m.counter("workbench.rejected", ("reason",))
        self.h_latency = m.histogram(
            "workbench.latency", label_names=("verb",)
        )

    def _tally(self, field: str) -> None:
        self.counts[field] += 1
        self.c_tallies[field].inc(self.b.mrank)

    # -- lifecycle -----------------------------------------------------
    def _evict_idle(self, now: float) -> None:
        """TTL sweep in sorted session order (deterministic)."""
        ttl = self.wcfg.session_ttl_s
        for key in sorted(self.sessions):
            sess = self.sessions[key]
            if now - sess.last_active_s > ttl:
                del self.sessions[key]
                self.evicted_keys.add(key)
                self._tally("sessions_evicted")

    def _tenant_sessions(self, tenant: int) -> int:
        return sum(1 for t, _ in self.sessions if t == tenant)

    def _tenant_sets(self, tenant: int) -> int:
        return sum(
            len(s.sets)
            for (t, _), s in self.sessions.items()
            if t == tenant
        )

    # -- epoch-pinned fan-out ------------------------------------------
    def _fanout(
        self, sess: WorkbenchSession, op: str, params: dict
    ) -> tuple[dict[int, object], list[int]]:
        """One shard round pinned to the session's open-time epoch.

        The broker's own epoch may have moved on (hot reload between
        ops); the wire messages carry the pinned generation, so every
        shard resolves the segment list the session was opened
        against.
        """
        got, dropped = self.b._fanout(
            self.b.live, ((op, params),), epoch=sess.epoch
        )
        return {s: payloads[0] for s, payloads in got.items()}, dropped

    # -- ranked execution over a session -------------------------------
    def _wb_query(
        self,
        sess: WorkbenchSession,
        query,
        restrict: Optional[np.ndarray],
    ) -> tuple[list, list[int]]:
        """Ranked candidates of one set-builder query.

        The broker's own derivation for the query's kind, against the
        session's pinned collection size and icf weights.  ``restrict``
        (ascending global rows) is the refine path: only those rows
        compete, with unchanged per-row floats.
        """
        rec = QUERY_OPS[query.kind]
        params, _empty = rec.derive(self.b, query, sess, restrict)
        if params is None:
            return [], []
        got, dropped = self._fanout(sess, rec.op, params)
        return merge_ranked(self.ctx, got, params["k"], _DERIVE_OPS), dropped

    def _summed(
        self, sess: WorkbenchSession, op: str, params: dict, shape
    ) -> tuple[np.ndarray, list[int]]:
        """Fan an exact-count verb out and sum its int64 partials in
        sorted shard order."""
        got, dropped = self._fanout(sess, op, params)
        total = np.zeros(shape, dtype=np.int64)
        for s in sorted(got):
            total += got[s]
        self.ctx.charge_cpu(total.size * len(got) + _DERIVE_OPS)
        return total, dropped

    def _wb_set_tf(
        self, sess: WorkbenchSession, rows: np.ndarray
    ) -> tuple[np.ndarray, list[int]]:
        """Exact per-term tf totals of a set."""
        n_terms = self.b.model.term_df.shape[0]
        if rows.size == 0:
            return np.zeros(n_terms, dtype=np.int64), []
        return self._summed(sess, "set_tf", {"rows": rows}, n_terms)

    def _wb_cooc(
        self,
        sess: WorkbenchSession,
        rows: np.ndarray,
        n: int,
    ) -> tuple[list[int], np.ndarray, list[int]]:
        """Top-``n`` in-set terms plus their co-occurrence counts.

        Term basis: the ``n`` highest in-set tf totals with ascending
        term row breaking ties -- the same ``(-score, row)`` selection
        as every ranked answer, on exact integers.
        """
        totals, dropped = self._wb_set_tf(sess, rows)
        nz = np.flatnonzero(totals > 0)
        if nz.size == 0 or rows.size == 0:
            return [], np.zeros((0, 0), dtype=np.int64), dropped
        sel = topk_score_row(
            totals[nz].astype(np.float64), nz, min(n, int(nz.size))
        )
        term_rows = [int(r) for r in nz[sel]]
        counts, dropped2 = self._summed(
            sess,
            "set_cooc",
            {"rows": rows, "term_rows": term_rows},
            (len(term_rows),) * 2,
        )
        return term_rows, counts, sorted(set(dropped) | set(dropped2))

    # -- artifact cache ------------------------------------------------
    def _artifact_lookup(
        self, tenant: int, key: tuple
    ) -> Optional[dict]:
        cache = self.art_cache.get(tenant)
        if cache is None or key not in cache:
            return None
        cache.move_to_end(key)
        self._tally("artifact_hits")
        return cache[key][0]

    def _artifact_store(
        self, tenant: int, key: tuple, resp: dict
    ) -> Optional[str]:
        """Cache one artifact under the tenant's byte budget.

        Returns a rejection reason when the artifact alone exceeds the
        budget (``derived_bytes_quota``); otherwise evicts the
        tenant's least-recently-used artifacts until it fits.
        """
        nbytes = len(canonical_response(resp))
        if nbytes > self.wcfg.max_derived_bytes:
            return "derived_bytes_quota"
        cache = self.art_cache.setdefault(tenant, OrderedDict())
        used = self.art_bytes.get(tenant, 0)
        while cache and used + nbytes > self.wcfg.max_derived_bytes:
            _, (_, old) = cache.popitem(last=False)
            used -= old
            self._tally("artifact_evictions")
        cache[key] = (resp, nbytes)
        self.art_bytes[tenant] = used + nbytes
        return None

    # -- op execution --------------------------------------------------
    def _reject(
        self, script: WorkbenchScript, seq: int, op: WorkbenchOp, reason: str
    ) -> dict:
        self.ctx.charge_cpu(_REJECT_OPS)
        self.c_rejected.inc(self.b.mrank, key=(reason,))
        self.rejected.append(
            WorkbenchReject(
                tenant=script.tenant,
                client=script.client,
                seq=seq,
                verb=op.verb,
                reason=reason,
            )
        )
        return {"kind": "reject", "verb": op.verb, "reason": reason}

    @staticmethod
    def _operand(sess: WorkbenchSession, name: str) -> tuple:
        cands = sess.sets.get(name)
        if cands is None:
            raise _Rejected("unknown_set")
        return cands

    def _save_set(
        self,
        script: WorkbenchScript,
        seq: int,
        op: WorkbenchOp,
        sess: WorkbenchSession,
        cands: tuple,
        dropped: list[int],
    ) -> tuple[dict, bool]:
        """Answer a set-building op: save ``cands`` under ``op.name``."""
        resp = {
            "kind": op.verb,
            "set": op.name,
            "size": len(cands),
            "digest": set_digest(cands),
            "hits": hits_payload(list(cands[:_PREVIEW_HITS])),
        }
        if self.b._flag(resp, dropped)["partial"]:
            # a set missing shards would silently corrupt every later
            # derive; answer degraded but save nothing
            resp["saved"] = False
        elif (
            op.name not in sess.sets
            and self._tenant_sets(script.tenant) >= self.wcfg.max_sets
        ):
            resp = self._reject(script, seq, op, "set_quota")
        else:
            sess.sets[op.name] = cands
            self._tally("sets_saved")
            resp["saved"] = True
        sess.last_active_s = float(self.ctx.now)
        return resp, False

    def _op_open(self, script, seq, op, _sess):
        key = (script.tenant, script.client)
        if key in self.sessions:
            raise _Rejected("already_open")
        if self._tenant_sessions(script.tenant) >= self.wcfg.max_sessions:
            raise _Rejected("session_quota")
        self.evicted_keys.discard(key)
        now = float(self.ctx.now)
        self.sessions[key] = WorkbenchSession(
            tenant=script.tenant,
            client=script.client,
            epoch=self.b.epoch,
            n_docs=self.b.n_docs,
            icf=self.b.icf,
            opened_s=now,
            last_active_s=now,
        )
        self._tally("sessions_opened")
        return {"kind": "open"}, False

    def _op_close(self, script, seq, op, sess):
        del self.sessions[(script.tenant, script.client)]
        self._tally("sessions_closed")
        return {"kind": "close", "sets": sorted(sess.sets)}, False

    def _op_rank(self, script, seq, op, sess):
        """``search`` / ``refine``: a ranked query saved as a set."""
        if op.query is None or op.query.kind not in SET_QUERY_KINDS:
            raise _Rejected("bad_query")
        restrict = None
        if op.verb == "refine":
            restrict = set_rows(self._operand(sess, op.base))
        cands, dropped = self._wb_query(sess, op.query, restrict)
        return self._save_set(script, seq, op, sess, tuple(cands), dropped)

    def _op_window(self, script, seq, op, sess):
        base = self._operand(sess, op.base)
        if self.b.manifest.facets is None:
            raise _Rejected("unstamped_store")
        rows = set_rows(base)
        dropped: list[int] = []
        kept: set[int] = set()
        if rows.size:
            window = {"t0": op.t0, "t1": op.t1, "source": op.source}
            got, dropped = self._fanout(
                sess, "window_restrict", {"rows": rows, **window}
            )
            scanned = 0
            for s in sorted(got):
                in_window, shard_scanned = got[s]
                kept.update(int(r) for r in in_window)
                scanned += int(shard_scanned)
            self.b._count_facets("window_restrict", scanned)
        # filtering the base set preserves its canonical order
        cands = tuple(c for c in base if c.row in kept)
        self.ctx.charge_cpu(_ALGEBRA_OPS_PER_CAND * len(base) + _DERIVE_OPS)
        return self._save_set(script, seq, op, sess, cands, dropped)

    def _op_algebra(self, script, seq, op, sess):
        a = self._operand(sess, op.base)
        b = self._operand(sess, op.other)
        self.ctx.charge_cpu(
            _ALGEBRA_OPS_PER_CAND * (len(a) + len(b)) + _DERIVE_OPS
        )
        return self._save_set(
            script, seq, op, sess, _ALGEBRA[op.verb](a, b), []
        )

    def _keyphrases(self, sess, op, rows):
        totals, dropped = self._wb_set_tf(sess, rows)
        nz = np.flatnonzero(totals > 0)
        scores = totals[nz].astype(np.float64) * sess.icf[nz]
        sel = topk_score_row(scores, nz, min(op.n, int(nz.size)))
        terms = [
            {
                "term": self.b.model.terms[int(nz[i])],
                "tf": int(totals[int(nz[i])]),
                "score": float(scores[int(i)]),
            }
            for i in sel
        ]
        return {"terms": terms}, dropped

    def _cooccur(self, sess, op, rows):
        term_rows, counts, dropped = self._wb_cooc(sess, rows, op.n)
        terms = [self.b.model.terms[r] for r in term_rows]
        return {"terms": terms, "counts": counts.tolist()}, dropped

    def _relations(self, sess, op, rows):
        """The entity-relation summary: co-occurring term pairs."""
        term_rows, counts, dropped = self._wb_cooc(sess, rows, op.n)
        terms = [self.b.model.terms[r] for r in term_rows]
        linked = sorted(
            (-int(counts[i, j]), term_rows[i], term_rows[j], i, j)
            for i in range(len(terms))
            for j in range(i + 1, len(terms))
            if counts[i, j] >= op.min_support
        )
        pairs = [
            {"a": terms[i], "b": terms[j], "count": -neg}
            for neg, _ri, _rj, i, j in linked
        ]
        return {"min_support": op.min_support, "pairs": pairs}, dropped

    def _op_derive(self, script, seq, op, sess):
        """``keyphrases`` / ``cooccur`` / ``relations`` over a set."""
        base = self._operand(sess, op.base)
        digest = set_digest(base)
        ck = (digest, sess.epoch, op.verb, op.n, op.min_support)
        cached = self._artifact_lookup(script.tenant, ck)
        if cached is not None:
            sess.last_active_s = float(self.ctx.now)
            return cached, True
        self._tally("artifact_misses")
        body, dropped = _ARTIFACTS[op.verb](self, sess, op, set_rows(base))
        resp = {
            "kind": op.verb,
            "set": op.base,
            "size": len(base),
            "digest": digest,
            **body,
        }
        self.b._flag(resp, dropped)
        sess.last_active_s = float(self.ctx.now)
        if not resp["partial"]:  # degraded: never cached
            reason = self._artifact_store(script.tenant, ck, resp)
            if reason is not None:
                resp = self._reject(script, seq, op, reason)
        return resp, False

    # -- the pump's two hooks, for analyst scripts ---------------------
    def _admit(self, script: WorkbenchScript, depth: int) -> bool:
        """Every op enters: quotas answer in-band, per op."""
        return True

    def _serve(self, loop, entry: tuple) -> None:
        """Answer one op (one in flight per session, think times
        between ops)."""
        _arrival, idx, seq, op = entry
        script = loop.scripts[idx]
        self._evict_idle(self.ctx.now)
        self.b._maybe_reload()
        key = (script.tenant, script.client)
        opening = op.verb == "open"
        sess = None if opening else self.sessions.get(key)
        gen = self.b.epoch if sess is None else sess.epoch
        try:
            if sess is None and not opening:
                evicted = key in self.evicted_keys
                raise _Rejected("session_evicted" if evicted else "no_session")
            resp, art_cached = _VERBS[op.verb](self, script, seq, op, sess)
        except _Rejected as rej:
            resp = self._reject(script, seq, op, str(rej))
            art_cached = False
        loop.record(entry, resp, art_cached, gen)

    def _report(self, loop):
        session = self.b._session(loop)
        if isinstance(self.b, _TierBroker):
            # a part of the tier report: the router sums the tallies
            return dict(session, rejected=self.rejected, counts=self.counts)
        return WorkbenchReport(
            rejected=self.rejected, **self.counts, **session
        )


_ARTIFACTS = {
    "keyphrases": _WorkbenchCore._keyphrases,
    "cooccur": _WorkbenchCore._cooccur,
    "relations": _WorkbenchCore._relations,
}

#: workbench verb -> the method answering it
_VERBS = {
    "open": _WorkbenchCore._op_open,
    "close": _WorkbenchCore._op_close,
    "search": _WorkbenchCore._op_rank,
    "refine": _WorkbenchCore._op_rank,
    "window": _WorkbenchCore._op_window,
    **dict.fromkeys(_ALGEBRA, _WorkbenchCore._op_algebra),
    **dict.fromkeys(_ARTIFACTS, _WorkbenchCore._op_derive),
}


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def _workbench_tier_report(
    parts: list[dict], order: tuple, session: dict
) -> WorkbenchReport:
    return WorkbenchReport(
        rejected=merged_rejects(parts, "rejected", order),
        per_broker=[
            {
                "broker": part["broker"],
                "served": len(part["responses"]),
                "rejected": len(part["rejected"]),
                "makespan": part["makespan"],
            }
            for part in parts
        ],
        **{f: sum(part["counts"][f] for part in parts) for f in _TALLIES},
        **session,
    )


def serve_workbench(
    store_dir: str | os.PathLike,
    wscripts: list[WorkbenchScript],
    config: Optional[WorkbenchConfig] = None,
    broker: Optional[BrokerConfig] = None,
    machine: Optional[MachineSpec] = None,
    faults=None,
    ingest=None,
    backend: str = "sim",
) -> WorkbenchReport:
    """Run one workbench session over a sharded store.

    Spawns ``nshards + 1`` ranks (plus one when ``ingest`` is given),
    answers every scripted analyst op, and returns the
    :class:`WorkbenchReport` with the run's metrics snapshot attached.
    ``backend`` selects the execution backend (``sim``/``mp``);
    transcripts are bit-exact across both.
    """
    model = load_model(store_dir)
    wcfg = config if config is not None else WorkbenchConfig()
    bcfg = broker if broker is not None else BrokerConfig()

    def front(ctx):
        b = _Broker(ctx, model, bcfg, generational=ingest is not None)
        return b.pump(list(wscripts), _WorkbenchCore(b, wcfg))

    roles = [(1, front), (model.manifest.nshards, shard_service(model))]
    return _launch(
        model, roles, "workbench broker", machine, faults, ingest, backend
    )


def serve_workbench_replicated(
    store_dir: str | os.PathLike,
    wscripts: list[WorkbenchScript],
    config: Optional[WorkbenchConfig] = None,
    router: Optional[RouterConfig] = None,
    machine: Optional[MachineSpec] = None,
    faults=None,
    ingest=None,
) -> WorkbenchReport:
    """Run one workbench session over the replicated worker tier.

    Tenants route stickily to ``router.brokers`` workbench brokers;
    shard requests fan out over ``replicas`` copies with failover and
    hedging, so with ``replicas >= 2`` a worker crash mid-session is
    masked byte-for-byte.  Like :func:`~repro.serve.router.
    serve_replicated`, the replicated tier runs on the ``sim`` backend
    only: its failover fan-out needs ``recv_any``.
    """
    model = load_model(store_dir)
    wcfg = config if config is not None else WorkbenchConfig()

    def route(ctx, cfg, rmap):
        return _router_rank(
            ctx, wscripts, cfg, _WorkbenchCore.ident, _workbench_tier_report
        )

    def front(ctx, cfg, rmap):
        b = _TierBroker(
            ctx, model, cfg, rmap, generational=ingest is not None
        )
        return b.run(_WorkbenchCore(b, wcfg))

    roles = tier_roles(model, router, route, front)
    return _launch(
        model, roles, "workbench router", machine, faults, ingest
    )
