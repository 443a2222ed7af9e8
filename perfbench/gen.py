"""Seeded input generators owned by the benchmark.

The benchmark builds its own ``Query`` / ``ClientScript`` /
``WorkbenchScript`` objects from ``--seed`` instead of calling
``repro.serve.workload`` or ``repro.workbench.workload``: a later
change to those generators must not silently change the load this
benchmark applies.  The program under test only ever sees the
generated inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.serve.query import Query
from repro.serve.workload import ClientScript
from repro.workbench.state import WorkbenchOp, WorkbenchScript

#: the mixed serving load: all eight query kinds
MIXED_WEIGHTS: dict[str, float] = {
    "search": 0.25,
    "query": 0.10,
    "similar": 0.15,
    "cluster": 0.10,
    "region": 0.10,
    "facet_counts": 0.15,
    "window_terms": 0.10,
    "emerging": 0.05,
}

#: kinds ``AnalysisSession`` (the single-node reference) also answers
CLASSIC_KINDS = ("search", "query", "similar", "cluster", "region")


@dataclass(frozen=True)
class Profile:
    """What a generator may know about a store: taken from the
    engine result and facet spec the benchmark itself built."""

    terms: tuple[str, ...]
    doc_ids: np.ndarray
    n_clusters: int
    bbox: tuple[float, float, float, float]
    stamp_lo: float
    stamp_hi: float
    n_sources: int


def stratified(rng: np.random.Generator, weights: dict, n: int) -> list:
    """``n`` names in seeded random order, each appearing in proportion
    to its weight (largest remainders fill up to ``n``).

    Every seed therefore applies the same *mix* of work and only the
    particular queries and their order differ: a multinomial draw
    moved the share of heavy kinds by +-10 % between seeds, which the
    driver's spread check reads as noise.
    """
    names = list(weights)
    share = np.array([weights[k] for k in names], dtype=np.float64)
    share = share / share.sum() * n
    counts = np.floor(share).astype(int)
    for i in np.argsort(-(share - counts), kind="stable")[: n - counts.sum()]:
        counts[i] += 1
    out = [k for k, c in zip(names, counts) for _ in range(c)]
    return [out[i] for i in rng.permutation(n)]


def uniform_terms(rng: np.random.Generator, profile: Profile) -> tuple:
    """1-3 model terms, uniform: a working set far beyond any cache."""
    n = 1 + int(rng.integers(0, 3))
    return tuple(
        profile.terms[int(rng.integers(len(profile.terms)))]
        for _ in range(n)
    )


#: the cold load: ranked term search only
SEARCH_ONLY: dict[str, float] = {"search": 1.0}


def make_query(rng: np.random.Generator, profile: Profile, kind: str) -> Query:
    """One query of ``kind``; every draw is answerable (known doc ids,
    clusters in range, windows inside the stamps)."""
    if kind in ("search", "query"):
        return Query(kind=kind, terms=uniform_terms(rng, profile), k=10)
    if kind == "similar":
        doc = int(profile.doc_ids[int(rng.integers(len(profile.doc_ids)))])
        return Query(kind="similar", doc_id=doc, k=10)
    if kind == "cluster":
        return Query(
            kind="cluster", cluster=int(rng.integers(profile.n_clusters))
        )
    if kind == "region":
        x0, y0, x1, y1 = profile.bbox
        extent = max(x1 - x0, y1 - y0, 1e-9)
        return Query(
            kind="region",
            x=float(x0 + (x1 - x0) * rng.random()),
            y=float(y0 + (y1 - y0) * rng.random()),
            radius=float(0.05 + 0.20 * rng.random()) * extent,
        )
    span = profile.stamp_hi - profile.stamp_lo
    width = span * float(0.10 + 0.40 * rng.random())
    t0 = profile.stamp_lo + float(rng.random()) * (span - width)
    source = (
        int(rng.integers(profile.n_sources))
        if kind != "facet_counts" and rng.random() < 0.25
        else -1
    )
    return Query(
        kind=kind, n_terms=8, t0=t0, t1=t0 + width, source=source
    )


def queries(
    rng: np.random.Generator, profile: Profile, weights: dict, n: int
) -> list[Query]:
    return [make_query(rng, profile, k) for k in stratified(rng, weights, n)]


def client_scripts(
    rng: np.random.Generator,
    profile: Profile,
    weights: dict,
    n_clients: int,
    queries_per_client: int,
    hot_fraction: float = 0.0,
    hot_pool: int = 0,
    mean_think_s: float = 0.0,
) -> list[ClientScript]:
    """Closed-loop scripts: each client sends its next query when the
    previous one completes (plus exponential virtual think time).

    ``hot_fraction`` of each client's queries repeat from a shared pool
    of ``hot_pool`` queries; the rest are fresh draws.  Pool, fresh
    draws and the hot/fresh pattern are all stratified.
    """
    pool = queries(rng, profile, weights, hot_pool)
    n_hot = round(queries_per_client * hot_fraction) if pool else 0
    scripts = []
    for c in range(n_clients):
        fresh = iter(
            queries(rng, profile, weights, queries_per_client - n_hot)
        )
        pattern = stratified(
            rng,
            {"hot": n_hot, "fresh": queries_per_client - n_hot},
            queries_per_client,
        )
        qs = [
            pool[int(rng.integers(len(pool)))] if p == "hot" else next(fresh)
            for p in pattern
        ]
        think = (
            tuple(
                float(t)
                for t in rng.exponential(mean_think_s, queries_per_client)
            )
            if mean_think_s > 0
            else (0.0,) * queries_per_client
        )
        scripts.append(
            ClientScript(client=c, queries=tuple(qs), think_s=think)
        )
    return scripts


#: set-builder queries: ranked kinds whose scores are per-row
SET_WEIGHTS: dict[str, float] = {"search": 0.6, "query": 0.4}


def _set_query(rng: np.random.Generator, profile: Profile, kind: str) -> Query:
    return Query(kind=kind, terms=uniform_terms(rng, profile), k=20)


BODY_WEIGHTS: dict[str, float] = {
    "search": 0.25,
    "refine": 0.20,
    "union": 0.07,
    "diff": 0.07,
    "intersect": 0.06,
    "keyphrases": 0.15,
    "cooccur": 0.10,
    "relations": 0.10,
}
_SAVING_VERBS = ("search", "refine", "union", "diff", "intersect")


def analyst_scripts(
    rng: np.random.Generator,
    profile: Profile,
    n_tenants: int,
    sessions_per_tenant: int,
    body_ops: int,
    pool_size: int = 3,
) -> list[WorkbenchScript]:
    """Analyst sessions: open, anchor search from the tenant's shared
    pool, ``body_ops`` mixed ops, a trailing keyphrase derive on the
    anchor (shared artifact key across a tenant's sessions), close.

    The verb mix of every session is the stratified
    :data:`BODY_WEIGHTS`, so the sets a session saves are a fixed
    count: the workload can size the tenant quota so that no op is
    ever refused, at any seed.
    """
    scripts = []
    client = 0
    for tenant in range(n_tenants):
        pool = [
            _set_query(rng, profile, kind)
            for kind in stratified(rng, SET_WEIGHTS, pool_size)
        ]
        for _ in range(sessions_per_tenant):
            ops = [
                WorkbenchOp(verb="open"),
                WorkbenchOp(
                    verb="search",
                    name="anchor",
                    query=pool[int(rng.integers(pool_size))],
                ),
            ]
            names = ["anchor"]
            verbs = stratified(rng, BODY_WEIGHTS, body_ops)
            kinds = iter(
                stratified(
                    rng,
                    SET_WEIGHTS,
                    sum(v in ("search", "refine") for v in verbs),
                )
            )
            for verb in verbs:
                base = names[int(rng.integers(len(names)))]
                name = f"s{len(names)}" if verb in _SAVING_VERBS else ""
                if verb in ("search", "refine"):
                    op = WorkbenchOp(
                        verb=verb,
                        name=name,
                        base=base if verb == "refine" else "",
                        query=_set_query(rng, profile, next(kinds)),
                    )
                elif name:
                    other = names[int(rng.integers(len(names)))]
                    op = WorkbenchOp(
                        verb=verb, name=name, base=base, other=other
                    )
                else:
                    op = WorkbenchOp(verb=verb, base=base, n=8)
                if name:
                    names.append(name)
                ops.append(op)
            ops.append(WorkbenchOp(verb="keyphrases", base="anchor", n=8))
            ops.append(WorkbenchOp(verb="close"))
            scripts.append(
                WorkbenchScript(
                    tenant=tenant,
                    client=client,
                    ops=tuple(ops),
                    think_s=(0.0,) * len(ops),
                )
            )
            client += 1
    return scripts


def oneshot_session(
    rng: np.random.Generator, profile: Profile, client: int
) -> WorkbenchScript:
    """The ``workbench-session`` CLI shape: open, anchor, derive, close.
    Anchors cycle search, search, query, search, query (the 60/40
    set-builder mix)."""
    kind = ("search", "search", "query", "search", "query")[client % 5]
    ops = (
        WorkbenchOp(verb="open"),
        WorkbenchOp(
            verb="search", name="anchor", query=_set_query(rng, profile, kind)
        ),
        WorkbenchOp(verb="keyphrases", base="anchor", n=8),
        WorkbenchOp(verb="close"),
    )
    return WorkbenchScript(
        tenant=0, client=client, ops=ops, think_s=(0.0,) * len(ops)
    )
