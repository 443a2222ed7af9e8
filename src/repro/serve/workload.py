"""Seeded closed-loop workloads for the serving layer.

A workload is a set of :class:`ClientScript`\\ s: each simulated client
issues its queries one at a time, thinking for a sampled interval
between the completion of one query and the issue of the next (the
closed-loop model the broker's event pump executes).  Everything is
drawn from ``np.random.default_rng(seed)`` over a profile extracted
from the store itself, so a (store, seed, knobs) triple always yields
the byte-identical workload -- the property the serving benchmark's
baseline comparison rests on.

Query mix and skew follow the interactive-analysis shape: term
searches and pseudo-signature queries over a rank-biased term pool
(frequent model terms are queried more), k-NN jumps from recently
"read" documents, cluster summaries, and landscape-region probes.  A
configurable fraction of queries repeats from a small hot pool, which
is what gives the result cache something to do.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.serve.query import Query
from repro.serve.store import load_model

#: default query-kind mix (must sum to 1)
DEFAULT_MIX: dict[str, float] = {
    "search": 0.35,
    "query": 0.15,
    "similar": 0.20,
    "cluster": 0.15,
    "region": 0.15,
}


@dataclass(frozen=True)
class ClientScript:
    """One client's scripted session.

    ``think_s[i]`` is the virtual think time between the completion of
    query ``i - 1`` (session start for ``i = 0``) and the issue of
    query ``i``.  ``priority`` is the client's admission class for the
    replicated tier's load shedding: 0 is the highest class; larger
    values shed first under overload.  The single-broker path ignores
    it.  ``tenant`` is the client's workbench billing identity (quota
    and artifact-cache scope); plain broker serving ignores it.
    """

    client: int
    queries: tuple[Query, ...]
    think_s: tuple[float, ...]
    priority: int = 0
    tenant: int = 0


@dataclass(frozen=True)
class StoreProfile:
    """What the generator needs to know about a store.

    ``facet_range``/``n_sources`` describe a stamped store's facet
    envelope (``None``/``0`` for unstamped stores); the dashboard
    workload generator needs them, the classic generators ignore them.
    """

    terms: tuple[str, ...]
    doc_ids: tuple[int, ...]
    n_clusters: int
    bbox: tuple[float, float, float, float]
    facet_range: tuple[float, float] | None = None
    n_sources: int = 0


def store_profile(store_dir: str | os.PathLike) -> StoreProfile:
    """Extract a workload profile from a store directory."""
    model = load_model(store_dir)
    manifest = model.manifest
    # shard boundary doc ids bracket the id space; sampling uniformly
    # between doc_lo/doc_hi per shard keeps ids inside real ranges
    doc_ids: list[int] = []
    for s in manifest.shards:
        if s.n_docs:
            doc_ids.extend((s.doc_lo, s.doc_hi))
    fac = manifest.facets
    return StoreProfile(
        terms=tuple(model.terms),
        doc_ids=tuple(doc_ids),
        n_clusters=int(model.centroids.shape[0]),
        bbox=manifest.bbox,
        facet_range=(
            (fac.stamp_lo, fac.stamp_hi) if fac is not None else None
        ),
        n_sources=fac.n_sources if fac is not None else 0,
    )


def _rank_biased_term(rng: np.random.Generator, terms: tuple[str, ...]) -> str:
    """Sample a model term with probability decaying in rank."""
    n = len(terms)
    # geometric-ish decay truncated to the dictionary
    r = int(rng.geometric(p=min(0.05, 10.0 / max(n, 1))))
    return terms[min(r - 1, n - 1)]


def _make_query(
    rng: np.random.Generator,
    profile: StoreProfile,
    kinds: list[str],
    cum: np.ndarray,
) -> Query:
    kind = kinds[int(np.searchsorted(cum, rng.random(), side="right"))]
    if kind in ("search", "query"):
        n_terms = 1 + int(rng.integers(0, 3))
        terms = tuple(
            _rank_biased_term(rng, profile.terms) for _ in range(n_terms)
        )
        return Query(kind=kind, terms=terms, k=10)
    if kind == "similar":
        doc = int(profile.doc_ids[int(rng.integers(len(profile.doc_ids)))])
        return Query(kind="similar", doc_id=doc, k=10)
    if kind == "cluster":
        c = int(rng.integers(profile.n_clusters))
        return Query(kind="cluster", cluster=c)
    x0, y0, x1, y1 = profile.bbox
    x = float(x0 + (x1 - x0) * rng.random())
    y = float(y0 + (y1 - y0) * rng.random())
    radius = float(0.05 + 0.20 * rng.random()) * max(
        x1 - x0, y1 - y0, 1e-9
    )
    return Query(kind="region", x=x, y=y, radius=radius)


def _client_priorities(
    n_clients: int,
    seed: int,
    priority_classes: tuple[int, ...],
    priority_weights: tuple[float, ...] | None,
) -> list[int]:
    """Seeded per-client priority assignment.

    Drawn from a *separate* rng stream (derived from ``seed``) so
    tagging a workload with priorities never perturbs its query or
    think-time draws -- the byte-identity of an untagged workload is
    load-bearing for every baseline comparison.
    """
    if len(priority_classes) == 1:
        return [int(priority_classes[0])] * n_clients
    if any(p < 0 for p in priority_classes):
        raise ValueError(
            f"priority classes must be >= 0: {priority_classes}"
        )
    if priority_weights is None:
        weights = np.full(len(priority_classes), 1.0)
    else:
        if len(priority_weights) != len(priority_classes):
            raise ValueError(
                "priority_weights must match priority_classes: "
                f"{priority_weights} vs {priority_classes}"
            )
        weights = np.array(priority_weights, dtype=np.float64)
    if weights.sum() <= 0:
        raise ValueError(f"priority weights have no mass: {priority_weights}")
    rng = np.random.default_rng((seed, 0x70))
    cum = np.cumsum(weights / weights.sum())
    return [
        int(
            priority_classes[
                int(np.searchsorted(cum, rng.random(), side="right"))
            ]
        )
        for _ in range(n_clients)
    ]


def client_tenants(
    n_clients: int, seed: int, n_tenants: int
) -> list[int]:
    """Seeded per-client tenant assignment.

    Mirrors :func:`_client_priorities`: tenants come from a *separate*
    rng stream derived from ``seed`` (a distinct stream key, so
    tenant-tagging composes with priority-tagging), and the default
    single tenant draws nothing at all -- an untagged workload's query
    and think-time streams stay byte-identical.
    """
    if n_tenants <= 1:
        return [0] * n_clients
    rng = np.random.default_rng((seed, 0x7E))
    return [int(rng.integers(n_tenants)) for _ in range(n_clients)]


def generate_workload(
    profile: StoreProfile,
    n_clients: int = 4,
    queries_per_client: int = 25,
    seed: int = 0,
    mix: dict[str, float] | None = None,
    hot_fraction: float = 0.3,
    hot_pool: int = 8,
    mean_think_s: float = 0.05,
    priority_classes: tuple[int, ...] = (0,),
    priority_weights: tuple[float, ...] | None = None,
    n_tenants: int = 1,
) -> list[ClientScript]:
    """Generate a seeded closed-loop workload over a store profile.

    ``hot_fraction`` of queries repeat from a shared ``hot_pool`` of
    popular queries (cache fodder); the rest are fresh draws.  Think
    times are exponential with mean ``mean_think_s`` virtual seconds.
    ``priority_classes`` (with optional ``priority_weights``) tags
    each client with a seeded admission class; ``n_tenants`` tags each
    client with a seeded workbench tenant.  The defaults (one class,
    one tenant) leave every script at priority 0 / tenant 0 and the
    query stream byte-identical to untagged workloads.
    """
    if not profile.terms and not profile.doc_ids:
        raise ValueError("store profile is empty; nothing to query")
    mix = dict(DEFAULT_MIX if mix is None else mix)
    bad = sorted(set(mix) - set(DEFAULT_MIX))
    if bad:
        raise ValueError(f"unknown query kinds in mix: {bad}")
    kinds = sorted(mix)
    weights = np.array([mix[k] for k in kinds], dtype=np.float64)
    if weights.sum() <= 0:
        raise ValueError(f"query mix has no mass: {mix}")
    cum = np.cumsum(weights / weights.sum())
    priorities = _client_priorities(
        n_clients, seed, priority_classes, priority_weights
    )
    tenants = client_tenants(n_clients, seed, n_tenants)
    rng = np.random.default_rng(seed)
    pool = [
        _make_query(rng, profile, kinds, cum) for _ in range(hot_pool)
    ]
    scripts: list[ClientScript] = []
    for c in range(n_clients):
        queries: list[Query] = []
        think: list[float] = []
        for _ in range(queries_per_client):
            if pool and rng.random() < hot_fraction:
                q = pool[int(rng.integers(len(pool)))]
            else:
                q = _make_query(rng, profile, kinds, cum)
            queries.append(q)
            think.append(float(rng.exponential(mean_think_s)))
        scripts.append(
            ClientScript(
                client=c,
                queries=tuple(queries),
                think_s=tuple(think),
                priority=priorities[c],
                tenant=tenants[c],
            )
        )
    return scripts


#: default dashboard poll mix over the window query kinds (sums to 1)
DASHBOARD_MIX: dict[str, float] = {
    "facet_counts": 0.45,
    "window_terms": 0.35,
    "emerging": 0.20,
}


def generate_dashboard_workload(
    profile: StoreProfile,
    n_clients: int = 12,
    polls_per_client: int = 10,
    seed: int = 0,
    window_fraction: float = 0.25,
    mean_poll_s: float = 0.02,
    search_fraction: float = 0.25,
    source_fraction: float = 0.25,
    n_terms: int = 8,
    mix: dict[str, float] | None = None,
    priority_classes: tuple[int, ...] = (0,),
    priority_weights: tuple[float, ...] | None = None,
    n_tenants: int = 1,
) -> list[ClientScript]:
    """Generate the dashboard workload class over a *stamped* store.

    Many clients poll sliding-window queries at high rate: each client
    owns a window of ``window_fraction`` of the store's stamp range at
    a seeded phase offset, and every poll slides it forward so the last
    poll's window ends at the range's upper bound -- the "live
    dashboard tailing the feed" shape.  Polls draw their kind from
    ``mix`` (over ``facet_counts`` / ``window_terms`` / ``emerging``),
    a ``source_fraction`` of them restrict to one seeded source
    region, and a ``search_fraction`` of polls interleave classic
    search-mix traffic so dashboards contend with interactive
    analysis.  Think times are exponential with mean ``mean_poll_s``
    (high-rate polling).  Fully deterministic in ``(profile, seed,
    knobs)``; raises ``ValueError`` on unstamped profiles.
    """
    if profile.facet_range is None or profile.n_sources < 1:
        raise ValueError(
            "store profile is unstamped: dashboard workloads need a "
            "facet range and source count (build the store from a "
            "stamped corpus)"
        )
    if not 0.0 < window_fraction <= 1.0:
        raise ValueError(
            f"window_fraction must be in (0, 1], got {window_fraction}"
        )
    if not 0.0 <= search_fraction < 1.0:
        raise ValueError(
            f"search_fraction must be in [0, 1), got {search_fraction}"
        )
    if not 0.0 <= source_fraction <= 1.0:
        raise ValueError(
            f"source_fraction must be in [0, 1], got {source_fraction}"
        )
    mix = dict(DASHBOARD_MIX if mix is None else mix)
    bad = sorted(set(mix) - set(DASHBOARD_MIX))
    if bad:
        raise ValueError(f"unknown dashboard query kinds in mix: {bad}")
    kinds = sorted(mix)
    weights = np.array([mix[k] for k in kinds], dtype=np.float64)
    if weights.sum() <= 0:
        raise ValueError(f"dashboard mix has no mass: {mix}")
    cum = np.cumsum(weights / weights.sum())
    search_kinds = sorted(DEFAULT_MIX)
    search_weights = np.array(
        [DEFAULT_MIX[k] for k in search_kinds], dtype=np.float64
    )
    search_cum = np.cumsum(search_weights / search_weights.sum())
    priorities = _client_priorities(
        n_clients, seed, priority_classes, priority_weights
    )
    tenants = client_tenants(n_clients, seed, n_tenants)
    lo, hi = profile.facet_range
    span = max(hi - lo, 1e-9)
    window = span * window_fraction
    rng = np.random.default_rng(seed)
    scripts: list[ClientScript] = []
    for c in range(n_clients):
        # each client's window starts at a seeded phase and slides so
        # its final poll ends exactly at the stamp range's upper bound
        phase = float(rng.random()) * (span - window)
        t1_first = lo + phase + window
        slide = (hi - t1_first) / max(1, polls_per_client - 1)
        queries: list[Query] = []
        think: list[float] = []
        for i in range(polls_per_client):
            if search_fraction and rng.random() < search_fraction:
                q = _make_query(rng, profile, search_kinds, search_cum)
            else:
                kind = kinds[
                    int(np.searchsorted(cum, rng.random(), side="right"))
                ]
                t1 = t1_first + i * slide
                source = -1
                if source_fraction and rng.random() < source_fraction:
                    source = int(rng.integers(profile.n_sources))
                q = Query(
                    kind=kind,
                    n_terms=n_terms,
                    t0=t1 - window,
                    t1=t1,
                    source=source,
                )
            queries.append(q)
            think.append(float(rng.exponential(mean_poll_s)))
        scripts.append(
            ClientScript(
                client=c,
                queries=tuple(queries),
                think_s=tuple(think),
                priority=priorities[c],
                tenant=tenants[c],
            )
        )
    return scripts


def generate_zipf_workload(
    profile: StoreProfile,
    n_clients: int = 100,
    queries_per_client: int = 4,
    seed: int = 0,
    mix: dict[str, float] | None = None,
    pool_size: int = 64,
    zipf_s: float = 1.3,
    mean_think_s: float = 0.2,
    priority_classes: tuple[int, ...] = (0, 1, 2),
    priority_weights: tuple[float, ...] | None = (0.2, 0.5, 0.3),
    n_tenants: int = 1,
) -> list[ClientScript]:
    """Generate a Zipf hot-spot workload (the scaling-study shape).

    Every query is drawn from a fixed pool of ``pool_size`` distinct
    queries with truncated-Zipf(``zipf_s``) popularity: a handful of
    head queries dominate (cache- and replica-contention fodder) with
    a long tail of rare ones.  Clients are tagged with seeded
    priority classes for the shedding study.  Fully deterministic in
    ``(profile, seed, knobs)`` like :func:`generate_workload`.
    """
    if not profile.terms and not profile.doc_ids:
        raise ValueError("store profile is empty; nothing to query")
    if pool_size < 1:
        raise ValueError(f"pool_size must be >= 1, got {pool_size}")
    if zipf_s <= 1.0:
        raise ValueError(f"zipf_s must be > 1, got {zipf_s}")
    mix = dict(DEFAULT_MIX if mix is None else mix)
    bad = sorted(set(mix) - set(DEFAULT_MIX))
    if bad:
        raise ValueError(f"unknown query kinds in mix: {bad}")
    kinds = sorted(mix)
    weights = np.array([mix[k] for k in kinds], dtype=np.float64)
    if weights.sum() <= 0:
        raise ValueError(f"query mix has no mass: {mix}")
    cum = np.cumsum(weights / weights.sum())
    priorities = _client_priorities(
        n_clients, seed, priority_classes, priority_weights
    )
    tenants = client_tenants(n_clients, seed, n_tenants)
    rng = np.random.default_rng(seed)
    pool = [
        _make_query(rng, profile, kinds, cum) for _ in range(pool_size)
    ]
    scripts: list[ClientScript] = []
    for c in range(n_clients):
        queries: list[Query] = []
        think: list[float] = []
        for _ in range(queries_per_client):
            # rank-1 is the hottest query; truncate the unbounded
            # Zipf draw onto the pool's tail bucket
            rank = min(int(rng.zipf(zipf_s)), pool_size)
            queries.append(pool[rank - 1])
            think.append(float(rng.exponential(mean_think_s)))
        scripts.append(
            ClientScript(
                client=c,
                queries=tuple(queries),
                think_s=tuple(think),
                priority=priorities[c],
                tenant=tenants[c],
            )
        )
    return scripts
