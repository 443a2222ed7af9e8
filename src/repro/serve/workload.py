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
fixed fraction of queries repeats from a small hot pool, which is what
gives the result cache something to do.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Sequence

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

#: share of :func:`generate_workload` queries repeated from a shared
#: pool of ``HOT_POOL`` popular queries (cache fodder)
HOT_FRACTION = 0.3
HOT_POOL = 8

#: dashboard poll mix over the window query kinds (sums to 1)
DASHBOARD_MIX: dict[str, float] = {
    "facet_counts": 0.45,
    "window_terms": 0.35,
    "emerging": 0.20,
}
#: a dashboard client's window, as a share of the store's stamp range
WINDOW_FRACTION = 0.25
#: share of dashboard polls that are classic search-mix queries
SEARCH_FRACTION = 0.25
#: share of the other polls restricted to one seeded source region
SOURCE_FRACTION = 0.25

#: :func:`generate_zipf_workload`: distinct queries in the pool, the
#: truncated-Zipf exponent of their popularity, the mean think time,
#: and the admission classes clients are tagged with, by weight
ZIPF_POOL = 64
ZIPF_S = 1.3
ZIPF_THINK_S = 0.2
ZIPF_PRIORITIES = (0, 1, 2)
ZIPF_PRIORITY_WEIGHTS = (0.2, 0.5, 0.3)


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


def _cdf(mix: dict[str, float]) -> tuple[list[str], np.ndarray]:
    """Sorted kinds of a query mix and their cumulative shares."""
    kinds = sorted(mix)
    weights = np.array([mix[k] for k in kinds], dtype=np.float64)
    return kinds, np.cumsum(weights / weights.sum())


def _draw(rng: np.random.Generator, choices: Sequence, cum: np.ndarray):
    """One of ``choices``, drawn by the cumulative shares ``cum``."""
    return choices[int(np.searchsorted(cum, rng.random(), side="right"))]


def _make_query(
    rng: np.random.Generator,
    profile: StoreProfile,
    kinds: list[str],
    cum: np.ndarray,
) -> Query:
    kind = _draw(rng, kinds, cum)
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


def _scripts(sessions, priorities=None) -> list[ClientScript]:
    """One :class:`ClientScript` per client from its ``(query,
    think_s)`` pairs, drawn client by client in order."""
    scripts: list[ClientScript] = []
    for c, pairs in enumerate(sessions):
        pairs = list(pairs)
        scripts.append(
            ClientScript(
                client=c,
                queries=tuple(q for q, _ in pairs),
                think_s=tuple(t for _, t in pairs),
                priority=0 if priorities is None else priorities[c],
            )
        )
    return scripts


def _require_queryable(profile: StoreProfile) -> None:
    if not profile.terms and not profile.doc_ids:
        raise ValueError("store profile is empty; nothing to query")


def generate_workload(
    profile: StoreProfile,
    n_clients: int = 4,
    queries_per_client: int = 25,
    seed: int = 0,
    mix: dict[str, float] | None = None,
    mean_think_s: float = 0.05,
) -> list[ClientScript]:
    """Generate a seeded closed-loop workload over a store profile.

    :data:`HOT_FRACTION` of queries repeat from a shared pool of
    :data:`HOT_POOL` popular queries (cache fodder); the rest are fresh
    draws from ``mix`` (default :data:`DEFAULT_MIX`).  Think times are
    exponential with mean ``mean_think_s`` virtual seconds.
    """
    _require_queryable(profile)
    mix = dict(DEFAULT_MIX if mix is None else mix)
    bad = sorted(set(mix) - set(DEFAULT_MIX))
    if bad:
        raise ValueError(f"unknown query kinds in mix: {bad}")
    if sum(mix.values()) <= 0:
        raise ValueError(f"query mix has no mass: {mix}")
    kinds, cum = _cdf(mix)
    rng = np.random.default_rng(seed)
    pool = [_make_query(rng, profile, kinds, cum) for _ in range(HOT_POOL)]

    def query() -> Query:
        if pool and rng.random() < HOT_FRACTION:
            return pool[int(rng.integers(len(pool)))]
        return _make_query(rng, profile, kinds, cum)

    return _scripts(
        (
            (query(), float(rng.exponential(mean_think_s)))
            for _ in range(queries_per_client)
        )
        for _ in range(n_clients)
    )


def generate_dashboard_workload(
    profile: StoreProfile,
    n_clients: int = 12,
    polls_per_client: int = 10,
    seed: int = 0,
    mean_poll_s: float = 0.02,
    n_terms: int = 8,
) -> list[ClientScript]:
    """Generate the dashboard workload class over a *stamped* store.

    Many clients poll sliding-window queries at high rate: each client
    owns a window of :data:`WINDOW_FRACTION` of the store's stamp range
    at a seeded phase offset, and every poll slides it forward so the
    last poll's window ends at the range's upper bound -- the "live
    dashboard tailing the feed" shape.  Polls draw their kind from
    :data:`DASHBOARD_MIX`, :data:`SOURCE_FRACTION` of them restrict to
    one seeded source region, and :data:`SEARCH_FRACTION` of polls
    interleave classic search-mix traffic so dashboards contend with
    interactive analysis.  Think times are exponential with mean
    ``mean_poll_s`` (high-rate polling).  Fully deterministic in
    ``(profile, seed, knobs)``; raises ``ValueError`` on unstamped
    profiles.
    """
    if profile.facet_range is None or profile.n_sources < 1:
        raise ValueError(
            "store profile is unstamped: dashboard workloads need a "
            "facet range and source count (build the store from a "
            "stamped corpus)"
        )
    kinds, cum = _cdf(DASHBOARD_MIX)
    search_kinds, search_cum = _cdf(DEFAULT_MIX)
    lo, hi = profile.facet_range
    span = max(hi - lo, 1e-9)
    window = span * WINDOW_FRACTION
    rng = np.random.default_rng(seed)

    def polls():
        # each client's window starts at a seeded phase and slides so
        # its final poll ends exactly at the stamp range's upper bound
        phase = float(rng.random()) * (span - window)
        t1_first = lo + phase + window
        slide = (hi - t1_first) / max(1, polls_per_client - 1)
        for i in range(polls_per_client):
            if SEARCH_FRACTION and rng.random() < SEARCH_FRACTION:
                q = _make_query(rng, profile, search_kinds, search_cum)
            else:
                kind = _draw(rng, kinds, cum)
                t1 = t1_first + i * slide
                source = -1
                if SOURCE_FRACTION and rng.random() < SOURCE_FRACTION:
                    source = int(rng.integers(profile.n_sources))
                q = Query(
                    kind=kind,
                    n_terms=n_terms,
                    t0=t1 - window,
                    t1=t1,
                    source=source,
                )
            yield q, float(rng.exponential(mean_poll_s))

    return _scripts(polls() for _ in range(n_clients))


def _zipf_priorities(n_clients: int, seed: int) -> list[int]:
    """Seeded per-client admission classes.

    Drawn from a *separate* rng stream (derived from ``seed``), so the
    tags never perturb the query or think-time draws.
    """
    weights = np.array(ZIPF_PRIORITY_WEIGHTS, dtype=np.float64)
    cum = np.cumsum(weights / weights.sum())
    rng = np.random.default_rng((seed, 0x70))
    return [_draw(rng, ZIPF_PRIORITIES, cum) for _ in range(n_clients)]


def generate_zipf_workload(
    profile: StoreProfile,
    n_clients: int = 100,
    queries_per_client: int = 4,
    seed: int = 0,
) -> list[ClientScript]:
    """Generate a Zipf hot-spot workload (the scaling-study shape).

    Every query is drawn from a fixed pool of :data:`ZIPF_POOL`
    distinct queries with truncated-Zipf(:data:`ZIPF_S`) popularity: a
    handful of head queries dominate (cache- and replica-contention
    fodder) with a long tail of rare ones.  Clients are tagged with
    seeded priority classes for the shedding study.  Fully
    deterministic in ``(profile, seed, knobs)`` like
    :func:`generate_workload`.
    """
    _require_queryable(profile)
    kinds, cum = _cdf(DEFAULT_MIX)
    rng = np.random.default_rng(seed)
    pool = [_make_query(rng, profile, kinds, cum) for _ in range(ZIPF_POOL)]
    # rank 1 is the hottest query; truncate the unbounded Zipf draw
    # onto the pool's tail bucket
    sessions = (
        (
            (
                pool[min(int(rng.zipf(ZIPF_S)), ZIPF_POOL) - 1],
                float(rng.exponential(ZIPF_THINK_S)),
            )
            for _ in range(queries_per_client)
        )
        for _ in range(n_clients)
    )
    return _scripts(sessions, _zipf_priorities(n_clients, seed))
