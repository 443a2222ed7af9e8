"""``search_cold`` and ``mixed_hot``: one broker session shape, two
loads that stress opposite layers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.serve import canonical_response, query_store, serve

from perfbench import gen
from perfbench.bench import Ctx, Outcome, blake
from perfbench.fixture import (
    StoreFixture,
    build_store,
    response_failed,
    served_answer,
    time_reference,
)

#: classic-kind queries checked against the single-node reference
ORACLE_SAMPLE = 200
#: one-shot calls per probe chunk, and the fewest that give a p95
ONESHOT_CHUNK = 20
ONESHOT_MIN = 200


@dataclass(frozen=True)
class Shape:
    """One closed-loop serving load (zero think time)."""

    name: str
    #: query kind -> share of the load
    weights: dict
    n_clients: int
    queries_per_client: int
    hot_fraction: float
    hot_pool: int
    #: rng stream tag, so the two loads draw independent queries
    tag: int


#: uniform 1-3 term searches: ~480 distinct queries against a
#: 128-entry result cache, so every answer runs the shard kernels
COLD = Shape("search_cold", gen.SEARCH_ONLY, 8, 60, 0.0, 0, 0xC0)
#: all eight kinds, 60 % from a 32-query pool that fits the cache
HOT = Shape("mixed_hot", gen.MIXED_WEIGHTS, 8, 200, 0.6, 32, 0x40)


def transcript_digest(responses: list[dict]) -> str:
    """blake2b over every response of a broker or workbench session."""
    return blake(
        b"%d:%d:%d:" % (r.get("tenant", 0), r["client"], r["seq"])
        + canonical_response(r["response"])
        for r in responses
    )


def session_failures(report) -> int:
    return len(report.rejected) + sum(
        response_failed(r["response"]) for r in report.responses
    )


def account_session(out: Outcome, report, n_ops: int, what: str) -> None:
    """Count a session's operations and failures, and hold its
    transcript to the first session's digest."""
    out.attempted += n_ops
    out.failed += session_failures(report)
    out.check(
        transcript_digest(report.responses) == out.digest,
        f"{what}: transcript differs from the first session",
    )


def timed_sessions(
    ctx: Ctx, out: Outcome, name: str, session: Callable, n_ops: int
) -> None:
    """Repeat ``session()`` for 60 % of the run: ``ops_per_s``."""

    def rep(i: int) -> None:
        report, t = ctx.timed(name, session)
        out.add_rate("ops_per_s", report.served, t)
        account_session(out, report, n_ops, f"rep {i}")

    ctx.repeat(0.6 * ctx.seconds, 3, rep)


def oneshot_phase(
    ctx: Ctx,
    out: Outcome,
    make_calls: Callable[[int], list],
    failed: Callable[[object], bool],
    budget_s: float,
) -> None:
    """Isolated calls through a one-call public entry point, each
    timed on its own: store open + cluster spin-up + one answer.
    ``make_calls(i)`` builds the ``i``-th chunk of
    :data:`ONESHOT_CHUNK` zero-argument calls."""

    def chunk(i: int) -> None:
        calls = make_calls(i)
        with ctx.trace.span("oneshot.chunk"):
            results, timings = ctx.clock.measure_each(calls, ONESHOT_CHUNK)
        for t in timings:
            out.add("oneshot_ms", t.norm_s * 1e3, t.raw_s * 1e3)
        out.attempted += len(results)
        out.failed += sum(failed(r) for r in results)

    ctx.repeat(budget_s, ONESHOT_MIN // ONESHOT_CHUNK, chunk)


def _same_answer(q, resp: dict, ref) -> bool:
    return served_answer(q, resp) == ref


def check_against_reference(
    ctx: Ctx,
    out: Outcome,
    fx: StoreFixture,
    pairs: list,
    budget_s: float,
    same: Callable = _same_answer,
) -> None:
    """``pairs`` is ``[(query, served response)]`` over classic kinds;
    the reference must give the same doc ids and scores."""
    answers = time_reference(ctx, out, fx, [q for q, _ in pairs], budget_s)
    bad = sum(
        not same(q, resp, ref) for (q, resp), ref in zip(pairs, answers)
    )
    out.attempted += len(pairs)
    out.failed += bad
    if bad:
        out.notes.append(
            f"FAILED: {bad}/{len(pairs)} answers differ from AnalysisSession"
        )


def oracle_pairs(pairs, quota: dict[str, int]) -> list:
    """The oracle sample: the first ``quota[kind]`` distinct queries of
    each kind among ``(query, response)`` pairs, so that every seed
    checks (and times the reference on) the same mix."""
    seen: set = set()
    left = dict(quota)
    sample = []
    for q, resp in pairs:
        if left.get(q.kind, 0) > 0 and q.key() not in seen:
            seen.add(q.key())
            left[q.kind] -= 1
            sample.append((q, resp))
    return sample


def run_shape(ctx: Ctx, shape: Shape) -> Outcome:
    out = Outcome()
    fx = build_store(ctx)
    rng = np.random.default_rng((ctx.seed, shape.tag))
    qpc = 10 if ctx.smoke else shape.queries_per_client
    scripts = gen.client_scripts(
        rng,
        fx.profile,
        shape.weights,
        shape.n_clients,
        qpc,
        hot_fraction=shape.hot_fraction,
        hot_pool=shape.hot_pool,
    )
    # the first session pays page-cache and lazy-import costs; it is
    # set-up, and its transcript is what every repetition must repeat
    first = ctx.stage("serve.warmup", serve, fx.store_dir, scripts)
    out.digest = transcript_digest(first.responses)
    if ctx.traced:
        from perfbench.layers import attribute_serving

        attribute_serving(ctx, out, fx, shape, scripts, first)
        return out

    timed_sessions(
        ctx,
        out,
        "serve.session",
        lambda: serve(fx.store_dir, scripts),
        shape.n_clients * qpc,
    )
    classic = [k for k in shape.weights if k in gen.CLASSIC_KINDS]
    sample = oracle_pairs(
        (
            (scripts[r["client"]].queries[r["seq"]], r["response"])
            for r in first.responses
        ),
        {k: ORACLE_SAMPLE // len(classic) for k in classic},
    )
    check_against_reference(ctx, out, fx, sample, 0.1 * ctx.seconds)

    def fresh_calls(_i: int) -> list:
        return [
            (lambda q=q: query_store(fx.store_dir, q))
            for q in gen.queries(rng, fx.profile, shape.weights, ONESHOT_CHUNK)
        ]

    oneshot_phase(ctx, out, fresh_calls, response_failed, 0.25 * ctx.seconds)
    return out


def run_search_cold(ctx: Ctx) -> Outcome:
    return run_shape(ctx, COLD)


def run_mixed_hot(ctx: Ctx) -> Outcome:
    return run_shape(ctx, HOT)
