"""``analyst_sessions``: multi-tenant workbench sessions over the
same shards the serving workloads query."""

from __future__ import annotations

import numpy as np

from repro.workbench import WorkbenchConfig, serve_workbench

from perfbench import gen
from perfbench.bench import Ctx, Outcome
from perfbench.fixture import build_store, served_answer
from perfbench.wl_serving import (
    ONESHOT_CHUNK,
    ORACLE_SAMPLE,
    check_against_reference,
    oneshot_phase,
    oracle_pairs,
    session_failures,
    timed_sessions,
    transcript_digest,
)

N_TENANTS = 8
SESSIONS_PER_TENANT = 3
#: anchor + 22 body ops + trailing keyphrases = 24 ops between open
#: and close, as ISSUE 12 sized a session
BODY_OPS = 22
#: quotas sized so that no op is ever refused: a session saves its
#: anchor plus 15 of the 22 stratified body ops, and three sessions
#: of 16 sets stay under ``max_sets``
WB_CONFIG = WorkbenchConfig(
    max_sessions=4, max_sets=64, max_derived_bytes=1 << 20
)


def _same_set(q, resp: dict, ref) -> bool:
    """A saved set answers with its size and a preview of its head."""
    hits = served_answer(q, resp)
    return resp["size"] == len(ref) and hits == ref[: len(hits)]


def run(ctx: Ctx) -> Outcome:
    out = Outcome()
    fx = build_store(ctx)
    rng = np.random.default_rng((ctx.seed, 0xA5))
    scripts = gen.analyst_scripts(
        rng,
        fx.profile,
        2 if ctx.smoke else N_TENANTS,
        SESSIONS_PER_TENANT,
        BODY_OPS,
    )

    def session():
        return serve_workbench(fx.store_dir, scripts, config=WB_CONFIG)

    first = ctx.stage("workbench.warmup", session)
    out.digest = transcript_digest(first.responses)
    if ctx.traced:
        from perfbench.layers import attribute_analyst

        attribute_analyst(ctx, out, fx, scripts, first, session)
        return out

    timed_sessions(
        ctx,
        out,
        "workbench.session",
        session,
        sum(len(s.ops) for s in scripts),
    )

    # sets built straight from a query (not refined from another set)
    # are what the unsharded session can answer too
    by_client = {s.client: s for s in scripts}
    built = (
        (by_client[r["client"]].ops[r["seq"]], r["response"])
        for r in first.responses
    )
    sample = oracle_pairs(
        ((op.query, resp) for op, resp in built if op.verb == "search"),
        {k: round(ORACLE_SAMPLE * w / 2) for k, w in gen.SET_WEIGHTS.items()},
    )
    check_against_reference(
        ctx, out, fx, sample, 0.1 * ctx.seconds, same=_same_set
    )

    def one_session(script):
        return lambda: serve_workbench(
            fx.store_dir, [script], config=WB_CONFIG
        )

    def sessions(i: int) -> list:
        return [
            one_session(gen.oneshot_session(rng, fx.profile, client=j))
            for j in range(i * ONESHOT_CHUNK, (i + 1) * ONESHOT_CHUNK)
        ]

    oneshot_phase(ctx, out, sessions, session_failures, 0.25 * ctx.seconds)
    return out
