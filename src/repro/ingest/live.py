"""The live-ingest driver rank: replay, project, publish, compact.

An :class:`IngestPlan` runs as one extra rank inside a broker session
(:func:`repro.serve.broker.serve` with ``ingest=plan``): it replays an
ingest journal's batches at their recorded virtual arrival times,
projects each batch into a delta segment, publishes a new generation
(atomic ``CURRENT`` flip), and compacts when the
:class:`~repro.ingest.compact.CompactionPolicy` trips.  All the real
file writes happen at deterministic virtual instants -- the driver
charges the modelled projection/write cost *before* touching disk, so
the publish is visible exactly at the rank's post-charge clock, and
the scheduler's min-clock rule gives every broker poll a deterministic
view of the store under both scheduler mechanisms.

Rising null-signature rates (vocabulary drift) never mutate the model
mid-flight; they set the ``rebuild_recommended`` flag (and the
``ingest.rebuild_flags`` counter) so the operator can schedule a full
engine re-run.

**Epoch-pinning contract.**  Publishing a generation is strictly
additive: every new generation writes its segments under a fresh
``gen-K`` directory and flips ``CURRENT``; neither publish nor
compaction ever deletes or rewrites a previously published
generation's files or manifest.  A reader that captured generation
*k*'s manifest (a workbench session opened at epoch *k*, a broker
mid-query) can therefore keep answering from *k*'s exact bytes for as
long as it likes while this driver publishes *k+1*, *k+2*, ... -- the
property the workbench tier's epoch-pinned sessions and its
``(tenant, set digest, epoch)`` artifact cache rest on.  Reclaiming
superseded generations is an offline operator action, never part of a
live session.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

from repro.engine.incremental import refresh_recommended
from repro.engine.results import EngineResult
from repro.facets.stamp import extract_facets
from repro.runtime.cluster import MachineSpec
from repro.serve.broker import BrokerConfig, ServeReport, serve
from repro.serve.workload import ClientScript

from .compact import CompactionPolicy, compact_store, should_compact
from .delta import append_generation, build_delta

#: modelled projection cost per document (abstract flops)
_PROJECT_FLOPS_PER_DOC = 4_000
#: modelled publish overhead per generation (abstract cpu ops)
_PUBLISH_OPS = 2_000


@dataclass(frozen=True)
class IngestConfig:
    """Policy knobs of one live-ingest session."""

    #: compaction trigger thresholds
    compaction: CompactionPolicy = field(default_factory=CompactionPolicy)
    #: flag a full-model rebuild past this null-signature fraction
    refresh_null_fraction: float = 0.25
    #: ignore the null fraction of batches smaller than this
    refresh_min_docs: int = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.refresh_null_fraction <= 1.0:
            raise ValueError("refresh_null_fraction must be in [0, 1]")
        if self.refresh_min_docs < 1:
            raise ValueError("refresh_min_docs must be >= 1")


@dataclass
class IngestPlan:
    """One serve-side ingest run: batches to replay plus policy.

    ``batches`` is ``[(corpus, arrival_s), ...]`` -- typically
    :meth:`repro.ingest.journal.IngestJournal.replay` output.  The plan
    carries the frozen :class:`EngineResult` because projection needs
    the model arrays, not just the store.
    """

    result: EngineResult
    batches: list
    config: IngestConfig = field(default_factory=IngestConfig)
    tokenizer_config: object = None

    def run(self, ctx, store_dir: str) -> dict:
        """Drive ingest inside a broker session (rank ``nshards+1``)."""
        cfg = self.config
        m = ctx.metrics
        c_docs = m.counter("ingest.docs")
        c_null = m.counter("ingest.null_signatures")
        c_gen = m.counter("ingest.generations")
        c_comp = m.counter("ingest.compactions")
        c_flag = m.counter("ingest.rebuild_flags")
        events: list[dict] = []
        rebuild = False
        docs_total = 0
        for i, (corpus, arrival) in enumerate(self.batches):
            if ctx.now < arrival:
                ctx.charge(arrival - ctx.now)
            delta = build_delta(
                self.result,
                corpus.documents,
                tokenizer_config=self.tokenizer_config,
                facets=extract_facets(corpus),
            )
            n = delta.n_docs
            # charge the modelled work first so the publish lands at
            # the post-charge virtual instant
            ctx.charge_flops(n * _PROJECT_FLOPS_PER_DOC)
            ctx.charge_cpu(_PUBLISH_OPS)
            manifest = append_generation(
                store_dir, [delta], published_s=float(ctx.now)
            )
            ctx.charge_io(manifest.deltas[-1].nbytes)
            # yield the turn: the publish is a globally-visible side
            # effect, so lower-clock ranks must run before we proceed
            ctx.sync()
            c_docs.inc(ctx.rank, float(n))
            c_null.inc(ctx.rank, float(delta.null_count))
            c_gen.inc(ctx.rank)
            docs_total += n
            flagged = refresh_recommended(
                delta.projected,
                max_null_fraction=cfg.refresh_null_fraction,
                min_docs=cfg.refresh_min_docs,
            )
            if flagged:
                rebuild = True
                c_flag.inc(ctx.rank)
            events.append(
                {
                    "event": "publish",
                    "batch": i,
                    "generation": manifest.generation,
                    "docs": n,
                    "null_signatures": delta.null_count,
                    "arrival_s": float(arrival),
                    "published_s": manifest.published_s,
                    "rebuild_flagged": bool(flagged),
                }
            )
            if should_compact(manifest, cfg.compaction):
                merged_bytes = (
                    manifest.base_nbytes + manifest.delta_nbytes
                )
                ctx.charge_io(2 * merged_bytes)
                ctx.charge_cpu(_PUBLISH_OPS)
                manifest = compact_store(
                    store_dir, published_s=float(ctx.now)
                )
                c_comp.inc(ctx.rank)
                ctx.sync()
                events.append(
                    {
                        "event": "compact",
                        "generation": manifest.generation,
                        "virtual_s": float(ctx.now),
                        "nbytes": merged_bytes,
                    }
                )
        return {
            "events": events,
            "batches": len(self.batches),
            "docs_ingested": docs_total,
            "final_generation": events[-1]["generation"] if events else 0,
            "rebuild_recommended": rebuild,
            "finished_s": float(ctx.now),
        }


def serve_live(
    store_dir: str | os.PathLike,
    scripts: list[ClientScript],
    plan: IngestPlan,
    config: Optional[BrokerConfig] = None,
    machine: Optional[MachineSpec] = None,
    faults=None,
) -> ServeReport:
    """One broker session with live ingest churning alongside.

    Convenience wrapper over :func:`repro.serve.broker.serve` with the
    extra ingest rank; the returned report carries the driver's outcome
    in ``report.ingest`` and per-generation query stats in
    ``report.generations``.
    """
    return serve(
        store_dir,
        scripts,
        config=config,
        machine=machine,
        faults=faults,
        ingest=plan,
    )
