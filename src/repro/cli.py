"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``generate``   write a synthetic corpus to a ``.jsonl`` source file
``run``        process a corpus (serial or simulated-parallel engine)
               and export results + ThemeView
``analyze``    interactive queries against a saved result
``bench``      run the bench studies (the paper's figures, engine,
               serving, replicated tier, workbench, dashboard, pruning,
               live ingest), write ``BENCH_virtual.json``, fail on
               drift or a false oracle
``metrics-report``  print the P x P communication matrix, per-stage
               load-imbalance factors, and hashmap RPC locality from
               a saved result (or a fresh downscaled run)
``serve-build``  shard a saved result into an on-disk serving store
``serve-query``  answer one query from a sharded store via the broker
``ingest-feed``  append seeded document batches to an ingest journal
``ingest-publish``  replay a journal against a store: project each
               batch into a delta segment and publish generations
``ingest-compact``  fold a store's delta segments into base shards
``ingest-status``  verify a store and print its generation state

Examples
--------
::

    python -m repro generate --dataset pubmed --bytes 300000 --out corpus.jsonl
    python -m repro run --corpus corpus.jsonl --nprocs 8 --out results/
    python -m repro analyze --results results/result.npz --query "some terms"
    python -m repro bench paper

Every command reports a bad input the same way: ``error: <message>``
on stderr (naming the offending path, or the option whose value is
out of range) and exit status 1.
"""

from __future__ import annotations

import argparse
import json
import math
import pickle
import sys
import zipfile
from pathlib import Path
from typing import Optional, Sequence


class InputError(Exception):
    """An input the command cannot use: a missing or malformed file
    (named in the message) or a bad option value."""


def _read_input(path: Path, parse, what: str):
    """``parse(path)``; a missing or malformed file raises
    :class:`InputError` naming it."""
    try:
        return parse(path)
    except (
        OSError,
        ValueError,
        KeyError,
        TypeError,
        zipfile.BadZipFile,
        pickle.UnpicklingError,
    ) as exc:
        raise InputError(f"{path} is not {what} ({exc})") from exc


def _read_json(path: Path):
    return json.loads(path.read_text())


def _load_result(path: Path):
    from repro.engine import load_result

    return _read_input(path, load_result, "a saved engine result")


#: the smallest value of each numeric option, by command; ``main``
#: checks them before a command runs
_MINIMUMS: dict[str, dict[str, int]] = {
    "generate": {"bytes": 1},
    "run": {"nprocs": 0, "clusters": 1, "major_terms": 1},
    "analyze": {"top": 1},
    "metrics-report": {"nprocs": 1},
    "serve-build": {"shards": 1, "replicas": 1},
    "serve-query": {"top": 1},
    "facet-query": {"top": 1},
    "themeview-slices": {"slices": 1, "grid": 1},
    "workbench-serve": {
        "tenants": 1,
        "sessions_per_tenant": 1,
        "ops_per_session": 1,
        "max_sessions": 1,
        "max_sets": 1,
        "max_derived_bytes": 1,
    },
    "workbench-session": {"top": 1, "n": 1},
}


def _check_minimums(args: argparse.Namespace) -> None:
    for dest, least in _MINIMUMS.get(args.command, {}).items():
        value = getattr(args, dest)
        if value < least:
            flag = "--" + dest.replace("_", "-")
            raise InputError(f"{flag} must be >= {least}, got {value}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Parallel IN-SPIRE-style text engine "
            "(IPPS 2007 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a synthetic corpus")
    g.add_argument(
        "--dataset",
        choices=("pubmed", "trec", "newswire"),
        default="pubmed",
    )
    g.add_argument("--bytes", type=int, default=250_000)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--themes", type=int, default=None)
    g.add_argument(
        "--represented",
        type=float,
        default=None,
        help="real-world byte size this corpus stands for",
    )
    g.add_argument(
        "--facet-sources",
        type=int,
        default=0,
        help=(
            "stamp documents with time/source facets over this many "
            "source regions (0 = unstamped, byte-identical output)"
        ),
    )
    g.add_argument(
        "--facet-span",
        type=float,
        default=600.0,
        help="stamp span in virtual seconds (with --facet-sources)",
    )
    g.add_argument("--out", type=Path, required=True)

    r = sub.add_parser("run", help="run the text engine on a corpus")
    r.add_argument("--corpus", type=Path, required=True)
    r.add_argument(
        "-P",
        "--nprocs",
        type=int,
        default=0,
        help="simulated processors (0 = serial engine)",
    )
    r.add_argument(
        "--backend",
        choices=("sim", "mp"),
        default="sim",
        help=(
            "execution backend for parallel runs: 'sim' (single-"
            "process virtual-time simulator) or 'mp' (one OS process "
            "per rank; bit-identical results)"
        ),
    )
    r.add_argument("--clusters", type=int, default=10)
    r.add_argument("--major-terms", type=int, default=400)
    r.add_argument(
        "--cluster-method",
        choices=("kmeans", "single", "complete", "average"),
        default="kmeans",
    )
    r.add_argument("--seed", type=int, default=0)
    r.add_argument(
        "--fault-plan",
        type=Path,
        default=None,
        help="JSON fault plan to replay (parallel runs only)",
    )
    r.add_argument(
        "--checkpoint-dir",
        type=Path,
        default=None,
        help="directory for stage checkpoints during faulty runs",
    )
    r.add_argument("--out", type=Path, required=True)

    a = sub.add_parser("analyze", help="query a saved engine result")
    a.add_argument("--results", type=Path, required=True)
    a.add_argument("--query", type=str, default=None, help="query terms")
    a.add_argument(
        "--similar", type=int, default=None, help="doc id to match"
    )
    a.add_argument(
        "--cluster", type=int, default=None, help="cluster to summarize"
    )
    a.add_argument("--top", type=int, default=10)

    b = sub.add_parser(
        "bench",
        help="run the bench studies and compare against a baseline",
    )
    b.add_argument(
        "studies",
        nargs="*",
        metavar="STUDY",
        help="studies to run (default: all)",
    )
    b.add_argument(
        "--out",
        type=Path,
        default=Path("BENCH_virtual.json"),
        help="report path (doubles as the next run's baseline)",
    )
    b.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="baseline report to compare against (default: --out)",
    )
    b.add_argument(
        "--update-baseline",
        action="store_true",
        help="skip the comparison and rewrite the baseline file",
    )

    m = sub.add_parser(
        "metrics-report",
        help="report runtime metrics (comm matrix, imbalance, locality)",
    )
    m.add_argument(
        "--results",
        type=Path,
        default=None,
        help=(
            "saved result.npz to report on (default: run the engine "
            "on a freshly generated downscaled corpus)"
        ),
    )
    m.add_argument(
        "--snapshot",
        type=Path,
        default=None,
        help=(
            "render a saved metrics snapshot JSON instead (e.g. the "
            "workbench-serve --metrics-out file)"
        ),
    )
    m.add_argument(
        "-P",
        "--nprocs",
        type=int,
        default=8,
        help="simulated processors for the default run",
    )
    m.add_argument(
        "--backend",
        choices=("sim", "mp"),
        default="sim",
        help="execution backend for the default run",
    )
    m.add_argument(
        "--dataset", choices=("pubmed", "trec"), default="pubmed"
    )
    m.add_argument("--downscale", type=float, default=10_000.0)
    m.add_argument("--seed", type=int, default=7)
    m.add_argument(
        "--format",
        choices=("text", "prometheus"),
        default="text",
        help="text report or Prometheus exposition format",
    )
    m.add_argument(
        "--json",
        type=Path,
        default=None,
        help="also write the raw snapshot as canonical JSON",
    )

    sb = sub.add_parser(
        "serve-build",
        help="shard a saved result into an on-disk serving store",
    )
    sb.add_argument("--results", type=Path, required=True)
    sb.add_argument(
        "--corpus",
        type=Path,
        default=None,
        help=(
            "source corpus to invert for term search postings "
            "(omit to serve signature/cluster queries only)"
        ),
    )
    sb.add_argument("--shards", type=int, default=4)
    sb.add_argument(
        "--replicas",
        type=int,
        default=1,
        help=(
            "default replication factor recorded in the manifest "
            "(the replicated tier's serve_replicated honors it)"
        ),
    )
    sb.add_argument("--out", type=Path, required=True)

    sq = sub.add_parser(
        "serve-query",
        help="answer one query from a sharded store via the broker",
    )
    sq.add_argument("--store", type=Path, required=True)
    sq.add_argument(
        "--search", type=str, default=None, help="ranked term search"
    )
    sq.add_argument(
        "--query", type=str, default=None, help="pseudo-signature query"
    )
    sq.add_argument(
        "--similar", type=int, default=None, help="doc id to match"
    )
    sq.add_argument(
        "--cluster", type=int, default=None, help="cluster to summarize"
    )
    sq.add_argument(
        "--region",
        type=str,
        default=None,
        metavar="X,Y,RADIUS",
        help="landscape region to describe",
    )
    sq.add_argument("--top", type=int, default=10)

    fq = sub.add_parser(
        "facet-query",
        help="answer one window query from a stamped store",
    )
    fq.add_argument("--store", type=Path, required=True)
    fq.add_argument(
        "--kind",
        choices=("counts", "terms", "emerging"),
        required=True,
        help=(
            "counts = per-source document counts; terms = exact "
            "top terms by tf; emerging = terms rising vs. the "
            "preceding window"
        ),
    )
    fq.add_argument(
        "--t0",
        type=float,
        default=None,
        help="window start (default: store stamp range start)",
    )
    fq.add_argument(
        "--t1",
        type=float,
        default=None,
        help="window end, exclusive (default: store stamp range end)",
    )
    fq.add_argument(
        "--source",
        type=int,
        default=-1,
        help="restrict to one source region (-1 = all)",
    )
    fq.add_argument("--top", type=int, default=10)

    ts = sub.add_parser(
        "themeview-slices",
        help="time-sliced ThemeView sequence from a stamped store",
    )
    ts.add_argument("--store", type=Path, required=True)
    ts.add_argument("--slices", type=int, default=4)
    ts.add_argument("--grid", type=int, default=48)
    ts.add_argument(
        "--out",
        type=Path,
        default=None,
        help="write the JSON payload here instead of stdout",
    )

    wb = sub.add_parser(
        "workbench-serve",
        help="replay a seeded analyst workload through the workbench",
    )
    wb.add_argument("--store", type=Path, required=True)
    wb.add_argument("--tenants", type=int, default=2)
    wb.add_argument("--sessions-per-tenant", type=int, default=2)
    wb.add_argument("--ops-per-session", type=int, default=8)
    wb.add_argument("--seed", type=int, default=0)
    wb.add_argument(
        "--backend",
        choices=("sim", "mp"),
        default="sim",
        help="execution backend (answers are byte-identical)",
    )
    wb.add_argument("--max-sessions", type=int, default=4)
    wb.add_argument("--max-sets", type=int, default=16)
    wb.add_argument("--max-derived-bytes", type=int, default=1 << 15)
    wb.add_argument(
        "--session-ttl", type=float, default=120.0,
        help="virtual seconds of idleness before eviction",
    )
    wb.add_argument(
        "--transcript",
        type=Path,
        default=None,
        help="write canonical response lines here (byte-compare anchor)",
    )
    wb.add_argument(
        "--metrics-out",
        type=Path,
        default=None,
        help="write the metrics snapshot JSON here (metrics-report input)",
    )

    wc = sub.add_parser(
        "workbench-session",
        help="run one scripted analyst session and print its responses",
    )
    wc.add_argument("--store", type=Path, required=True)
    wc.add_argument(
        "--script",
        type=Path,
        default=None,
        help=(
            "JSON list of ops: [{\"verb\": \"search\", \"name\": "
            "\"a\", \"terms\": [\"gene\"], ...}, ...] (open/close "
            "are implied)"
        ),
    )
    wc.add_argument(
        "--search",
        type=str,
        default=None,
        help="anchor search terms for the default demo session",
    )
    wc.add_argument(
        "--refine",
        type=str,
        default=None,
        help="refine the anchor set with these terms",
    )
    wc.add_argument(
        "--derive",
        choices=("keyphrases", "cooccur", "relations"),
        default="keyphrases",
        help="derived artifact to compute on the last set",
    )
    wc.add_argument("--top", type=int, default=10, help="hits per set")
    wc.add_argument("--n", type=int, default=10, help="derive terms")
    wc.add_argument("--tenant", type=int, default=0)

    jf = sub.add_parser(
        "ingest-feed",
        help="append seeded document batches to an ingest journal",
    )
    jf.add_argument("--journal", type=Path, required=True)
    jf.add_argument(
        "--dataset",
        choices=("pubmed", "trec", "newswire"),
        default="pubmed",
    )
    jf.add_argument("--batches", type=int, default=4)
    jf.add_argument("--batch-docs", type=int, default=40)
    jf.add_argument("--seed", type=int, default=0)
    jf.add_argument(
        "--themes",
        type=int,
        default=4,
        help="theme count (match the base corpus so vocab overlaps)",
    )
    jf.add_argument(
        "--skip-docs",
        type=int,
        default=0,
        help=(
            "skip this many documents of the seeded stream (continue "
            "past where the static corpus stopped)"
        ),
    )
    jf.add_argument(
        "--start-doc-id",
        type=int,
        default=0,
        help="first doc_id to assign (continue after the store)",
    )
    jf.add_argument("--mean-interarrival", type=float, default=2.0)
    jf.add_argument(
        "--facet-sources",
        type=int,
        default=0,
        help=(
            "stamp feed batches with this many source regions "
            "(0 = unstamped; match the base store)"
        ),
    )

    ip = sub.add_parser(
        "ingest-publish",
        help="replay a journal against a store, publishing generations",
    )
    ip.add_argument("--store", type=Path, required=True)
    ip.add_argument(
        "--results",
        type=Path,
        required=True,
        help="saved result.npz holding the frozen projection model",
    )
    ip.add_argument("--journal", type=Path, required=True)
    ip.add_argument("--compact-max-deltas", type=int, default=4)
    ip.add_argument(
        "--compact-max-bytes-fraction",
        type=float,
        default=0.5,
        help="compact once deltas exceed this fraction of base bytes",
    )
    ip.add_argument("--refresh-null-fraction", type=float, default=0.25)
    ip.add_argument("--refresh-min-docs", type=int, default=1)

    ic = sub.add_parser(
        "ingest-compact",
        help="fold a store's delta segments into base shards",
    )
    ic.add_argument("--store", type=Path, required=True)

    st = sub.add_parser(
        "ingest-status",
        help="verify a store and print its generation state",
    )
    st.add_argument("--store", type=Path, required=True)

    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.datasets import generate_pubmed, generate_trec
    from repro.text import write_corpus

    kwargs = {"seed": args.seed, "represented_bytes": args.represented}
    if args.themes is not None:
        kwargs["n_themes"] = args.themes
    if args.facet_sources:
        from repro.facets import FacetSpec

        kwargs["facets"] = FacetSpec(
            n_sources=args.facet_sources,
            span_s=args.facet_span,
            seed=args.seed,
        )
    from repro.datasets import generate_newswire

    gens = {
        "pubmed": generate_pubmed,
        "trec": generate_trec,
        "newswire": generate_newswire,
    }
    corpus = gens[args.dataset](args.bytes, **kwargs)
    nbytes = write_corpus(corpus, args.out)
    print(
        f"wrote {len(corpus)} documents ({nbytes:,} bytes) to {args.out}"
    )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.engine import (
        EngineConfig,
        ParallelTextEngine,
        SerialTextEngine,
        save_result,
    )
    from repro.text import read_source
    from repro.viz import (
        build_themeview,
        export_json,
        labels_from_result,
        render_ascii,
        write_pgm,
        write_svg,
    )

    corpus = _read_input(args.corpus, read_source, "a readable corpus")
    fault_plan = None
    if args.fault_plan is not None:
        from repro.runtime import FaultPlan

        fault_plan = _read_input(
            args.fault_plan,
            lambda p: FaultPlan.from_json(p.read_text()),
            "a fault plan",
        )
        print(f"replaying fault plan from {args.fault_plan}")
    config = EngineConfig(
        n_major_terms=args.major_terms,
        n_clusters=args.clusters,
        cluster_method=args.cluster_method,
        seed=args.seed,
        fault_plan=fault_plan,
        checkpoint_dir=(
            str(args.checkpoint_dir)
            if args.checkpoint_dir is not None
            else None
        ),
        backend=args.backend,
    )
    if args.nprocs > 0:
        kind = (
            "OS processes" if args.backend == "mp" else "simulated procs"
        )
        print(f"running parallel engine on {args.nprocs} {kind}")
        result = ParallelTextEngine(args.nprocs, config=config).run(corpus)
    else:
        print("running serial engine")
        result = SerialTextEngine(config).run(corpus)
    print(result.summary())

    out = args.out
    out.mkdir(parents=True, exist_ok=True)
    save_result(result, out / "result.npz")
    view = build_themeview(
        result.coords,
        result.assignments,
        cluster_labels=labels_from_result(result),
    )
    write_pgm(view, out / "themeview.pgm")
    export_json(view, out / "themeview.json")
    write_svg(
        result.coords,
        out / "themeview.svg",
        assignments=result.assignments,
        view=view,
    )
    (out / "themeview.txt").write_text(render_ascii(view) + "\n")
    with (out / "coordinates.csv").open("w") as fh:
        fh.write("doc_id,x,y,cluster\n")
        for doc_id, coord, c in zip(
            result.doc_ids, result.coords, result.assignments
        ):
            fh.write(
                f"{doc_id},{coord[0]:.6f},{coord[1]:.6f},{c}\n"
            )
    print(f"results written to {out}/")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis import AnalysisSession

    result = _load_result(args.results)
    session = AnalysisSession(result)
    did_something = False
    if args.query:
        did_something = True
        hits = session.query(args.query.split(), k=args.top)
        print(f"query {args.query!r}:")
        for h in hits:
            print(
                f"  doc {h.doc_id:>6}  score={h.score:.4f}  "
                f"cluster={h.cluster}"
            )
        if not hits:
            print("  (no hits: terms outside the major-term model)")
    if args.similar is not None:
        did_something = True
        try:
            hits = session.similar_documents(args.similar, k=args.top)
        except KeyError as exc:
            raise InputError(f"--similar: {exc.args[0]}") from None
        print(f"documents similar to {args.similar}:")
        for h in hits:
            print(
                f"  doc {h.doc_id:>6}  cosine={h.score:.4f}  "
                f"cluster={h.cluster}"
            )
    if args.cluster is not None:
        did_something = True
        try:
            s = session.cluster_summary(args.cluster)
        except KeyError as exc:
            raise InputError(f"--cluster: {exc.args[0]}") from None
        print(
            f"cluster {s.cluster}: {s.size} docs; "
            f"terms: {' '.join(s.top_terms)}; "
            f"representatives: {s.representative_docs}"
        )
    if not did_something:
        print(result.summary())
        print("topics:", " ".join(result.topic_term_strings[:12]))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import repro.bench.studies  # noqa: F401 - registers the studies
    from repro.bench.study import run_studies

    return run_studies(
        args.studies,
        out=args.out,
        baseline=args.baseline,
        update_baseline=args.update_baseline,
    )


def _cmd_metrics_report(args: argparse.Namespace) -> int:
    from repro.runtime.metrics import (
        render_report,
        to_prometheus,
        validate_snapshot,
    )

    if args.snapshot is not None:
        snap = _read_input(
            args.snapshot,
            lambda p: validate_snapshot(_read_json(p)),
            "a metrics snapshot",
        )
    elif args.results is not None:
        snap = _load_result(args.results).metrics
        if snap is None:
            raise InputError(
                f"{args.results} predates the metrics layer "
                "(no metrics block saved)"
            )
    else:
        from repro.bench.harness import (
            default_figure_config,
            make_workload,
        )
        from repro.engine import ParallelTextEngine
        from repro.runtime import MachineSpec

        workload = make_workload(
            args.dataset,
            args.dataset,
            2.75e9,
            downscale=args.downscale,
            seed=args.seed,
        )
        print(
            f"running {args.dataset} ({len(workload.corpus)} docs, "
            f"downscale {args.downscale:g}) on {args.nprocs} "
            f"simulated procs [{args.backend} backend]",
            file=sys.stderr,
        )
        import dataclasses

        engine = ParallelTextEngine(
            args.nprocs,
            machine=MachineSpec(),
            config=dataclasses.replace(
                default_figure_config(), backend=args.backend
            ),
        )
        snap = engine.run(workload.corpus).metrics
    if args.format == "prometheus":
        print(to_prometheus(snap), end="")
    else:
        print(render_report(snap))
    if args.json is not None:
        args.json.write_text(
            json.dumps(snap, sort_keys=True, indent=2) + "\n"
        )
        print(f"snapshot written to {args.json}", file=sys.stderr)
    return 0


def _cmd_serve_build(args: argparse.Namespace) -> int:
    from repro.serve import build_shards

    result = _load_result(args.results)
    corpus = None
    facets = None
    if args.corpus is not None:
        from repro.facets import extract_facets
        from repro.text import read_source

        corpus = _read_input(args.corpus, read_source, "a readable corpus")
        facets = extract_facets(corpus)
    manifest = build_shards(
        result,
        args.out,
        args.shards,
        corpus=corpus,
        replication=args.replicas,
        facets=facets,
    )
    total = sum(s.nbytes for s in manifest.shards)
    print(
        f"built {manifest.nshards}-shard store for "
        f"{manifest.n_docs} documents ({total:,} shard bytes, "
        f"replication {manifest.replication}) at {args.out}/"
    )
    if corpus is None:
        print(
            "note: no corpus given, term search disabled in this store"
        )
    if manifest.facets is not None:
        fac = manifest.facets
        print(
            f"stamped store: {fac.n_sources} sources, stamps "
            f"[{fac.stamp_lo:.1f}, {fac.stamp_hi:.1f}]s"
        )
    return 0


def _answer(store: Path, query) -> dict:
    """``query_store``; an answer carrying ``"error"`` raises
    :class:`InputError` naming the store."""
    from repro.serve import query_store

    response = query_store(store, query)
    if "error" in response:
        raise InputError(f"{store}: {response['error']}")
    return response


def _cmd_serve_query(args: argparse.Namespace) -> int:
    from repro.serve import Query

    query = None
    if args.search is not None:
        query = Query(
            kind="search", terms=tuple(args.search.split()), k=args.top
        )
    elif args.query is not None:
        query = Query(
            kind="query", terms=tuple(args.query.split()), k=args.top
        )
    elif args.similar is not None:
        query = Query(kind="similar", doc_id=args.similar, k=args.top)
    elif args.cluster is not None:
        query = Query(kind="cluster", cluster=args.cluster)
    elif args.region is not None:
        try:
            x, y, radius = (float(v) for v in args.region.split(","))
        except ValueError:
            raise InputError(
                f"--region wants X,Y,RADIUS, got {args.region!r}"
            ) from None
        if not all(map(math.isfinite, (x, y, radius))) or radius < 0:
            raise InputError(
                "--region wants finite X,Y and a RADIUS >= 0, "
                f"got {args.region!r}"
            )
        query = Query(kind="region", x=x, y=y, radius=radius)
    if query is None:
        raise InputError(
            "pass one of --search/--query/--similar/--cluster/--region"
        )
    print(json.dumps(_answer(args.store, query), indent=2, sort_keys=True))
    return 0


def _cmd_facet_query(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.facets import FacetsUnavailableError
    from repro.serve import Query
    from repro.serve.store import load_manifest

    manifest = load_manifest(args.store)
    if manifest.facets is None:
        raise FacetsUnavailableError(
            str(args.store),
            "store is not stamped: no facet sections "
            "(rebuild from a stamped corpus)",
        )
    fac = manifest.facets
    for flag, value in (("--t0", args.t0), ("--t1", args.t1)):
        if value is not None and not math.isfinite(value):
            raise InputError(f"{flag} must be finite, got {value}")
    if not -1 <= args.source < fac.n_sources:
        raise InputError(
            f"--source must be in [-1, {fac.n_sources}), got {args.source}"
        )
    t0 = fac.stamp_lo if args.t0 is None else args.t0
    # the default upper bound nudges past the last stamp so the
    # half-open window convention never drops the final document
    t1 = (
        np.nextafter(fac.stamp_hi, np.inf)
        if args.t1 is None
        else args.t1
    )
    if t1 <= t0:
        raise InputError(f"empty window [{t0}, {t1}): t1 must be > t0")
    kind = {
        "counts": "facet_counts",
        "terms": "window_terms",
        "emerging": "emerging",
    }[args.kind]
    query = Query(
        kind=kind,
        t0=float(t0),
        t1=float(t1),
        source=args.source,
        n_terms=args.top,
    )
    # a store the window query cannot serve, e.g. one built without
    # postings, answers an error: same convention as the unstamped case
    print(json.dumps(_answer(args.store, query), indent=2, sort_keys=True))
    return 0


def _cmd_themeview_slices(args: argparse.Namespace) -> int:
    from repro.facets import slices_payload, themeview_slices

    slices = themeview_slices(
        args.store, n_slices=args.slices, grid=args.grid
    )
    payload = slices_payload(slices)
    doc = json.dumps(payload, indent=2, sort_keys=True)
    if args.out is not None:
        args.out.write_text(doc + "\n")
        occupied = sum(1 for s in payload if s["n_docs"])
        print(
            f"wrote {len(payload)} slices ({occupied} non-empty) "
            f"to {args.out}"
        )
    else:
        print(doc)
    return 0


def _cmd_workbench_serve(args: argparse.Namespace) -> int:
    from repro.serve.query import canonical_response
    from repro.serve.workload import store_profile
    from repro.workbench import (
        WorkbenchConfig,
        generate_analyst_workload,
        serve_workbench,
    )

    config = WorkbenchConfig(
        max_sessions=args.max_sessions,
        max_sets=args.max_sets,
        max_derived_bytes=args.max_derived_bytes,
        session_ttl_s=args.session_ttl,
    )
    scripts = generate_analyst_workload(
        store_profile(args.store),
        n_tenants=args.tenants,
        sessions_per_tenant=args.sessions_per_tenant,
        ops_per_session=args.ops_per_session,
        seed=args.seed,
    )
    report = serve_workbench(
        str(args.store), scripts, config=config, backend=args.backend
    )
    if args.transcript is not None:
        args.transcript.write_bytes(
            b"\n".join(
                canonical_response(r) for r in report.responses
            )
            + b"\n"
        )
    if args.metrics_out is not None:
        args.metrics_out.write_text(
            json.dumps(report.metrics, indent=2, sort_keys=True) + "\n"
        )
    print(
        f"workbench: {report.served} ops answered, "
        f"{len(report.rejected)} rejected, "
        f"{report.sessions_opened} sessions opened "
        f"({report.sessions_evicted} evicted), "
        f"{report.sets_saved} sets saved"
    )
    print(
        f"artifact cache: {report.artifact_hits} hits / "
        f"{report.artifact_misses} misses "
        f"({report.artifact_hit_rate:.1%}); makespan "
        f"{report.makespan:.3f}s virtual "
        f"({report.throughput:.1f} ops/s)"
    )
    return 0


def _cmd_workbench_session(args: argparse.Namespace) -> int:
    from repro.serve.query import Query
    from repro.workbench import (
        WorkbenchOp,
        WorkbenchScript,
        serve_workbench,
    )

    def _op_from_doc(doc: dict) -> WorkbenchOp:
        query = None
        if "terms" in doc:
            terms = doc["terms"]
            if not isinstance(terms, list) or not all(
                isinstance(t, str) for t in terms
            ):
                raise ValueError(
                    f'"terms" wants a list of strings, got {terms!r}'
                )
            query = Query(
                kind=doc.get("kind", "search"),
                terms=tuple(terms),
                k=int(doc.get("k", args.top)),
            )
        return WorkbenchOp(
            verb=doc["verb"],
            name=doc.get("name", ""),
            base=doc.get("base", ""),
            other=doc.get("other", ""),
            query=query,
            n=int(doc.get("n", args.n)),
            min_support=int(doc.get("min_support", 2)),
        )

    ops: list[WorkbenchOp] = [WorkbenchOp(verb="open")]
    if args.script is not None:
        ops += _read_input(
            args.script,
            lambda p: [_op_from_doc(d) for d in _read_json(p)],
            "a workbench script",
        )
    else:
        if args.search is None:
            raise InputError("pass --search TERMS or --script FILE")
        ops.append(
            WorkbenchOp(
                verb="search",
                name="anchor",
                query=Query(
                    kind="search",
                    terms=tuple(args.search.split()),
                    k=args.top,
                ),
            )
        )
        last = "anchor"
        if args.refine is not None:
            ops.append(
                WorkbenchOp(
                    verb="refine",
                    name="refined",
                    base="anchor",
                    query=Query(
                        kind="search",
                        terms=tuple(args.refine.split()),
                        k=args.top,
                    ),
                )
            )
            last = "refined"
        ops.append(WorkbenchOp(verb=args.derive, base=last, n=args.n))
    ops.append(WorkbenchOp(verb="close"))
    script = WorkbenchScript(
        tenant=args.tenant,
        client=0,
        ops=tuple(ops),
        think_s=tuple(0.0 for _ in ops),
    )
    report = serve_workbench(str(args.store), [script])
    for resp in report.responses:
        print(json.dumps(resp, indent=2, sort_keys=True))
    for rej in report.rejected:
        print(
            f"rejected op {rej.seq} ({rej.verb}): {rej.reason}",
            file=sys.stderr,
        )
    return 0 if not report.rejected else 1


def _cmd_ingest_feed(args: argparse.Namespace) -> int:
    from repro.ingest import FeedConfig, FeedSource, IngestJournal

    if args.journal.exists():
        journal = IngestJournal.open(args.journal)
    else:
        journal = IngestJournal.create(args.journal, corpus_name=args.dataset)
    feed = FeedSource(
        FeedConfig(
            dataset=args.dataset,
            batch_docs=args.batch_docs,
            n_batches=args.batches,
            seed=args.seed,
            start_doc_id=args.start_doc_id,
            mean_interarrival_s=args.mean_interarrival,
            themes=args.themes,
            skip_docs=args.skip_docs,
            facet_sources=args.facet_sources,
        )
    )
    # re-feeding an existing journal continues after its last arrival
    base = journal.batches[-1].arrival_s if journal.batches else 0.0
    for corpus, arrival in feed.batches():
        entry = journal.append(corpus, base + arrival)
        print(
            f"batch {entry.index}: {entry.n_docs} docs at "
            f"t={entry.arrival_s:.3f}s -> {entry.file}"
        )
    print(
        f"journal {args.journal}: {len(journal)} batches, "
        f"{journal.n_docs} documents"
    )
    return 0


def _cmd_ingest_publish(args: argparse.Namespace) -> int:
    from repro.engine.incremental import refresh_recommended
    from repro.facets import extract_facets
    from repro.ingest import (
        CompactionPolicy,
        IngestJournal,
        append_generation,
        build_delta,
        compact_store,
        should_compact,
    )
    from repro.serve import load_manifest

    journal = IngestJournal.open(args.journal)
    manifest = load_manifest(args.store)
    result = _load_result(args.results)
    policy = CompactionPolicy(
        max_deltas=args.compact_max_deltas,
        max_delta_bytes_fraction=args.compact_max_bytes_fraction,
    )
    # the manifest records how many batches are already in: replaying
    # the same journal again publishes only the new tail
    done = manifest.ingested_batches
    pending = journal.replay()[done:]
    if not pending:
        print(
            f"nothing to publish: store already holds "
            f"{done} of {len(journal)} journal batches"
        )
        return 0
    rebuild = False
    for corpus, _arrival in pending:
        delta = build_delta(
            result, corpus.documents, facets=extract_facets(corpus)
        )
        manifest = append_generation(args.store, [delta])
        flagged = refresh_recommended(
            delta.projected,
            max_null_fraction=args.refresh_null_fraction,
            min_docs=args.refresh_min_docs,
        )
        rebuild = rebuild or flagged
        print(
            f"generation {manifest.generation}: +{delta.n_docs} docs "
            f"({delta.null_count} null signatures)"
            + ("  [rebuild recommended]" if flagged else "")
        )
        if should_compact(manifest, policy):
            manifest = compact_store(args.store)
            print(
                f"generation {manifest.generation}: compacted into "
                f"{manifest.nshards} base shards"
            )
    print(
        f"store {args.store}: generation {manifest.generation}, "
        f"{manifest.n_docs} documents, {len(manifest.deltas)} live deltas"
    )
    if rebuild:
        print(
            "warning: null-signature rate crossed the refresh "
            "threshold; schedule a full model rebuild",
            file=sys.stderr,
        )
    return 0


def _cmd_ingest_compact(args: argparse.Namespace) -> int:
    from repro.ingest import compact_store
    from repro.serve import load_manifest

    before = load_manifest(args.store)
    if not before.deltas:
        print(f"store {args.store}: no delta segments, nothing to do")
        return 0
    manifest = compact_store(args.store)
    print(
        f"compacted {len(before.deltas)} deltas into "
        f"{manifest.nshards} shards at generation {manifest.generation}"
    )
    return 0


def _cmd_ingest_status(args: argparse.Namespace) -> int:
    from repro.serve import verify_store

    manifest = verify_store(args.store)
    print(f"store {args.store}: OK")
    print(f"  generation:       {manifest.generation}")
    print(f"  documents:        {manifest.n_docs}")
    print(
        f"  base shards:      {manifest.nshards} "
        f"({manifest.base_nbytes:,} bytes, "
        f"{manifest.base_n_docs} docs)"
    )
    print(
        f"  delta segments:   {len(manifest.deltas)} "
        f"({manifest.delta_nbytes:,} bytes)"
    )
    print(f"  ingested batches: {manifest.ingested_batches}")
    return 0


def _typed_errors() -> tuple:
    """The errors any command reports as ``error: <msg>``, exit 1.

    Evaluated only once a command has raised, so a clean run imports
    no subsystem it did not use.
    """
    from repro.facets import FacetsUnavailableError
    from repro.runtime.metrics import MetricsSchemaError
    from repro.serve import ShardFormatError

    return (
        InputError,
        ShardFormatError,
        FacetsUnavailableError,
        MetricsSchemaError,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "run": _cmd_run,
        "analyze": _cmd_analyze,
        "bench": _cmd_bench,
        "metrics-report": _cmd_metrics_report,
        "serve-build": _cmd_serve_build,
        "serve-query": _cmd_serve_query,
        "facet-query": _cmd_facet_query,
        "themeview-slices": _cmd_themeview_slices,
        "workbench-serve": _cmd_workbench_serve,
        "workbench-session": _cmd_workbench_session,
        "ingest-feed": _cmd_ingest_feed,
        "ingest-publish": _cmd_ingest_publish,
        "ingest-compact": _cmd_ingest_compact,
        "ingest-status": _cmd_ingest_status,
    }
    try:
        _check_minimums(args)
        return handlers[args.command](args)
    except _typed_errors() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
