"""One bench-study mechanism: registry, exact compare, runner.

A *study* is a function registered under a name with :func:`study`.
It replays some seeded workload and returns one JSON-shaped document
(string keys, lists, numbers).  The mechanism knows three things about
that document and nothing else:

* every leaf outside an ``info`` sub-dict is an **exact statistic**.
  Virtual times, counts and counter totals are deterministic for a
  given (corpus seed, workload seed, machine), so :func:`compare`
  checks the *whole* document against a baseline and any difference is
  a behavioural change: the run fails (exit 1) unless
  ``--update-baseline``;
* ``info`` sub-dicts, at any depth, hold wall clocks and host facts:
  recorded so ratios stay visible, never compared (absolute walls are
  machine- and load-local);
* every entry of the top-level ``oracles`` sub-dict is a named boolean
  that must be true -- byte-identity of answers across shard counts,
  schedulers and backends, a crash masked or reproduced, a study that
  actually exercised what it claims to.

``python -m repro bench [STUDY ...]`` (:func:`run_studies`) runs the
named studies (default: all registered, see
:mod:`repro.bench.studies`) over one shared :class:`Fixture` and
writes ``{"schema", "commit", "env", "studies": {name: document}}``.
Virtual statistics depend on the engine's BLAS-backed stages
(k-means/PCA assignments shape per-query payload sizes), so baselines
are machine-local: CI writes its own before comparing, and the
committed ``BENCH_virtual.json`` documents one reference machine.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import tempfile
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from repro.datasets.pubmed import generate_pubmed
from repro.engine.config import EngineConfig
from repro.engine.serial import SerialTextEngine
from repro.index.termindex import build_term_postings
from repro.runtime.metrics import counter_totals
from repro.serve.broker import SessionReport
from repro.serve.store import build_shards

SCHEMA = "repro-bench/1"
DEFAULT_OUT = "BENCH_virtual.json"

CORPUS_BYTES = 120_000
CORPUS_SEED = 4

#: engine sized for a benchmark corpus, not a paper figure
BENCH_ENGINE = EngineConfig(n_major_terms=300, n_clusters=8, chunk_docs=8)

#: name -> ``run(fixture, progress) -> document``
STUDIES: dict[str, Callable] = {}


def study(name: str):
    """Register the decorated function as the study called ``name``."""

    def register(run: Callable) -> Callable:
        STUDIES[name] = run
        return run

    return register


class Fixture:
    """Seeded corpus -> engine result -> term postings -> shard stores.

    Each link is built on first use and kept, so the studies of one
    run that share a corpus (``serving``, ``replica``, ``workbench``,
    ``ingest``) pay for it once.  Everything lands under ``tmp``,
    which the caller owns and removes.
    """

    def __init__(
        self,
        tmp: Path,
        corpus_bytes: int = CORPUS_BYTES,
        engine: EngineConfig = BENCH_ENGINE,
        facets=None,
    ):
        self.tmp = Path(tmp)
        self.corpus_bytes = corpus_bytes
        self.engine = engine
        self.facets = facets
        self._stores: dict[tuple[int, int], str] = {}

    @cached_property
    def corpus(self):
        return generate_pubmed(
            self.corpus_bytes,
            seed=CORPUS_SEED,
            n_themes=6,
            facets=self.facets,
        )

    @cached_property
    def result(self):
        return SerialTextEngine(self.engine).run(self.corpus)

    @cached_property
    def postings(self):
        return build_term_postings(
            self.corpus, self.result, self.engine.tokenizer
        )

    def scratch(self, prefix: str) -> Path:
        """A new empty directory under ``tmp``."""
        return Path(tempfile.mkdtemp(dir=self.tmp, prefix=prefix))

    def fresh_store(self, nshards: int, replication: int = 1) -> str:
        """A newly built store the caller may mutate (live ingest)."""
        store_dir = str(self.scratch(f"store-{nshards}-"))
        build_shards(
            self.result,
            store_dir,
            nshards,
            postings=self.postings,
            replication=replication,
            corpus=self.corpus,
        )
        return store_dir

    def store(self, nshards: int, replication: int = 1) -> str:
        """The shared read-only store at this shape, built once."""
        key = (nshards, replication)
        if key not in self._stores:
            self._stores[key] = self.fresh_store(nshards, replication)
        return self._stores[key]


def point(
    report: SessionReport, counters_prefix: str | tuple[str, ...], **extra
) -> dict:
    """The exact statistics of one session report.

    What every :class:`~repro.serve.broker.SessionReport` derives,
    rounded once here, then the study's own ``extra`` fields, then the
    totals of every counter family under ``counters_prefix``.
    """
    return {
        "served": report.served,
        "degraded": report.degraded,
        "degraded_rate": round(report.degraded_rate, 6),
        "cache_hit_rate": round(report.cache_hit_rate, 6),
        "throughput": round(report.throughput, 6),
        "p50_latency_s": round(report.latency_percentile(50), 9),
        "p99_latency_s": round(report.latency_percentile(99), 9),
        "makespan_s": round(report.makespan, 9),
        **extra,
        "counters": {
            k: v
            for k, v in counter_totals(report.metrics).items()
            if k.startswith(counters_prefix)
        },
    }


def say(progress, label: str, pt: dict, note: str = "") -> None:
    """One progress line for a :func:`point`."""
    if progress:
        progress(
            f"{label}: {pt['served']} served, "
            f"{pt['throughput']:.1f}/s virtual, "
            f"p99 {pt['p99_latency_s'] * 1e3:.2f} ms"
            + (f", {note}" if note else "")
        )


@dataclass
class Drift:
    """One leaf where a document and its baseline differ."""

    path: str
    baseline: object
    measured: object


_ABSENT = "<absent>"


def compare(doc, baseline, path: str = "") -> list[Drift]:
    """Every leaf outside ``info`` where ``doc`` differs from ``baseline``.

    Dicts are walked key by key (a key on one side only is a drift
    against ``"<absent>"``); anything else, lists included, is a leaf
    compared with ``==``.  Paths are ``path`` and the keys, joined by
    dots.
    """
    if not (isinstance(doc, dict) and isinstance(baseline, dict)):
        return [] if doc == baseline else [Drift(path, baseline, doc)]
    drifts: list[Drift] = []
    for key in [*doc, *(k for k in baseline if k not in doc)]:
        if key != "info":
            drifts += compare(
                doc.get(key, _ABSENT),
                baseline.get(key, _ABSENT),
                f"{path}.{key}" if path else str(key),
            )
    return drifts


def _git_commit() -> str:
    try:
        return (
            subprocess.run(
                ["git", "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                timeout=10,
                cwd=Path(__file__).resolve().parent,
            ).stdout.strip()
            or "unknown"
        )
    except OSError:  # pragma: no cover - git missing
        return "unknown"


def _load_baseline(path: Path, required: bool) -> Optional[dict]:
    """The baseline document at ``path``; ``ValueError`` if unusable.

    Only the implicit default (the ``--out`` file of a first run) may
    be absent: a baseline somebody named must exist, parse and carry
    this schema, or the run would "pass" having compared nothing.
    """
    if not required and not path.exists():
        return None
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: not JSON ({exc})") from exc
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != SCHEMA or not isinstance(doc.get("studies"), dict):
        raise ValueError(
            f"{path}: schema {schema!r} is not a {SCHEMA!r} report"
        )
    return doc


def run_studies(
    names=(),
    out: str | Path = DEFAULT_OUT,
    baseline: Optional[str | Path] = None,
    update_baseline: bool = False,
    progress=print,
) -> int:
    """Full CLI flow; returns a process exit code.

    The file at ``out`` doubles as the next run's baseline unless
    ``baseline`` names another.  When it does double, a failing run
    leaves it untouched, and a passing one rewrites it with the studies
    not run carried over unchanged (``NOT RUN``) and no ``baseline``
    block; a separate ``out`` file gets the block (commit, drift,
    uncompared) whatever the outcome.  ``update_baseline`` rewrites
    ``out`` without comparing -- for intentional behaviour or
    cost-model changes -- and also carries over the studies it did not
    run from ``out`` when that is a report (an unusable file is simply
    replaced).

    Exit 2: unknown study or unusable baseline, before any study runs.
    Exit 1: a ``DRIFT <study>.<path>`` (an exact statistic changed) or
    an ``ORACLE <study>.<name>`` (a named boolean is false).  A study
    the baseline lacks is reported as ``NOT COMPARED``, never skipped
    silently.
    """
    progress = progress or (lambda *_args: None)
    names = list(names) or list(STUDIES)
    try:
        unknown = [n for n in names if n not in STUDIES]
        if unknown:
            raise ValueError(
                f"unknown study {unknown[0]!r} (known: {', '.join(STUDIES)})"
            )
        base = (
            None
            if update_baseline
            else _load_baseline(
                Path(baseline or out), required=baseline is not None
            )
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    prior = base
    if update_baseline:
        try:
            prior = _load_baseline(Path(out), required=False)
        except ValueError:
            prior = None
    report = {
        "schema": SCHEMA,
        "commit": _git_commit(),
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpus": os.cpu_count() or 1,
        },
        "studies": {},
    }
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        fixture = Fixture(Path(tmp))
        for name in names:
            # through JSON, so the comparison sees what the file holds
            report["studies"][name] = json.loads(
                json.dumps(STUDIES[name](fixture, progress))
            )
    failures = [
        f"ORACLE {name}.{oracle}"
        for name, doc in report["studies"].items()
        for oracle, ok in doc.get("oracles", {}).items()
        if not ok
    ]
    # --out is also the baseline: the file is only ever replaced by a
    # run that matches it, and never holds a comparison of itself
    rewrites_base = base is not None and (
        Path(baseline or out).resolve() == Path(out).resolve()
    )
    if base is not None:
        drifts = [
            d
            for name, doc in report["studies"].items()
            if name in base["studies"]
            for d in compare(doc, base["studies"][name], name)
        ]
        uncompared = [n for n in names if n not in base["studies"]]
        if not rewrites_base:
            report["baseline"] = {
                "commit": base.get("commit", "unknown"),
                "drift": [asdict(d) for d in drifts],
                "uncompared": uncompared,
            }
        failures += [
            f"DRIFT {d.path}: baseline {d.baseline!r} vs "
            f"measured {d.measured!r}"
            for d in drifts
        ]
        for name in uncompared:
            progress(f"NOT COMPARED {name}: absent from the baseline")
    if rewrites_base or (update_baseline and prior is not None):
        # a subset run must not drop the other studies from the
        # file it rewrites: keep the file's documents for them
        for name in prior["studies"]:
            if name not in report["studies"]:
                progress(f"NOT RUN {name}: kept from {out}")
        report["studies"] = {**prior["studies"], **report["studies"]}
    if rewrites_base and failures:
        progress(f"kept {out} unchanged: the run does not match it")
    else:
        Path(out).write_text(json.dumps(report, indent=2) + "\n")
        progress(f"wrote {out}")
    for line in failures:
        progress(line)
    return 1 if failures else 0
