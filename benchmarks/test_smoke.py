"""End-to-end smoke checks: ``python -m repro.cli`` in subprocesses.

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_smoke.py``. The tests hold the
byte-identity contract where only whole runs show it -- sim ≡ mp at P=8, fast scheduler ≡
reference (``REPRO_SCHED_SLOWPATH=1``), 4 shards ≡ 1, compacted ≡ fresh build -- and check
that a damaged shard is one ``error:`` line, not a traceback.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.datasets.pubmed import generate_pubmed
from repro.engine import load_result
from repro.engine.config import EngineConfig
from repro.index.termindex import build_term_postings
from repro.ingest.delta import extend_result
from repro.ingest.feed import FeedConfig, FeedSource
from repro.serve.store import Container, build_shards, load_manifest, load_model
from repro.text.documents import Corpus

SRC = str(Path(__file__).resolve().parents[1] / "src")
SEED = ("--seed", "4", "--themes", "6")
RESULTS = ("--results", "results/result.npz", "--corpus", "corpus.jsonl")
PUBLISH = (  # large thresholds keep the deltas live for an explicit compaction
    "ingest-publish", "--store", "store/", *RESULTS[:2], "--journal", "journal/",
    "--compact-max-deltas", "99", "--compact-max-bytes-fraction", "99",
)
# one seeded dashboard session over store/, its transcript to stdout
DASHBOARD = """
import json, sys
from repro.runtime import counter_totals
from repro.serve import canonical_response, serve, store_profile
from repro.serve.workload import generate_dashboard_workload
scripts = generate_dashboard_workload(store_profile("store/"), 6, 6, seed=7)
report = serve("store/", scripts, backend=sys.argv[1])
answers = {f"{r['client']}/{r['seq']}": canonical_response(r["response"]) for r in report.responses}
facets = {k: v for k, v in counter_totals(report.metrics).items() if k.startswith("facets.")}
json.dump({"answers": answers, "facets": facets}, sys.stdout, sort_keys=True, default=bytes.hex)
"""


def cli(cwd, *argv, slow=False, rc=0, code=None):
    """``python -m repro.cli ARGV`` (or ``python -c CODE ARGV``) in ``cwd``,
    under the reference scheduler when ``slow``; asserts the exit status."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path, REPRO_SCHED_SLOWPATH="1" if slow else "0")
    head = ["-c", code] if code else ["-m", "repro.cli"]
    proc = subprocess.run([sys.executable, *head, *map(str, argv)], cwd=cwd, env=env,
                          capture_output=True, timeout=600)
    assert proc.returncode == rc, proc.stderr.decode()
    return proc


def build(cwd: Path, *generate) -> bytes:
    """corpus.jsonl (120 KB) -> results/ (P=4) -> store/ (4 shards)."""
    cli(cwd, "generate", "--dataset", "pubmed", "--bytes", "120000", *SEED, *generate,
        "--out", "corpus.jsonl")
    cli(cwd, "run", "--corpus", "corpus.jsonl", "--nprocs", "4", "--out", "results/")
    return cli(cwd, "serve-build", *RESULTS, "--shards", "4", "--out", "store/").stdout


def feed(cwd: Path, batches: int, *extra) -> int:
    """Journal and publish 8-doc batches continuing the corpus's stream."""
    n_docs = len((cwd / "corpus.jsonl").read_text().splitlines()) - 1  # a header line
    cli(cwd, "ingest-feed", "--journal", "journal/", "--batches", batches, "--batch-docs",
        "8", *SEED, "--skip-docs", n_docs, "--start-doc-id", n_docs,
        "--mean-interarrival", "0.05", *extra)
    cli(cwd, *PUBLISH)
    return n_docs


@pytest.fixture(scope="module")
def base(tmp_path_factory) -> Path:
    build(path := tmp_path_factory.mktemp("smoke"))
    return path


def test_metrics_report_same_across_schedulers_and_backends(tmp_path):
    def report(name, backend, slow=False):
        out = cli(tmp_path, "metrics-report", "--nprocs", "8", "--downscale", "40000",
                  "--backend", backend, "--json", f"{name}.json", slow=slow).stdout
        return out, (tmp_path / f"{name}.json").read_bytes()
    fast = report("fast", "sim")
    assert report("slow", "sim", slow=True) == fast
    assert report("mp", "mp") == fast


def test_run_p8_sim_equals_mp(tmp_path):
    cli(tmp_path, "generate", "--dataset", "pubmed", "--bytes", "250000", *SEED,
        "--out", "corpus.jsonl")
    for backend in ("sim", "mp"):
        cli(tmp_path, "run", "--corpus", "corpus.jsonl", "-P", "8", "--backend", backend,
            "--out", backend)
    npz = [(tmp_path / b / "result.npz").read_bytes() for b in ("sim", "mp")]
    assert npz[0] == npz[1]


def test_serve_queries_across_shards_replicas_and_schedulers(base, tmp_path):
    for query in (("--cluster", "0"), ("--region", "0,0,5")):
        cli(base, "serve-query", "--store", "store/", *query)
    assert b"replication 2" in cli(base, "serve-build", *RESULTS, "--shards", "4",
                                   "--replicas", "2", "--out", tmp_path / "r2").stdout
    cli(base, "serve-query", "--store", tmp_path / "r2", "--cluster", "0")
    cli(base, "serve-build", *RESULTS, "--shards", "1", "--out", tmp_path / "one")
    terms = load_model(base / "store").terms[:3]
    # three terms: dense run accumulation; one term: the block skip
    for q in (" ".join(terms), terms[0]):
        four, one = (cli(base, "serve-query", "--store", s, "--search", q, "--top", "50")
                     for s in ("store/", tmp_path / "one"))
        assert four.stdout == one.stdout
    fast, slow = (cli(base, "serve-query", "--store", "store/", "--search", " ".join(terms),
                      slow=slow) for slow in (False, True))
    assert fast.stdout == slow.stdout


@pytest.mark.parametrize(
    "offset, patch, says",
    [(0, b"XXXXXXXX", "bad magic"), (8, b"\x02\0\0\0", "unsupported format version 2")],
    ids=["magic", "version-2"],
)
def test_damaged_shard_is_one_error_line(base, tmp_path, offset, patch, says):
    shutil.copytree(base / "store", tmp_path / "bad")
    data = (shard := tmp_path / "bad/shard-001.repro").read_bytes()
    shard.write_bytes(data[:offset] + patch + data[offset + len(patch):])
    proc = cli(tmp_path, "serve-query", "--store", "bad/", "--cluster", "0", rc=1)
    assert proc.stderr.decode().startswith(f"error: bad/shard-001.repro: {says}")
    assert b"Traceback" not in proc.stderr and proc.stdout == b""


def test_ingest_then_compact_equals_fresh_build(base, tmp_path):
    shutil.copytree(base, tmp_path, dirs_exist_ok=True)
    n_docs = feed(tmp_path, 3)
    # replaying the same journal is a no-op
    assert b"nothing to publish" in cli(tmp_path, *PUBLISH).stdout
    cli(tmp_path, "ingest-status", "--store", "store/")
    for doc in (0, n_docs):  # a base document, then a fed one
        cli(tmp_path, "serve-query", "--store", "store/", "--similar", doc)
    cli(tmp_path, "ingest-compact", "--store", "store/")
    cli(tmp_path, "ingest-status", "--store", "store/")
    # a fresh build, its postings one independent inversion of base + fed docs
    corpora = [c for c, _ in FeedSource(FeedConfig(
        batch_docs=8, n_batches=3, seed=4, themes=6, skip_docs=n_docs,
        start_doc_id=n_docs, mean_interarrival_s=0.05)).batches()]
    grown = extend_result(load_result(tmp_path / "results/result.npz"), corpora)
    docs = generate_pubmed(120_000, seed=4, n_themes=6).documents
    docs += [d for c in corpora for d in c.documents]
    postings = build_term_postings(Corpus(name="grown", documents=docs), grown,
                                   EngineConfig().tokenizer)
    build_shards(grown, tmp_path / "fresh", 4, postings=postings)
    mine, theirs = load_manifest(tmp_path / "store"), load_manifest(tmp_path / "fresh")
    assert mine.n_docs == theirs.n_docs and not mine.deltas
    for a, b in zip(mine.shards, theirs.shards):
        ca, cb = Container(tmp_path / "store" / a.file), Container(tmp_path / "fresh" / b.file)
        assert ca.section_names == cb.section_names
        for name in ca.section_names:
            assert np.array_equal(ca.load(name), cb.load(name)), name


def test_stamped_store_windows_and_dashboard(tmp_path):
    assert b"stamped store: 4 sources" in build(tmp_path, "--facet-sources", "4")
    feed(tmp_path, 2, "--facet-sources", "4")
    for kind in (("counts",), ("terms", "--t0", "0", "--t1", "300", "--top", "8"),
                 ("emerging",)):
        cli(tmp_path, "facet-query", "--store", "store/", "--kind", *kind)
    cli(tmp_path, "themeview-slices", "--store", "store/", "--slices", "4", "--out", "s.json")
    slices = json.loads((tmp_path / "s.json").read_text())
    assert len(slices) == 4 and any(s["n_docs"] for s in slices)
    fast_sim, *others = (cli(tmp_path, backend, code=DASHBOARD, slow=slow).stdout
                         for backend in ("sim", "mp") for slow in (False, True))
    assert fast_sim and others == [fast_sim] * 3


def test_workbench_sessions_and_transcripts(base, tmp_path):
    terms = load_model(base / "store").terms[:3]
    for derive in (("--refine", terms[2], "--derive", "keyphrases"),
                   ("--derive", "relations")):
        cli(base, "workbench-session", "--store", "store/", "--search",
            " ".join(terms[:2]), *derive)
    runs = [(b, m, slow) for b in ("sim", "mp") for m, slow in (("fast", False), ("slow", True))]
    for backend, mode, slow in runs:
        # raw snapshots too: thread-less service ranks vs their threaded
        # reference, and sim vs one process per rank
        cli(tmp_path, "workbench-serve", "--store", base / "store", "--seed", "7",
            "--backend", backend, "--transcript", f"{backend}_{mode}.bin",
            "--metrics-out", f"{backend}_{mode}.json", slow=slow)
    for ext in ("bin", "json"):
        fast_sim, *others = ((tmp_path / f"{b}_{m}.{ext}").read_bytes() for b, m, _ in runs)
        assert others == [fast_sim] * 3, ext
    fast, slow = (cli(tmp_path, "metrics-report", "--snapshot", f"sim_{m}.json").stdout
                  for m in ("fast", "slow"))
    assert b"workbench tier (analyst sessions):" in fast
    assert fast == slow
