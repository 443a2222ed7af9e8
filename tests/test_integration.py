"""End-to-end integration tests across every subsystem.

Source files on disk (in the paper's corpora formats) -> parallel
engine on a simulated cluster -> persisted results -> interactive
analysis -> ThemeView export.
"""

import json

import numpy as np
import pytest

from repro.analysis import AnalysisSession
from repro.datasets import generate_pubmed, generate_trec
from repro.engine import (
    EngineConfig,
    ParallelTextEngine,
    SerialTextEngine,
    load_result,
    save_result,
)
from repro.text import (
    Corpus,
    Document,
    read_source,
    write_medline,
    write_trec_sgml,
)
from repro.viz import (
    build_themeview,
    export_json,
    labels_from_result,
    render_ascii,
    write_pgm,
)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Full pipeline run shared by the assertions below."""
    root = tmp_path_factory.mktemp("integration")

    # 1. realistic source files on disk
    med = generate_pubmed(70_000, seed=23, n_themes=4)
    gov = generate_trec(70_000, seed=23, n_themes=4)
    write_medline(med, root / "pubmed.med")
    write_trec_sgml(gov, root / "gov2.trec")

    # 2. scan the sources back and concatenate, renumbering the docs
    sources = [read_source(root / "pubmed.med"), read_source(root / "gov2.trec")]
    fields = [d.fields for c in sources for d in c]
    corpus = Corpus("mixed", [Document(i, f) for i, f in enumerate(fields)])

    # 3. parallel engine
    cfg = EngineConfig(n_major_terms=150, n_clusters=5, kmeans_sample=48)
    result = ParallelTextEngine(6, config=cfg).run(corpus)

    # 4. persist + reload
    save_result(result, root / "result.npz")
    loaded = load_result(root / "result.npz")

    # 5. viz exports
    view = build_themeview(
        loaded.coords,
        loaded.assignments,
        cluster_labels=labels_from_result(loaded),
        grid=32,
    )
    write_pgm(view, root / "tv.pgm")
    export_json(view, root / "tv.json")

    return {
        "root": root,
        "corpus": corpus,
        "cfg": cfg,
        "result": result,
        "loaded": loaded,
        "view": view,
    }


def test_sources_roundtrip_preserved_documents(pipeline):
    corpus = pipeline["corpus"]
    assert len(corpus) > 30
    # mixed corpus carries both field families
    names = {name for d in corpus.documents for name in d.fields}
    assert "abstract" in names  # pubmed part
    assert "url" in names or "body" in names  # trec part


def test_engine_output_complete(pipeline):
    result = pipeline["result"]
    corpus = pipeline["corpus"]
    assert result.n_docs == len(corpus)
    assert result.coords.shape == (len(corpus), 2)
    assert result.n_topics >= 2
    assert np.isfinite(result.coords).all()
    assert result.timings.virtual


def test_parallel_equals_serial_on_mixed_sources(pipeline):
    s = SerialTextEngine(pipeline["cfg"]).run(pipeline["corpus"])
    p = pipeline["result"]
    assert p.major_term_strings == s.major_term_strings
    np.testing.assert_array_equal(p.association, s.association)
    np.testing.assert_allclose(p.coords, s.coords, atol=1e-7)


def test_persisted_result_identical(pipeline):
    result, loaded = pipeline["result"], pipeline["loaded"]
    np.testing.assert_array_equal(loaded.signatures, result.signatures)
    assert loaded.major_terms == result.major_terms


def test_analysis_over_loaded_result(pipeline):
    sess = AnalysisSession(pipeline["loaded"])
    doc = int(pipeline["loaded"].doc_ids[0])
    assert sess.similar_documents(doc, k=3)
    summary = sess.cluster_summary(0)
    assert summary.size >= 0
    term = pipeline["loaded"].topic_term_strings[0]
    assert sess.query([term], k=3)


def test_viz_exports_valid(pipeline):
    root = pipeline["root"]
    assert (root / "tv.pgm").read_bytes().startswith(b"P5")
    obj = json.loads((root / "tv.json").read_text())
    assert obj["grid"] == 32
    text = render_ascii(pipeline["view"])
    assert len(text.splitlines()) >= 32


def test_chrome_trace_of_engine_run(pipeline, tmp_path):
    from repro.engine.parallel import _engine_rank_main
    from repro.runtime import Cluster, MachineSpec
    from repro.text import partition_documents

    corpus = pipeline["corpus"]
    parts = partition_documents(corpus.documents, 3)
    sim = Cluster(3, MachineSpec()).run(
        _engine_rank_main, parts, pipeline["cfg"]
    )
    path = tmp_path / "trace.json"
    sim.tracer.write_chrome_trace(path)
    events = json.loads(path.read_text())
    names = {e["name"] for e in events}
    assert {"scan", "index", "topic", "am", "docvec", "clusproj"} <= names
