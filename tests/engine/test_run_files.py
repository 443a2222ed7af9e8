"""Parallel file-scanning path (run_files) tests."""

import numpy as np
import pytest

from repro.datasets import generate_pubmed, generate_trec
from repro.engine import (
    EngineConfig,
    ParallelTextEngine,
    SerialTextEngine,
)
from repro.text import (
    Corpus,
    Document,
    write_corpus,
    write_medline,
    write_trec_sgml,
)

_CFG = EngineConfig(n_major_terms=120, n_clusters=4, kmeans_sample=48)


@pytest.fixture(scope="module")
def source_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("sources")
    corpora = [
        generate_pubmed(30_000, seed=51, n_themes=3),
        generate_pubmed(30_000, seed=52, n_themes=3),
        generate_pubmed(30_000, seed=53, n_themes=3),
        generate_pubmed(30_000, seed=54, n_themes=3),
    ]
    paths = []
    for i, c in enumerate(corpora):
        p = root / f"part{i}.jsonl"
        write_corpus(c, p)
        paths.append(p)
    docs = [d.fields for c in corpora for d in c]
    merged = Corpus("sources", [Document(i, f) for i, f in enumerate(docs)])
    return paths, merged


def test_run_files_matches_in_memory(source_files):
    paths, merged = source_files
    from_files = ParallelTextEngine(3, config=_CFG).run_files(paths)
    in_memory = ParallelTextEngine(3, config=_CFG).run(merged)
    assert from_files.n_docs == len(merged)
    assert from_files.major_term_strings == in_memory.major_term_strings
    np.testing.assert_array_equal(
        from_files.association, in_memory.association
    )
    np.testing.assert_array_equal(
        from_files.signatures, in_memory.signatures
    )


def test_run_files_matches_serial(source_files):
    paths, merged = source_files
    from_files = ParallelTextEngine(4, config=_CFG).run_files(paths)
    serial = SerialTextEngine(_CFG).run(merged)
    assert from_files.major_term_strings == serial.major_term_strings
    np.testing.assert_array_equal(
        from_files.signatures, serial.signatures
    )


def test_run_files_doc_ids_contiguous(source_files):
    paths, _ = source_files
    res = ParallelTextEngine(3, config=_CFG).run_files(paths)
    np.testing.assert_array_equal(res.doc_ids, np.arange(res.n_docs))


def test_run_files_more_ranks_than_files(source_files):
    paths, merged = source_files
    res = ParallelTextEngine(8, config=_CFG).run_files(paths)
    assert res.n_docs == len(merged)


def test_run_files_mixed_formats(tmp_path):
    med = generate_pubmed(25_000, seed=61, n_themes=3)
    gov = generate_trec(25_000, seed=61, n_themes=3)
    p1 = tmp_path / "a.med"
    p2 = tmp_path / "b.trec"
    write_medline(med, p1)
    write_trec_sgml(gov, p2)
    res = ParallelTextEngine(2, config=_CFG).run_files(
        [p1, p2], corpus_name="mixed"
    )
    assert res.corpus_name == "mixed"
    assert res.n_docs == len(med) + len(gov)


def test_run_files_represented_scale(source_files):
    paths, _ = source_files
    small = ParallelTextEngine(4, config=_CFG).run_files(paths)
    big = ParallelTextEngine(4, config=_CFG).run_files(
        paths, represented_bytes=4.0e9
    )
    assert big.timings.wall_time > 100 * small.timings.wall_time
    # identical model regardless of declared scale
    assert big.major_term_strings == small.major_term_strings


def test_run_files_empty_list_rejected():
    with pytest.raises(ValueError, match="at least one source"):
        ParallelTextEngine(2, config=_CFG).run_files([])
