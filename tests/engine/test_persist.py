"""EngineResult persistence round-trip tests."""

import numpy as np
import pytest

from repro.engine import (
    EngineConfig,
    SerialTextEngine,
    load_result,
    save_result,
)


@pytest.fixture(scope="module")
def result():
    from repro.datasets import generate_pubmed

    corpus = generate_pubmed(60_000, seed=17)
    cfg = EngineConfig(n_major_terms=80, n_clusters=3, kmeans_sample=24)
    return SerialTextEngine(cfg).run(corpus)


def test_roundtrip_arrays(result, tmp_path):
    path = tmp_path / "r.npz"
    save_result(result, path)
    back = load_result(path)
    np.testing.assert_array_equal(back.doc_ids, result.doc_ids)
    np.testing.assert_array_equal(back.coords, result.coords)
    np.testing.assert_array_equal(back.assignments, result.assignments)
    np.testing.assert_array_equal(back.centroids, result.centroids)
    np.testing.assert_array_equal(back.association, result.association)
    np.testing.assert_array_equal(back.signatures, result.signatures)


def test_roundtrip_model(result, tmp_path):
    path = tmp_path / "r.npz"
    save_result(result, path)
    back = load_result(path)
    assert back.major_terms == result.major_terms
    assert back.topic_terms == result.topic_terms
    assert back.term_stats == result.term_stats
    assert back.corpus_name == result.corpus_name
    assert back.n_docs == result.n_docs
    assert back.vocab_size == result.vocab_size
    assert back.inertia == result.inertia
    assert back.null_fraction == result.null_fraction


def test_roundtrip_timings(result, tmp_path):
    path = tmp_path / "r.npz"
    save_result(result, path)
    back = load_result(path)
    assert back.timings is not None
    assert back.timings.virtual == result.timings.virtual
    assert back.timings.component_seconds == pytest.approx(
        result.timings.component_seconds
    )


def test_loaded_result_supports_analysis(result, tmp_path):
    from repro.analysis import AnalysisSession

    path = tmp_path / "r.npz"
    save_result(result, path)
    sess = AnalysisSession(load_result(path))
    hits = sess.similar_documents(0, k=3)
    assert len(hits) == 3


def test_bad_format_rejected(tmp_path):
    import json

    import numpy as np

    path = tmp_path / "bad.npz"
    np.savez(path, _meta_json=np.array(json.dumps({"format_version": 99}), dtype=object))
    with pytest.raises(ValueError, match="unsupported"):
        load_result(path)
