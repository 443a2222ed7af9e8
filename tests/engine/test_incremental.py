"""Incremental document projection tests."""

import numpy as np
import pytest

from repro.datasets import generate_pubmed
from repro.engine import (
    EngineConfig,
    SerialTextEngine,
    project_new_documents,
    refresh_recommended,
)
from repro.ingest import IngestConfig
from repro.text import Document


@pytest.fixture(scope="module")
def model():
    """Model built on the first half of a corpus; second half streams."""
    corpus = generate_pubmed(160_000, seed=41, n_themes=4)
    half = len(corpus) // 2
    from repro.text import Corpus

    base = Corpus("base", corpus.documents[:half], meta=corpus.meta)
    stream = corpus.documents[half:]
    cfg = EngineConfig(n_major_terms=150, n_clusters=4, kmeans_sample=48)
    result = SerialTextEngine(cfg).run(base)
    return result, stream, corpus


def test_projection_shapes(model):
    result, stream, _ = model
    batch = project_new_documents(result, stream)
    n = len(stream)
    assert batch.signatures.shape == (n, result.n_topics)
    assert batch.coords.shape == (n, result.coords.shape[1])
    assert batch.assignments.shape == (n,)
    assert batch.null_fraction < 0.2  # same-domain stream projects well


def test_projected_signatures_l1(model):
    result, stream, _ = model
    batch = project_new_documents(result, stream)
    sums = batch.signatures.sum(axis=1)
    for s, null in zip(sums, batch.null_mask):
        assert (abs(s - 1.0) < 1e-9) or (s == 0.0 and null)


def test_same_documents_project_to_same_place(model):
    """Re-projecting the model's own documents reproduces its coords."""
    result, _, corpus = model
    half = result.n_docs
    batch = project_new_documents(result, corpus.documents[:half])
    np.testing.assert_allclose(batch.signatures, result.signatures)
    np.testing.assert_allclose(batch.coords, result.coords, atol=1e-12)
    mismatch = np.mean(batch.assignments != result.assignments)
    assert mismatch < 0.05  # final-iteration reassignment tolerance


def test_new_docs_land_near_their_theme(model):
    result, stream, corpus = model
    batch = project_new_documents(result, stream)
    labels = corpus.meta["theme_labels"]
    half = result.n_docs
    # projected docs of a theme should co-cluster with the model docs
    # of the same theme more often than chance
    agree = 0
    total = 0
    for j, doc in enumerate(stream):
        if batch.null_mask[j]:
            continue
        same_theme = [
            i
            for i in range(half)
            if labels[i] == labels[doc.doc_id]
        ]
        if not same_theme:
            continue
        from collections import Counter

        model_cluster = Counter(
            result.assignments[i] for i in same_theme
        ).most_common(1)[0][0]
        total += 1
        agree += batch.assignments[j] == model_cluster
    assert total > 0
    assert agree / total > 0.6


def test_out_of_vocabulary_stream_is_null(model):
    result, _, _ = model
    alien = [
        Document(0, {"body": "zzzalpha zzzbeta zzzgamma zzzdelta"}),
        Document(1, {"body": "qqqone qqqtwo qqqthree"}),
    ]
    batch = project_new_documents(result, alien)
    assert batch.null_fraction == 1.0
    assert refresh_recommended(batch)


def test_refresh_policy(model):
    result, stream, _ = model
    batch = project_new_documents(result, stream)
    assert not refresh_recommended(batch)


def test_requires_projection(model):
    import dataclasses

    result, stream, _ = model
    bare = dataclasses.replace(result, projection=None)
    with pytest.raises(ValueError, match="projection"):
        project_new_documents(bare, stream)


def test_persisted_model_supports_incremental(model, tmp_path):
    from repro.engine import load_result, save_result

    result, stream, _ = model
    save_result(result, tmp_path / "m.npz")
    loaded = load_result(tmp_path / "m.npz")
    batch_orig = project_new_documents(result, stream)
    batch_loaded = project_new_documents(loaded, stream)
    np.testing.assert_array_equal(
        batch_orig.signatures, batch_loaded.signatures
    )
    np.testing.assert_array_equal(batch_orig.coords, batch_loaded.coords)


def test_refresh_threshold_resolution(model):
    """An explicit threshold replaces the built-in default."""
    result, _, _ = model
    alien = [
        Document(0, {"body": "zzzalpha zzzbeta"}),
        Document(1, {"body": "qqqone qqqtwo"}),
    ]
    batch = project_new_documents(result, alien)  # 100% null
    assert refresh_recommended(batch)  # default threshold 0.25
    assert not refresh_recommended(batch, max_null_fraction=1.0)


def test_refresh_min_docs_gate(model):
    """Tiny batches never trip the refresh flag."""
    result, _, _ = model
    alien = [Document(0, {"body": "zzzalpha zzzbeta"})]
    batch = project_new_documents(result, alien)
    assert refresh_recommended(batch)  # default min_docs = 1
    assert not refresh_recommended(batch, min_docs=2)


def test_refresh_knob_validation():
    """The live-ingest policy rejects thresholds it could never act on."""
    with pytest.raises(ValueError, match="refresh_null_fraction"):
        IngestConfig(refresh_null_fraction=1.5)
    with pytest.raises(ValueError, match="refresh_min_docs"):
        IngestConfig(refresh_min_docs=0)
