"""Interactive analysis layer tests."""

import numpy as np
import pytest

from repro.analysis import AnalysisSession, ClusterSummary
from repro.datasets import generate_pubmed
from repro.engine import EngineConfig, SerialTextEngine


@pytest.fixture(scope="module")
def session():
    corpus = generate_pubmed(120_000, seed=31, n_themes=4)
    cfg = EngineConfig(n_major_terms=150, n_clusters=4, kmeans_sample=64)
    result = SerialTextEngine(cfg).run(corpus)
    return AnalysisSession(result), corpus


def test_nearest_documents_orders_by_distance(session):
    sess, _ = session
    x, y = sess.result.coords[0][:2]
    hits = sess.nearest_documents(x, y, k=5)
    assert len(hits) == 5
    assert hits[0].doc_id == int(sess.result.doc_ids[0])
    scores = [h.score for h in hits]
    assert scores == sorted(scores, reverse=True)


def test_nearest_documents_k_clamped(session):
    sess, corpus = session
    hits = sess.nearest_documents(0.0, 0.0, k=10_000)
    assert len(hits) == len(corpus)


def test_region_terms_name_the_mountain(session):
    sess, _ = session
    # probe at a cluster centroid's projected position
    c0_docs = np.flatnonzero(sess.result.assignments == 0)
    center = sess.result.coords[c0_docs].mean(axis=0)
    terms = sess.region_terms(center[0], center[1], radius=0.4)
    assert terms
    assert all(t in sess.result.topic_term_strings for t in terms)


def test_region_terms_empty_region(session):
    sess, _ = session
    assert sess.region_terms(1e6, 1e6, radius=0.001) == []


def test_similar_documents_self_similarity(session):
    sess, _ = session
    doc = int(sess.result.doc_ids[3])
    hits = sess.similar_documents(doc, k=5, include_self=True)
    assert hits[0].doc_id == doc
    assert hits[0].score == pytest.approx(1.0)
    hits_no_self = sess.similar_documents(doc, k=5)
    assert all(h.doc_id != doc for h in hits_no_self)


def test_similar_documents_prefer_same_theme(session):
    sess, corpus = session
    labels = corpus.meta["theme_labels"]
    agree = 0
    total = 0
    for doc in range(0, len(corpus), 5):
        for h in sess.similar_documents(doc, k=3):
            total += 1
            agree += labels[h.doc_id] == labels[doc]
    assert agree / total > 0.6


def test_similar_documents_unknown_doc(session):
    sess, _ = session
    with pytest.raises(KeyError):
        sess.similar_documents(10_000)


def test_query_by_topic_terms(session):
    sess, _ = session
    term = sess.result.topic_term_strings[0]
    hits = sess.query([term], k=5)
    assert len(hits) == 5
    # the top hits' signatures should weight the queried dimension
    dim = sess.result.topic_term_strings.index(term)
    top_sig = sess.result.signatures[
        np.flatnonzero(sess.result.doc_ids == hits[0].doc_id)[0]
    ]
    assert top_sig[dim] > np.median(sess.result.signatures[:, dim])


def test_query_unknown_terms_empty(session):
    sess, _ = session
    assert sess.query(["zzz-not-a-term"], k=5) == []


def test_cluster_summary(session):
    sess, corpus = session
    sizes = 0
    for c in range(sess.result.centroids.shape[0]):
        s = sess.cluster_summary(c)
        assert isinstance(s, ClusterSummary)
        assert s.size >= 0
        sizes += s.size
        assert len(s.representative_docs) <= 5
        for t in s.top_terms:
            assert t in sess.result.topic_term_strings
        # representative docs really belong to the cluster
        for d in s.representative_docs:
            row = np.flatnonzero(sess.result.doc_ids == d)[0]
            assert sess.result.assignments[row] == c
    assert sizes == len(corpus)


def test_cluster_summary_bad_id(session):
    sess, _ = session
    with pytest.raises(KeyError):
        sess.cluster_summary(99)


def test_describe_selection_names_cluster_theme(session):
    sess, _ = session
    members = np.flatnonzero(sess.result.assignments == 1)
    sel = [int(sess.result.doc_ids[i]) for i in members[:8]]
    terms = sess.describe_selection(sel)
    assert terms
    # discriminating terms of cluster-1 docs include the cluster's own
    # strongest centroid dimension
    centroid = sess.result.centroids[1]
    top_dim = int(np.argmax(centroid))
    assert sess.result.topic_term_strings[top_dim] in terms


def test_describe_selection_empty_and_unknown(session):
    sess, _ = session
    assert sess.describe_selection([]) == []
    import pytest as _pytest

    with _pytest.raises(KeyError):
        sess.describe_selection([99999])


def test_describe_selection_whole_collection_is_neutral(session):
    sess, corpus = session
    all_ids = [int(d) for d in sess.result.doc_ids]
    terms = sess.describe_selection(all_ids)
    # mean(selection) == mean(all): no positive excess anywhere
    assert terms == []


def test_outliers_sorted_desc(session):
    sess, _ = session
    outs = sess.outliers(k=5)
    scores = [o.score for o in outs]
    assert scores == sorted(scores, reverse=True)
    assert all(o.score >= 0 for o in outs)
