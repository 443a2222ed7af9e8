"""Hierarchical cluster_method engine option tests (§3.5 extension)."""

import numpy as np
import pytest

from repro.engine import (
    EngineConfig,
    ParallelTextEngine,
    SerialTextEngine,
)


def _cfg(method, **kw):
    return EngineConfig(
        n_major_terms=120,
        n_clusters=4,
        kmeans_sample=48,
        cluster_method=method,
        **kw,
    )


@pytest.mark.parametrize("method", ["single", "complete", "average"])
def test_serial_hierarchical_end_to_end(pubmed_small, method):
    res = SerialTextEngine(_cfg(method)).run(pubmed_small)
    k = res.centroids.shape[0]
    assert k <= 4
    assert res.assignments.max() < k
    assert res.coords.shape == (len(pubmed_small), 2)
    assert res.inertia >= 0


@pytest.mark.parametrize("method", ["complete", "average"])
def test_parallel_matches_serial(pubmed_small, method):
    cfg = _cfg(method)
    s = SerialTextEngine(cfg).run(pubmed_small)
    p = ParallelTextEngine(3, config=cfg).run(pubmed_small)
    np.testing.assert_allclose(p.centroids, s.centroids, atol=1e-8)
    assert (p.assignments == s.assignments).mean() > 0.98
    assert p.inertia == pytest.approx(s.inertia, rel=1e-6)


def test_hierarchical_uses_micro_clusters(pubmed_small):
    """The two-level path must actually produce coarser groupings than
    the micro-cluster count."""
    res = SerialTextEngine(
        _cfg("complete", micro_cluster_factor=4)
    ).run(pubmed_small)
    assert res.centroids.shape[0] <= 4


def test_kmeans_vs_hierarchical_differ(pubmed_small):
    km = SerialTextEngine(_cfg("kmeans")).run(pubmed_small)
    hi = SerialTextEngine(_cfg("single")).run(pubmed_small)
    # both are valid clusterings but generally not identical
    assert km.centroids.shape[1] == hi.centroids.shape[1]


def test_unknown_method_rejected(pubmed_small):
    with pytest.raises(ValueError, match="cluster_method"):
        SerialTextEngine(_cfg("ward")).run(pubmed_small)
    with pytest.raises(RuntimeError, match="failed") as exc:
        ParallelTextEngine(2, config=_cfg("ward")).run(pubmed_small)
    assert isinstance(exc.value.__cause__, ValueError)
    assert "cluster_method" in str(exc.value.__cause__)


def test_merge_micro_clusters_unit():
    from repro.cluster import merge_micro_clusters

    fine = np.array(
        [[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0], [9.9, 9.9]]
    )
    counts = np.array([10, 5, 8, 2, 0])  # last cluster empty
    mapping, coarse = merge_micro_clusters(fine, counts, 2, "single")
    assert mapping[0] == mapping[1]
    assert mapping[2] == mapping[3]
    assert mapping[0] != mapping[2]
    assert coarse.shape == (2, 2)
    # count-weighted means
    g0 = mapping[0]
    np.testing.assert_allclose(
        coarse[g0], (10 * fine[0] + 5 * fine[1]) / 15
    )


def test_merge_micro_clusters_errors():
    from repro.cluster import merge_micro_clusters

    with pytest.raises(ValueError):
        merge_micro_clusters(
            np.ones((2, 2)), np.array([0, 0]), 2, "single"
        )
    with pytest.raises(ValueError):
        merge_micro_clusters(
            np.ones((2, 2)), np.array([1]), 2, "single"
        )
