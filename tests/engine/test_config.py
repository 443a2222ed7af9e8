"""EngineConfig validation tests."""

import pytest

from repro.engine import EngineConfig


def test_defaults_valid():
    EngineConfig()


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_major_terms": 0},
        {"topic_fraction": 0.0},
        {"topic_fraction": 1.5},
        {"min_df": 0},
        {"n_major_terms": 100, "max_major_terms": 50},
        {"max_null_fraction": -0.1},
        {"max_null_fraction": 1.5},
        {"n_clusters": 0},
        {"kmeans_sample": 0},
        {"projection_dim": 0},
        {"chunk_docs": 0},
        {"backend": "gpu"},
    ],
)
def test_invalid_configs_rejected(kwargs):
    with pytest.raises(ValueError):
        EngineConfig(**kwargs)


def test_valid_edge_values():
    EngineConfig(
        n_major_terms=1,
        max_major_terms=1,
        topic_fraction=1.0,
        min_df=1,
        n_clusters=1,
        projection_dim=1,
    )


def test_frozen():
    cfg = EngineConfig()
    with pytest.raises(Exception):
        cfg.n_clusters = 5  # type: ignore[misc]
