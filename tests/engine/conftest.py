"""Shared fixtures for engine tests."""

import pytest

from repro.datasets import generate_pubmed, generate_trec
from repro.engine import EngineConfig


@pytest.fixture(scope="session")
def small_config():
    """Engine config sized for tiny test corpora."""
    return EngineConfig(
        n_major_terms=120,
        n_clusters=5,
        kmeans_sample=48,
        chunk_docs=4,
    )


@pytest.fixture(scope="session")
def pubmed_small():
    return generate_pubmed(90_000, seed=11)


@pytest.fixture(scope="session")
def trec_small():
    return generate_trec(90_000, seed=11)
