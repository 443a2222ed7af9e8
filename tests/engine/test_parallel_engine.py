"""Parallel engine tests: serial equivalence and scaling behaviour."""

import dataclasses

import numpy as np
import pytest

from repro.engine import (
    EngineConfig,
    ParallelTextEngine,
    SerialTextEngine,
)
from repro.index import invert_bruteforce
from repro.runtime import MachineSpec
from repro.scan import finalize_vocabulary_serial, scan_forward
from repro.text import Tokenizer


@pytest.mark.parametrize("nprocs", [1, 2, 3, 4, 8])
def test_model_identical_to_serial(pubmed_small, small_config, nprocs):
    """The parallel engine must produce the *same model* as the serial
    engine for every processor count: same major terms, same topics,
    bit-identical association matrix and signatures."""
    s = SerialTextEngine(small_config).run(pubmed_small)
    p = ParallelTextEngine(nprocs, config=small_config).run(pubmed_small)
    assert p.nprocs == nprocs
    assert p.n_docs == s.n_docs
    assert p.vocab_size == s.vocab_size
    assert p.major_term_strings == s.major_term_strings
    assert p.topic_term_strings == s.topic_term_strings
    np.testing.assert_array_equal(p.association, s.association)
    np.testing.assert_array_equal(p.signatures, s.signatures)
    assert p.null_fraction == s.null_fraction


@pytest.mark.parametrize("nprocs", [2, 4])
def test_clustering_close_to_serial(pubmed_small, small_config, nprocs):
    """Clustering/projection agree up to float reduction order."""
    s = SerialTextEngine(small_config).run(pubmed_small)
    p = ParallelTextEngine(nprocs, config=small_config).run(pubmed_small)
    np.testing.assert_allclose(p.centroids, s.centroids, atol=1e-8)
    np.testing.assert_allclose(p.coords, s.coords, atol=1e-7)
    assert p.inertia == pytest.approx(s.inertia, rel=1e-9)
    mismatch = np.mean(p.assignments != s.assignments)
    assert mismatch < 0.02  # only float-tie flips allowed


def test_term_stats_identical_to_serial(trec_small, small_config):
    s = SerialTextEngine(small_config).run(trec_small)
    p = ParallelTextEngine(3, config=small_config).run(trec_small)
    assert p.term_stats == s.term_stats


@pytest.fixture(scope="module")
def trec_df_cf(trec_small):
    """``term -> (df, cf)`` by brute-force inversion of the whole
    forward stream, independent of chunking and of the engines."""
    tok = Tokenizer(EngineConfig().tokenizer)
    fwd, terms, _ = scan_forward(trec_small.documents, tok)
    vocab = finalize_vocabulary_serial(terms)
    fwd.assign_gids(terms, vocab.term_to_gid)
    df = np.zeros(vocab.size, dtype=np.int64)
    cf = np.zeros(vocab.size, dtype=np.int64)
    postings = invert_bruteforce(*fwd.chunk_streams(0, len(fwd)))
    for (g, _), tf in postings.items():
        df[g] += 1
        cf[g] += tf
    return {
        t: (int(df[g]), int(cf[g])) for g, t in enumerate(vocab.gid_to_term)
    }


@pytest.mark.parametrize("dlb", [True, False])
@pytest.mark.parametrize("chunk_docs", [1, 3])
@pytest.mark.parametrize("nprocs", [1, 2, 4])
def test_term_stats_equal_bruteforce_inversion(
    trec_small, small_config, trec_df_cf, nprocs, chunk_docs, dlb
):
    """Per-chunk statistics summed without a merge are the statistics
    of the whole collection, for any chunking, P and load balancing."""
    cfg = dataclasses.replace(
        small_config, chunk_docs=chunk_docs, dynamic_load_balancing=dlb
    )
    if nprocs == 1 and dlb:
        assert SerialTextEngine(cfg).run(trec_small).term_stats == trec_df_cf
    p = ParallelTextEngine(nprocs, config=cfg).run(trec_small)
    assert p.term_stats == trec_df_cf


def test_parallel_deterministic(pubmed_small, small_config):
    p1 = ParallelTextEngine(4, config=small_config).run(pubmed_small)
    p2 = ParallelTextEngine(4, config=small_config).run(pubmed_small)
    np.testing.assert_array_equal(p1.coords, p2.coords)
    np.testing.assert_array_equal(p1.assignments, p2.assignments)
    assert p1.timings.wall_time == p2.timings.wall_time
    assert p1.timings.component_seconds == p2.timings.component_seconds


def test_trec_end_to_end(trec_small, small_config):
    p = ParallelTextEngine(4, config=small_config).run(trec_small)
    assert p.coords.shape == (len(trec_small), 2)
    assert p.timings.virtual


def test_wall_time_decreases_with_procs(pubmed_small, small_config):
    walls = {}
    for nprocs in (1, 2, 4, 8):
        r = ParallelTextEngine(nprocs, config=small_config).run(
            pubmed_small
        )
        walls[nprocs] = r.timings.wall_time
    assert walls[2] < walls[1]
    assert walls[4] < walls[2]
    assert walls[8] < walls[4]
    # roughly linear: 8 procs at least 3.5x faster than 1
    assert walls[1] / walls[8] > 3.5


def test_component_timings_present(pubmed_small, small_config):
    r = ParallelTextEngine(4, config=small_config).run(pubmed_small)
    t = r.timings
    assert set(t.component_seconds) == {
        "scan",
        "index",
        "topic",
        "am",
        "docvec",
        "clusproj",
    }
    for name, per_rank in t.per_rank.items():
        assert per_rank.shape == (4,)
        assert np.all(per_rank >= 0)
    # components are barrier-separated: their walls sum to <= run wall
    assert sum(t.component_seconds.values()) <= t.wall_time * 1.001


def test_static_vs_dynamic_load_balancing(trec_small):
    """Dynamic LB must reduce the indexing-stage imbalance on the
    skewed TREC corpus (the Fig. 9 phenomenon)."""
    base = dict(
        n_major_terms=120, n_clusters=5, kmeans_sample=48, chunk_docs=2
    )
    dyn = ParallelTextEngine(
        4, config=EngineConfig(**base, dynamic_load_balancing=True)
    ).run(trec_small)
    stat = ParallelTextEngine(
        4, config=EngineConfig(**base, dynamic_load_balancing=False)
    ).run(trec_small)
    # identical results either way
    assert dyn.major_term_strings == stat.major_term_strings
    np.testing.assert_array_equal(dyn.association, stat.association)
    # but the balanced run's inversion wall is no worse, and the
    # per-rank busy-time spread is tighter (the Fig. 9 claim)
    pr_dyn = dyn.timings.extras["index_invert_per_rank"]
    pr_stat = stat.timings.extras["index_invert_per_rank"]
    assert pr_dyn.max() <= pr_stat.max() * 1.05
    imb_dyn = pr_dyn.max() / max(1e-12, pr_dyn.mean())
    imb_stat = pr_stat.max() / max(1e-12, pr_stat.mean())
    assert imb_dyn <= imb_stat + 1e-9


def test_memory_pressure_slows_low_proc_counts(pubmed_small):
    """The 16.44 GB @ 4 procs anomaly: declaring a huge represented
    size triggers the thrashing model at low processor counts only."""
    big = dataclasses.replace(pubmed_small, represented_bytes=16.44e9)
    cfg = EngineConfig(n_major_terms=120, n_clusters=5, kmeans_sample=48)
    r4 = ParallelTextEngine(4, config=cfg).run(big)
    r8 = ParallelTextEngine(8, config=cfg).run(big)
    # thrashing at 4 procs makes the 4->8 step superlinear
    assert r4.timings.wall_time / r8.timings.wall_time > 3.0


def test_more_procs_than_docs():
    from repro.text import Corpus, Document

    docs = [
        Document(i, {"body": f"apple banana w{i} apple cherry"})
        for i in range(3)
    ]
    corpus = Corpus("tiny", docs)
    cfg = EngineConfig(
        n_major_terms=4, min_df=1, n_clusters=2, kmeans_sample=4
    )
    r = ParallelTextEngine(6, config=cfg).run(corpus)
    assert r.n_docs == 3
    assert r.coords.shape == (3, 2)


def test_custom_machine_spec(pubmed_small, small_config):
    slow_net = MachineSpec(net_bytes_per_s=1e6, net_latency_s=1e-3)
    fast = ParallelTextEngine(4, config=small_config).run(pubmed_small)
    slow = ParallelTextEngine(
        4, machine=slow_net, config=small_config
    ).run(pubmed_small)
    assert slow.timings.wall_time > fast.timings.wall_time
    # results unaffected by network speed
    assert slow.major_term_strings == fast.major_term_strings
