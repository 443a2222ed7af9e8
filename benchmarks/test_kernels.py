"""Microbenchmarks of the engine's computational kernels.

These are *real-time* benchmarks (pytest-benchmark statistics) of the
hot paths: tokenization, the tokenize-to-id scan, FAST-INV inversion,
co-occurrence counts, signature generation, k-means assignment, PCA,
the simulated runtime's own primitives (collectives, atomics, hashmap
inserts), and the serving layer's term search against its exhaustive
reference.
"""

import numpy as np
import pytest

from repro.cluster import assign_points, kmeanspp_seeds
from repro.datasets import generate_pubmed
from repro.ga import GlobalArray, GlobalHashMap
from repro.index import invert_chunk
from repro.project import fit_pca
from repro.runtime import Cluster
from repro.scan import finalize_vocabulary_serial, scan_forward
from repro.signature import (
    compute_signatures,
    count_cooccurrences,
    major_row_table,
)
from repro.text import Tokenizer
from repro.viz import build_themeview


def test_tokenizer_throughput(benchmark):
    corpus = generate_pubmed(200_000, seed=1)
    text = " ".join(d.fields["abstract"] for d in corpus)
    tok = Tokenizer()
    tokens = benchmark(tok.tokens, text)
    assert len(tokens) > 10_000


def test_scan_kernel_throughput(benchmark):
    corpus = generate_pubmed(200_000, seed=1)
    fields = {f: i for i, f in enumerate(corpus.field_names)}

    def scan():
        fwd, terms, _ = scan_forward(corpus.documents, Tokenizer(), fields)
        vocab = finalize_vocabulary_serial(terms)
        fwd.assign_gids(terms, vocab.term_to_gid)
        return fwd, vocab

    fwd, vocab = benchmark(scan)
    tok = Tokenizer()
    reference = [
        vocab.term_to_gid[t]
        for d in corpus
        for text in d.fields.values()
        for t in tok.tokens(text)
    ]
    assert len(reference) > 10_000
    np.testing.assert_array_equal(fwd.gids, reference)


def test_fastinv_invert_chunk(benchmark):
    rng = np.random.default_rng(0)
    n = 200_000
    docs = np.sort(rng.integers(0, 2_000, size=n)).astype(np.int64)
    gids = rng.integers(0, 20_000, size=n).astype(np.int64)
    t2d = benchmark(invert_chunk, gids, docs)
    assert len(t2d) > 0


def _signature_workload(seed):
    """The engine_batch signature shape: N = 1 500, M = 150, 300 docs."""
    rng = np.random.default_rng(seed)
    table = major_row_table(
        rng.choice(20_000, size=1500, replace=False).tolist()
    )
    docs = [
        rng.integers(0, 20_000, size=200).astype(np.int64)
        for _ in range(300)
    ]
    return rng, table, docs


def test_signature_generation(benchmark):
    rng, table, docs = _signature_workload(1)
    assoc = rng.random((1500, 150))
    batch = benchmark(compute_signatures, docs, table, assoc)
    assert batch.signatures.shape == (300, 150)


def test_cooccurrence_counts(benchmark):
    _, table, docs = _signature_workload(1)
    counts = benchmark(count_cooccurrences, docs, table, 1500, 150)
    assert counts.shape == (1500, 150) and counts.dtype == np.int64


def test_kmeans_assignment_step(benchmark):
    rng = np.random.default_rng(2)
    points = rng.random((5_000, 150))
    centroids = kmeanspp_seeds(points[:500], 16, rng)
    labels, sq = benchmark(assign_points, points, centroids)
    assert labels.shape == (5_000,)


def test_pca_fit(benchmark):
    rng = np.random.default_rng(3)
    centroids = rng.random((16, 150))
    tr = benchmark(fit_pca, centroids, 2)
    assert tr.components.shape == (150, 2)


def test_themeview_build(benchmark):
    rng = np.random.default_rng(4)
    coords = rng.normal(size=(5_000, 2))
    view = benchmark(build_themeview, coords)
    assert view.heights.shape == (48, 48)


def test_runtime_allreduce(benchmark):
    """Real-time cost of a simulated 8-rank allreduce round."""

    def round_trip():
        def program(ctx):
            return ctx.comm.allreduce(np.ones(1000))

        return Cluster(8).run(program)

    res = benchmark(round_trip)
    assert res.nprocs == 8


def test_runtime_read_inc(benchmark):
    """Real-time cost of the GA fetch-and-increment hot loop."""

    def hot_loop():
        def program(ctx):
            ga = GlobalArray.create(ctx, "c", (1,), dtype=np.int64)
            ga.sync()
            for _ in range(50):
                ga.read_inc(0)
            ctx.comm.barrier()

        return Cluster(4).run(program)

    benchmark(hot_loop)


def test_hashmap_batch_insert(benchmark):
    words = [f"word{i}" for i in range(5_000)]

    def insert_all():
        def program(ctx):
            hm = GlobalHashMap.create(ctx, "v")
            part = words[ctx.rank :: ctx.nprocs]
            hm.get_or_insert_batch(part)
            ctx.comm.barrier()
            return hm.global_size()

        return Cluster(4).run(program)

    res = benchmark(insert_all)
    assert res.rank_results[0] == 5_000


def test_fastinv_order_loop(benchmark):
    """Explicit FAST-INV counting-sort loop (the test oracle for the
    stable argsort that ``invert_chunk`` runs)."""
    from repro.index.fastinv import _fastinv_order

    rng = np.random.default_rng(3)
    gids = rng.integers(0, 512, size=1024).astype(np.int64)
    order = benchmark(_fastinv_order, gids)
    assert order.shape == gids.shape


# ----------------------------------------------------------------------
# term search: the serving kernel against its exhaustive reference
# ----------------------------------------------------------------------
def _search_shard(tmp_path, n_docs: int, n_terms: int = 200):
    """A synthetic shard container of block postings: Zipf-skewed
    document frequencies, Pareto-skewed tf, 128-entry blocks."""
    from repro.index.termindex import TermPostings
    from repro.serve.store import (
        Container,
        encode_postings_sections,
        write_container,
    )

    rng = np.random.default_rng(n_docs)
    dfs = np.minimum(
        n_docs, (0.3 * n_docs / np.arange(1, n_terms + 1)).astype(int) + 1
    )
    rows = [np.sort(rng.choice(n_docs, size=df, replace=False)) for df in dfs]
    postings = TermPostings(
        n_docs=n_docs,
        offsets=np.concatenate(([0], np.cumsum(dfs))).astype(np.int64),
        rows=np.concatenate(rows).astype(np.int64),
        tf=(rng.pareto(1.2, size=int(dfs.sum())) + 1.0).astype(np.int64),
    )
    path = tmp_path / f"shard-{n_docs}.repro"
    write_container(
        str(path),
        dict(encode_postings_sections(postings)),
        {"kind": "shard", "row_lo": 0, "row_hi": n_docs},
    )
    icf = np.log1p(n_docs / dfs.astype(np.float64))
    queries = [
        rng.choice(n_terms, size=int(rng.integers(1, 4)), replace=False)
        .tolist()
        for _ in range(30)
    ]
    return Container(str(path)), icf, queries


@pytest.mark.parametrize("state", ("warm", "cold"))
@pytest.mark.parametrize("kernel", ("topk_search", "reference"))
@pytest.mark.parametrize("n_docs", (2_000, 20_000))
def test_term_search_kernel(benchmark, tmp_path, n_docs, kernel, state):
    """``topk_search`` vs the ``op_search(pruned=False)`` reference
    (full decode, dense accumulation, stable top-k): 30 uniform 1-3
    term queries at k=10 per round; ``cold`` opens fresh block
    postings every round, so first-touch decode is paid again.
    Compare the pairs by ``n_docs`` and ``state``; not a gate."""
    from repro.analysis.session import topk_desc
    from repro.index.termindex import accumulate_tficf
    from repro.serve.query import topk_search
    from repro.serve.store import BlockPostings

    container, icf, queries = _search_shard(tmp_path, n_docs)
    warm = BlockPostings(container, n_docs)

    def run(blocks):
        out = []
        if kernel == "topk_search":
            for q in queries:
                out.append(topk_search(blocks, q, icf, 10)[0])
            return out
        postings = blocks.to_term_postings()
        for q in queries:
            scores = np.zeros(n_docs, dtype=np.float64)
            accumulate_tficf(postings, q, icf, scores)
            idx = topk_desc(scores, 10)
            out.append(idx[scores[idx] > 0])
        return out

    if state == "warm":
        run(warm)
        got = benchmark(run, warm)
    else:
        got = benchmark.pedantic(
            run,
            setup=lambda: ((BlockPostings(container, n_docs),), {}),
            rounds=30,
        )
    assert [r.tolist() for r in got] == [
        r.tolist() for r in run(BlockPostings(container, n_docs))
    ]
