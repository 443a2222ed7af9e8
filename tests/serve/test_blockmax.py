"""The term-search kernel: exactness oracle, accounting, corruption,
batching identity.

The kernel's one contract is byte-identity: for any postings, any
query, any k, :func:`topk_search` must return *exactly* what the
exhaustive ``accumulate_tficf`` + stable ``topk_desc`` +
positive-filter path returns -- same rows, same score bits, same tie
order.  The Hypothesis suite here hammers that contract over
adversarial shapes (tiny blocks, skewed tf, duplicate query terms,
zero and negative weights, k past n_docs) and pins the scan
accounting of both paths; the corruption tests pin the
``ShardFormatError`` surface of the block sections; the broker tests
pin the cross-query batching identity at every batch size.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.session import topk_desc
from repro.index.termindex import (
    TermPostings,
    accumulate_tficf,
    icf_weights,
    topk_score_row,
)
from repro.runtime.metrics import counter_totals
from repro.serve.broker import BrokerConfig, serve
from repro.analysis.session import AnalysisSession
from repro.serve.query import (
    ShardStore,
    canonical_response,
    topk_search,
)
from repro.serve.store import (
    BlockPostings,
    Container,
    ShardFormatError,
    encode_postings_sections,
    load_model,
    write_container,
)
from repro.serve import workload as serve_workload
from repro.serve.workload import generate_workload, store_profile


def _random_postings(
    rng: np.random.Generator,
    n_docs: int,
    n_terms: int,
) -> TermPostings:
    """Random postings with Pareto-skewed tf."""
    offsets = [0]
    rows_parts: list[np.ndarray] = []
    tf_parts: list[np.ndarray] = []
    for _ in range(n_terms):
        df = int(rng.integers(0, n_docs + 1))
        rows_parts.append(
            np.sort(
                rng.choice(n_docs, size=df, replace=False)
            ).astype(np.int64)
        )
        tf_parts.append(
            (rng.pareto(1.2, size=df) + 1.0).astype(np.int64)
        )
        offsets.append(offsets[-1] + df)
    return TermPostings(
        n_docs=n_docs,
        offsets=np.asarray(offsets, dtype=np.int64),
        rows=np.concatenate(rows_parts) if rows_parts else np.empty(0, np.int64),
        tf=np.concatenate(tf_parts) if tf_parts else np.empty(0, np.int64),
    )


def _write_block_container(
    path: Path, postings: TermPostings, block_size: int
) -> Container:
    # a small, adversarial block size instead of the 128-entry default
    arrays = dict(encode_postings_sections(postings, block_size=block_size))
    write_container(
        str(path),
        arrays,
        {"kind": "shard", "row_lo": 0, "row_hi": postings.n_docs},
    )
    return Container(str(path))


def _exhaustive(
    postings: TermPostings,
    term_rows: list[int],
    icf: np.ndarray,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The reference path: dense accumulate + stable top-k + positive filter."""
    scores = np.zeros(postings.n_docs, dtype=np.float64)
    accumulate_tficf(postings, term_rows, icf, scores)
    take = min(k, scores.shape[0])
    idx = topk_desc(scores, take)
    idx = idx[scores[idx] > 0]
    return idx, scores[idx]


class TestBlockmaxExactness:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_pruned_equals_exhaustive(self, data):
        """Property: topk_search == exhaustive, bit for bit, any
        input; a multi-term query scans every run it names (each
        occurrence) and skips nothing."""
        seed = data.draw(st.integers(0, 2**31 - 1), label="seed")
        n_docs = data.draw(st.integers(1, 60), label="n_docs")
        n_terms = data.draw(st.integers(1, 8), label="n_terms")
        block_size = data.draw(
            st.sampled_from([4, 8, 16]), label="block_size"
        )
        k = data.draw(st.integers(1, n_docs + 2), label="k")
        rng = np.random.default_rng(seed)
        postings = _random_postings(rng, n_docs, n_terms)
        # duplicate terms and zero weights are both legal queries
        term_rows = data.draw(
            st.lists(
                st.integers(0, n_terms - 1), min_size=1, max_size=4
            ),
            label="term_rows",
        )
        icf = rng.uniform(0.0, 3.0, size=n_terms)
        zero_out = data.draw(
            st.lists(st.integers(0, n_terms - 1), max_size=2),
            label="zero_weight_terms",
        )
        icf[zero_out] = 0.0
        # negative weights never come from icf_weights, but the dense
        # path is exact for any sign
        negate = data.draw(
            st.lists(st.integers(0, n_terms - 1), max_size=2),
            label="negative_weight_terms",
        )
        icf[negate] = -icf[negate]
        with tempfile.TemporaryDirectory() as tmp:
            container = _write_block_container(
                Path(tmp) / "shard.repro", postings, block_size
            )
            blocks = BlockPostings(container, n_docs)
            got_idx, got_sc, scanned, skipped = topk_search(
                blocks, term_rows, icf, k
            )
        want_idx, want_sc = _exhaustive(postings, term_rows, icf, k)
        np.testing.assert_array_equal(got_idx, want_idx)
        # bit-identity, not closeness: the scores must be the same floats
        assert np.array_equal(
            np.asarray(got_sc, dtype=np.float64),
            np.asarray(want_sc, dtype=np.float64),
        )
        if len(term_rows) > 1:
            # duplicate query terms rescan their run: one count each
            assert scanned == sum(
                int(postings.offsets[r + 1] - postings.offsets[r])
                for r in term_rows
            )
            assert skipped == 0
        else:
            assert 0 <= skipped <= blocks.n_blocks
            assert 0 <= scanned <= len(postings.rows)

    def test_skips_fire_on_skewed_single_term(self):
        """One heavy-tailed term: most blocks fall under the threshold."""
        rng = np.random.default_rng(11)
        n_docs = 512
        tf = np.ones(n_docs, dtype=np.int64)
        hot = rng.choice(n_docs, size=8, replace=False)
        tf[hot] = 50
        postings = TermPostings(
            n_docs=n_docs,
            offsets=np.array([0, n_docs], dtype=np.int64),
            rows=np.arange(n_docs, dtype=np.int64),
            tf=tf,
        )
        block_size = 16
        icf = np.array([1.7], dtype=np.float64)
        with tempfile.TemporaryDirectory() as tmp:
            container = _write_block_container(
                Path(tmp) / "shard.repro", postings, block_size
            )
            blocks = BlockPostings(container, n_docs)
            got_idx, got_sc, scanned, skipped = topk_search(
                blocks, [0], icf, 8
            )
        want_idx, want_sc = _exhaustive(postings, [0], icf, 8)
        np.testing.assert_array_equal(got_idx, want_idx)
        assert np.array_equal(got_sc, want_sc)
        assert skipped > 0
        assert scanned < n_docs


class TestRestrictedSearch:
    """Refine: dense run accumulation restricted to a set gives the
    hits and scanned bytes of the full-decode path it replaced."""

    @staticmethod
    def _full_decode(shard, term_rows, icf, k, restrict_rows):
        scores = np.zeros(shard.n_docs, dtype=np.float64)
        scanned = accumulate_tficf(shard.postings, term_rows, icf, scores)
        local = shard._local_restrict(restrict_rows)
        sc = scores[local]
        local, sc = local[sc > 0], sc[sc > 0]
        sel = topk_score_row(sc, local, k)
        return shard._hits(local[sel], sc[sel]), scanned * 16

    @pytest.mark.parametrize("nshards", (1, 2))
    def test_restricted_matches_full_decode(self, stores, nshards):
        model = load_model(stores[nshards])
        icf = icf_weights(model.term_df, model.n_docs)
        # the refine cases of the workbench tests: a two-term anchor,
        # refined by itself and by a one-term query
        t = store_profile(stores[4]).terms
        queries = [
            [model.term_row[x] for x in terms]
            for terms in ((t[0], t[1]), (t[2],), (t[0], t[1], t[0]))
        ]
        shards = [
            ShardStore(Container(str(stores[nshards] / s.file)), model)
            for s in model.manifest.shards
        ]
        for anchor in queries:
            rows = np.sort(
                np.concatenate(
                    [shard.op_search(anchor, icf, 12)[0][1] for shard in shards]
                )
            )
            for restrict in (rows, np.arange(model.n_docs), rows[:0]):
                for term_rows in queries:
                    k = max(1, int(restrict.size))
                    for shard in shards:
                        hits, scanned, skipped = shard.op_search(
                            term_rows, icf, k, restrict_rows=restrict
                        )
                        want, want_scanned = self._full_decode(
                            shard, term_rows, icf, k, restrict
                        )
                        assert scanned == want_scanned
                        for col, want_col in zip(hits, want, strict=True):
                            assert col.dtype == want_col.dtype
                            assert np.array_equal(col, want_col)
                        assert skipped == 0


class TestBlockSectionCorruption:
    def _postings(self) -> TermPostings:
        rng = np.random.default_rng(3)
        return _random_postings(rng, 40, 5)

    def _write_corrupt(self, tmp_path: Path, mutate) -> Path:
        postings = self._postings()
        arrays = dict(encode_postings_sections(postings))
        mutate(arrays)
        path = tmp_path / "bad.repro"
        write_container(
            str(path),
            arrays,
            {"kind": "shard", "row_lo": 0, "row_hi": postings.n_docs},
        )
        return path

    def test_truncated_block_maxtf(self, tmp_path):
        path = self._write_corrupt(
            tmp_path,
            lambda a: a.update(
                post_block_maxtf=a["post_block_maxtf"][:-1]
            ),
        )
        with pytest.raises(ShardFormatError) as err:
            BlockPostings(Container(str(path)), 40)
        assert str(path) in str(err.value)
        assert "post_block_maxtf" in str(err.value)

    def test_misaligned_block_offsets(self, tmp_path):
        def _shift(a):
            bo = np.asarray(a["post_block_offsets"]).copy()
            # nudge an interior boundary that coincides with a term
            # offset so a term run no longer starts on a block edge
            offsets = np.asarray(a["post_offsets"])
            interior = np.intersect1d(bo[1:-1], offsets[1:-1])
            assert interior.size > 0, "fixture needs an aligned boundary"
            j = int(np.flatnonzero(bo == interior[0])[0])
            bo[j] += 1
            a["post_block_offsets"] = bo

        path = self._write_corrupt(tmp_path, _shift)
        with pytest.raises(ShardFormatError) as err:
            BlockPostings(Container(str(path)), 40)
        assert str(path) in str(err.value)
        assert "misaligned" in str(err.value)

    def test_offsets_do_not_tile(self, tmp_path):
        def _chop(a):
            bo = np.asarray(a["post_block_offsets"]).copy()
            bo[-1] -= 1
            a["post_block_offsets"] = bo

        path = self._write_corrupt(tmp_path, _chop)
        with pytest.raises(ShardFormatError) as err:
            BlockPostings(Container(str(path)), 40)
        assert "tile" in str(err.value)


class TestBatchedBrokerIdentity:
    @pytest.fixture(scope="class")
    def scripts(self, stores):
        return generate_workload(
            store_profile(stores[4]),
            n_clients=4,
            queries_per_client=10,
            seed=13,
            mix={"search": 1.0},
            mean_think_s=0.0,
        )

    @staticmethod
    def _answers(report):
        return {
            (r["client"], r["seq"]): canonical_response(r["response"])
            for r in report.responses
        }

    def test_batch_sizes_and_pruning_answer_identically(
        self, stores, scripts, result, postings
    ):
        session = AnalysisSession(result, postings=postings)
        reference = {
            (script.client, seq): [
                (h.doc_id, h.score, h.cluster)
                for h in session.term_search(list(q.terms), k=q.k)
            ]
            for script in scripts
            for seq, q in enumerate(script.queries)
        }
        for b in (1, 4, 16):
            config = BrokerConfig(batch_max_queries=b, max_inflight=64)
            report = serve(stores[4], scripts, config=config)
            assert not report.rejected
            answers = {
                (r["client"], r["seq"]): [
                    (h["doc"], h["score"], h["cluster"])
                    for h in r["response"]["hits"]
                ]
                for r in report.responses
            }
            assert answers == reference

    @pytest.mark.parametrize("store", ["static", "generational"])
    def test_mixed_kinds_answer_identically_at_every_batch_size(
        self, stores, delta_store, store
    ):
        """Every kind batches, on a static store and on one with
        published deltas: B = 4 and 16 answer byte for byte what
        B = 1 answers."""
        store_dir = stores[4] if store == "static" else delta_store
        scripts = generate_workload(
            store_profile(store_dir),
            n_clients=6,
            queries_per_client=10,
            seed=21,
            mean_think_s=0.0,
        )
        assert len({q.kind for s in scripts for q in s.queries}) == 5
        runs = {
            b: serve(
                store_dir,
                scripts,
                config=BrokerConfig(batch_max_queries=b, max_inflight=64),
            )
            for b in (1, 4, 16)
        }
        reference = self._answers(runs[1])
        assert len(reference) == sum(len(s.queries) for s in scripts)
        for b in (4, 16):
            assert not runs[b].rejected
            assert self._answers(runs[b]) == reference
            assert runs[b].makespan < runs[1].makespan

    def test_batching_reduces_virtual_makespan(self, stores, scripts):
        solo = serve(
            stores[4],
            scripts,
            config=BrokerConfig(batch_max_queries=1, max_inflight=64),
        )
        batched = serve(
            stores[4],
            scripts,
            config=BrokerConfig(batch_max_queries=16, max_inflight=64),
        )
        assert batched.makespan < solo.makespan

    def test_drain_admits_caches_and_stops_like_the_solo_path(
        self, stores, monkeypatch
    ):
        """The batch drain under pressure: members rejected by
        admission and members answered from the cache (seed 5 at
        ``max_inflight=6`` drives both while a batch is being
        assembled -- a burst of rejects needs a client set that
        arrived inside one fan-out).
        Every served answer must still be the answer the same query
        gets unbatched with roomy admission, and the pump's accounting
        must balance."""
        monkeypatch.setattr(serve_workload, "HOT_FRACTION", 0.5)
        monkeypatch.setattr(serve_workload, "HOT_POOL", 4)
        scripts = generate_workload(
            store_profile(stores[4]),
            n_clients=8,
            queries_per_client=12,
            seed=5,
            mean_think_s=0.0,
        )
        assert len({q.kind for s in scripts for q in s.queries}) > 1
        reference = self._answers(
            serve(
                stores[4],
                scripts,
                config=BrokerConfig(batch_max_queries=1, max_inflight=64),
            )
        )
        report = serve(
            stores[4],
            scripts,
            config=BrokerConfig(batch_max_queries=4, max_inflight=6),
        )
        served = self._answers(report)
        turned_away = {(r["client"], r["seq"]) for r in report.rejected}
        assert report.rejected and any(
            r["kind"] == "search" for r in report.rejected
        )
        assert any(
            r["cached"] and r["kind"] == "search" for r in report.responses
        )
        assert all(reference[key] == served[key] for key in served)
        assert not turned_away & set(served)
        assert len(turned_away) == len(report.rejected)
        totals = counter_totals(report.metrics)
        assert totals["serve.queries"] == len(served) + len(turned_away)
        assert (
            totals["serve.cache.hit"] + totals["serve.cache.miss"]
            == len(served)
        )
        assert totals["serve.rejected"] == len(turned_away)
