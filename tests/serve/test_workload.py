"""Workload generator: seeded determinism, mix, profile validity."""

import dataclasses

import pytest

from repro.serve import workload as serve_workload
from repro.serve.query import FACET_QUERY_KINDS, QUERY_KINDS
from repro.serve.workload import (
    DEFAULT_MIX,
    ZIPF_POOL,
    generate_workload,
    generate_zipf_workload,
    store_profile,
)


@pytest.fixture(scope="module")
def profile(stores):
    return store_profile(stores[4])


class TestStoreProfile:
    def test_profile_contents(self, profile, result):
        assert profile.n_clusters == result.centroids.shape[0]
        assert profile.terms
        assert set(profile.terms) <= {
            t.term for t in result.major_terms
        }
        assert profile.doc_ids
        known = set(int(d) for d in result.doc_ids)
        assert set(profile.doc_ids) <= known
        xmin, ymin, xmax, ymax = profile.bbox
        assert xmin <= xmax and ymin <= ymax


class TestGenerateWorkload:
    def test_seeded_determinism(self, profile):
        a = generate_workload(profile, n_clients=4, seed=3)
        b = generate_workload(profile, n_clients=4, seed=3)
        assert a == b

    def test_seed_changes_workload(self, profile):
        a = generate_workload(profile, seed=3)
        b = generate_workload(profile, seed=4)
        assert a != b

    def test_shape(self, profile):
        scripts = generate_workload(
            profile, n_clients=5, queries_per_client=12, seed=0
        )
        assert len(scripts) == 5
        assert [s.client for s in scripts] == list(range(5))
        for s in scripts:
            assert len(s.queries) == 12
            assert len(s.think_s) == 12
            assert all(t >= 0 for t in s.think_s)
            assert isinstance(s, tuple) or dataclasses.is_dataclass(s)

    def test_queries_are_valid_for_profile(self, profile):
        scripts = generate_workload(
            profile, n_clients=4, queries_per_client=40, seed=1
        )
        for s in scripts:
            for q in s.queries:
                assert q.kind in QUERY_KINDS
                if q.kind in ("search", "query"):
                    assert q.terms
                    assert set(q.terms) <= set(profile.terms)
                elif q.kind == "similar":
                    assert q.doc_id in profile.doc_ids
                elif q.kind == "cluster":
                    assert 0 <= q.cluster < profile.n_clusters
                else:
                    assert q.radius > 0

    def test_mix_respected(self, profile):
        scripts = generate_workload(
            profile,
            n_clients=2,
            queries_per_client=50,
            seed=5,
            mix={"cluster": 1.0},
        )
        kinds = {
            q.kind for s in scripts for q in s.queries
        }
        assert kinds == {"cluster"}

    def test_default_mix_covers_all_kinds(self, profile):
        # the classic workload covers every non-window kind; the
        # window kinds belong to the dashboard workload class
        classic = set(QUERY_KINDS) - set(FACET_QUERY_KINDS)
        assert set(DEFAULT_MIX) == classic
        scripts = generate_workload(
            profile, n_clients=4, queries_per_client=50, seed=2
        )
        kinds = {q.kind for s in scripts for q in s.queries}
        assert kinds == classic

    def test_hot_queries_repeat(self, profile):
        scripts = generate_workload(
            profile,
            n_clients=4,
            queries_per_client=30,
            seed=9,
        )
        keys = [q.key() for s in scripts for q in s.queries]
        assert len(set(keys)) < len(keys)

    def test_zero_mass_mix_rejected(self, profile):
        with pytest.raises(ValueError, match="mix"):
            generate_workload(profile, mix={"cluster": 0.0})

    def test_unknown_kind_in_mix_rejected(self, profile):
        with pytest.raises(ValueError, match="unknown"):
            generate_workload(profile, mix={"bogus": 1.0})


class TestPriorities:
    def test_default_single_class_is_zero(self, profile):
        scripts = generate_workload(profile, n_clients=6, seed=3)
        assert all(s.priority == 0 for s in scripts)

    def test_tagging_never_perturbs_queries(self, profile, monkeypatch):
        """Priorities draw from a separate rng stream.

        The query/think streams of a tagged workload must stay
        byte-identical to the untagged one -- the serving baselines
        depend on exactly this.
        """
        tagged = generate_zipf_workload(profile, n_clients=8, seed=3)
        monkeypatch.setattr(serve_workload, "ZIPF_PRIORITIES", (0,))
        monkeypatch.setattr(serve_workload, "ZIPF_PRIORITY_WEIGHTS", (1.0,))
        plain = generate_zipf_workload(profile, n_clients=8, seed=3)
        for a, b in zip(plain, tagged):
            assert a.queries == b.queries
            assert a.think_s == b.think_s
        assert {s.priority for s in plain} == {0}
        assert {s.priority for s in tagged} <= {0, 1, 2}

    def test_default_single_tenant_is_zero(self, profile):
        scripts = generate_workload(profile, n_clients=6, seed=3)
        assert all(s.tenant == 0 for s in scripts)

    def test_priorities_seeded(self, profile):
        a = generate_zipf_workload(profile, n_clients=30, seed=5)
        b = generate_zipf_workload(profile, n_clients=30, seed=5)
        assert [s.priority for s in a] == [s.priority for s in b]
        c = generate_zipf_workload(profile, n_clients=30, seed=6)
        assert [s.priority for s in a] != [s.priority for s in c]


class TestZipfWorkload:
    def test_seeded_determinism(self, profile):
        a = generate_zipf_workload(profile, n_clients=20, seed=3)
        b = generate_zipf_workload(profile, n_clients=20, seed=3)
        assert a == b

    def test_head_queries_dominate(self, profile):
        from collections import Counter

        scripts = generate_zipf_workload(
            profile, n_clients=50, queries_per_client=10, seed=1
        )
        counts = Counter(
            q.key() for s in scripts for q in s.queries
        )
        # queries come from a bounded pool and the head is hot
        assert len(counts) <= ZIPF_POOL
        top = counts.most_common(1)[0][1]
        assert top > (50 * 10) // ZIPF_POOL  # far above a uniform share

    def test_priority_classes_assigned(self, profile):
        scripts = generate_zipf_workload(profile, n_clients=60, seed=2)
        assert {s.priority for s in scripts} == {0, 1, 2}
