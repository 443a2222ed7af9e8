"""Broker window queries: exactness, shard independence, metrics."""

import pytest

from repro.runtime.metrics import counter_totals, render_report
from repro.cli import main
from repro.serve.broker import query_store, serve
from repro.serve.query import Query, canonical_response
from repro.serve.workload import (
    ClientScript,
    generate_dashboard_workload,
    store_profile,
)

WINDOWS = (
    (0.0, 200.0, -1),
    (100.0, 400.0, 1),
    (300.0, 601.0, 2),
    (450.0, 600.0, -1),
)


def _facet_scripts():
    queries = []
    for kind in ("facet_counts", "window_terms", "emerging"):
        for t0, t1, source in WINDOWS:
            queries.append(
                Query(
                    kind=kind, t0=t0, t1=t1, source=source, k=8
                )
            )
    return [
        ClientScript(
            client=0,
            queries=tuple(queries),
            think_s=(0.0,) * len(queries),
        )
    ]


def _answers(report):
    return {
        (r["client"], r["seq"]): canonical_response(r["response"])
        for r in report.responses
    }


@pytest.fixture(scope="module")
def facet_reports(stamped_stores):
    scripts = _facet_scripts()
    return {
        p: serve(store, scripts)
        for p, store in stamped_stores.items()
    }


def test_window_answers_identical_across_shard_counts(facet_reports):
    ref = _answers(facet_reports[1])
    assert len(ref) == 12
    for p in (2, 4):
        assert _answers(facet_reports[p]) == ref


def test_facet_counts_shape(facet_reports):
    resp = facet_reports[2].responses[0]["response"]
    assert resp["kind"] == "facet_counts"
    assert len(resp["counts"]) == len(resp["sources"]) == 3
    assert resp["total"] == sum(resp["counts"])
    assert not resp["partial"]


def test_window_terms_sorted_by_tf_then_term_row(facet_reports):
    for r in facet_reports[4].responses:
        resp = r["response"]
        if resp["kind"] != "window_terms":
            continue
        tfs = [t["tf"] for t in resp["terms"]]
        assert tfs == sorted(tfs, reverse=True)
        assert all(tf > 0 for tf in tfs)


def test_emerging_scores_positive_and_sorted(facet_reports):
    saw_terms = False
    for r in facet_reports[1].responses:
        resp = r["response"]
        if resp["kind"] != "emerging":
            continue
        scores = [t["score"] for t in resp["terms"]]
        assert scores == sorted(scores, reverse=True)
        assert all(s > 0 for s in scores)
        assert all(t["tf"] > 0 for t in resp["terms"])
        saw_terms = saw_terms or bool(resp["terms"])
    assert saw_terms


def _facet_section(snap):
    """The rendered faceted-analytics lines of a report ([] if none)."""
    lines = render_report(snap).splitlines()
    title = "faceted analytics (window queries):"
    return lines[lines.index(title) + 1:][:2] if title in lines else []


def test_facets_summary_counters(facet_reports):
    snap = facet_reports[2].metrics
    totals = counter_totals(snap)
    assert totals["facets.bytes_scanned"] > 0
    served, scanned = _facet_section(snap)
    assert served == (
        "  windows served: 12 (emerging=4, facet_counts=4, window_terms=4)"
    )
    assert scanned.startswith("  facet bytes scanned: ")
    assert scanned.endswith(
        f"; emerging-term hits: {totals['facets.emerging_hits']:.0f}"
    )


def test_facets_summary_identical_across_schedulers(
    stamped_stores, monkeypatch
):
    scripts = _facet_scripts()
    fast = serve(stamped_stores[2], scripts)
    monkeypatch.setenv("REPRO_SCHED_SLOWPATH", "1")
    slow = serve(stamped_stores[2], scripts)
    assert _facet_section(fast.metrics)
    assert _facet_section(fast.metrics) == _facet_section(slow.metrics)
    assert _answers(fast) == _answers(slow)


def test_facets_summary_empty_without_facets(plain_store):
    scripts = [
        ClientScript(
            client=0,
            queries=(Query(kind="cluster", cluster=0),),
            think_s=(0.0,),
        )
    ]
    report = serve(plain_store, scripts)
    assert _facet_section(report.metrics) == []


def test_unstamped_store_gets_typed_error(plain_store):
    scripts = [
        ClientScript(
            client=0,
            queries=(
                Query(kind="facet_counts", t0=0.0, t1=100.0),
                Query(kind="window_terms", t0=0.0, t1=100.0),
                Query(kind="emerging", t0=50.0, t1=100.0),
            ),
            think_s=(0.0, 0.0, 0.0),
        )
    ]
    report = serve(plain_store, scripts)
    for r in report.responses:
        assert "not stamped" in r["response"]["error"]


def test_mp_backend_matches_sim(stamped_stores):
    scripts = _facet_scripts()
    sim = serve(stamped_stores[2], scripts)
    mp = serve(stamped_stores[2], scripts, backend="mp")
    assert _answers(sim) == _answers(mp)


# ----------------------------------------------------------------------
# dashboard workload generator
# ----------------------------------------------------------------------
def test_dashboard_workload_deterministic(stamped_stores):
    profile = store_profile(stamped_stores[2])
    a = generate_dashboard_workload(profile, seed=3)
    b = generate_dashboard_workload(profile, seed=3)
    assert a == b
    c = generate_dashboard_workload(profile, seed=4)
    assert a != c


def test_dashboard_windows_inside_stamp_range(stamped_stores):
    profile = store_profile(stamped_stores[2])
    lo, hi = profile.facet_range
    scripts = generate_dashboard_workload(
        profile, n_clients=6, polls_per_client=5, seed=1
    )
    saw_window = saw_search = False
    for script in scripts:
        for q in script.queries:
            if q.kind in ("facet_counts", "window_terms", "emerging"):
                saw_window = True
                assert lo <= q.t0 < q.t1
                assert q.t1 <= hi + 1e-6
                assert -1 <= q.source < profile.n_sources
            else:
                saw_search = True
    assert saw_window and saw_search


def test_dashboard_workload_rejects_unstamped_profile(plain_store):
    profile = store_profile(plain_store)
    with pytest.raises(ValueError, match="unstamped"):
        generate_dashboard_workload(profile)


def test_dashboard_windows_slide_forward(stamped_stores):
    profile = store_profile(stamped_stores[2])
    scripts = generate_dashboard_workload(
        profile,
        n_clients=4,
        polls_per_client=6,
        seed=2,
        search_fraction=0.0,
    )
    lo, hi = profile.facet_range
    for script in scripts:
        ends = [q.t1 for q in script.queries]
        assert ends == sorted(ends)
        assert ends[-1] == pytest.approx(hi)


def test_store_without_postings_names_the_missing_postings(
    postingless_store,
):
    counts = query_store(
        postingless_store, Query(kind="facet_counts", t0=0.0, t1=600.0)
    )
    assert "error" not in counts
    assert sum(counts["counts"]) > 0
    for kind in ("window_terms", "emerging"):
        resp = query_store(
            postingless_store, Query(kind=kind, t0=100.0, t1=400.0)
        )
        assert "without postings" in resp["error"]
        assert "rebuild with the corpus" in resp["error"]
        assert "not stamped" not in resp["error"]
        assert resp["partial"] is False


@pytest.mark.parametrize("kind", ("terms", "emerging"))
def test_facet_query_cli_rejects_store_without_postings(
    postingless_store, capsys, kind
):
    rc = main(
        ["facet-query", "--store", str(postingless_store), "--kind", kind]
    )
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {postingless_store}: ")
    assert "without postings" in captured.err
    assert "Traceback" not in captured.err
    rc = main(
        ["facet-query", "--store", str(postingless_store), "--kind", "counts"]
    )
    assert rc == 0
