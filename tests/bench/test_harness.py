"""Benchmark harness tests (small-scale figure reproductions)."""

import pytest

from repro.bench import (
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
    format_series,
    format_table,
    make_workload,
    render,
    run_all_sweeps,
    run_sweep,
)
from repro.engine import EngineConfig

_FAST_CFG = EngineConfig(
    n_major_terms=150, n_clusters=6, kmeans_sample=48, chunk_docs=4
)


@pytest.fixture(scope="module")
def mini_sweeps():
    """A cheap full grid: large downscale, two proc counts."""
    return run_all_sweeps(
        downscale=40_000.0, procs=(2, 4), config=_FAST_CFG, seed=5
    )


def test_make_workload_datasets():
    wl = make_workload("pubmed", "x", 2.75e9, downscale=40_000.0)
    assert wl.corpus.represented_bytes == 2.75e9
    wl2 = make_workload("trec", "y", 1e9, downscale=40_000.0)
    assert wl2.dataset == "trec"
    with pytest.raises(ValueError):
        make_workload("nope", "z", 1e9)


def test_run_sweep_speedup_monotone():
    wl = make_workload("pubmed", "2.75 GB", 2.75e9, downscale=40_000.0)
    sw = run_sweep(wl, procs=(2, 4), config=_FAST_CFG)
    assert sw.speedup(4) > sw.speedup(2) > 1.0
    assert sw.wall(4) < sw.wall(2)
    assert set(sw.component_seconds(2)) == {
        "scan",
        "index",
        "topic",
        "am",
        "docvec",
        "clusproj",
    }


def test_figure5_structure(mini_sweeps):
    rec = figure5(mini_sweeps)
    text = render(rec)
    assert "Pubmed - Overall Timings" in text
    assert "TREC - Overall Timings" in text
    assert set(rec["pubmed"]["series"]) == {
        "2.75 GB",
        "6.67 GB",
        "16.44 GB",
    }
    # bigger problems take longer at fixed P
    m = rec["pubmed"]["series"]
    assert m["16.44 GB"][0] > m["6.67 GB"][0] > m["2.75 GB"][0]


def test_figure6_and_7_speedups_reasonable(mini_sweeps):
    for fig, ds in ((figure6, "pubmed"), (figure7, "trec")):
        rec = fig(mini_sweeps)
        for label, vals in rec["speedup"]["series"].items():
            # speedup at P=4 in (1, 4*1.6) (superlinear only via the
            # memory-pressure anomaly)
            assert 0.5 < vals[-1] < 6.5, (ds, label, vals)
        pct = rec["percentages"]["series"]
        for j in range(2):
            total = sum(v[j] for v in pct.values())
            assert total == pytest.approx(100.0, abs=0.5)


def test_figure6_pressure_anomaly(mini_sweeps):
    s = figure6(mini_sweeps)["speedup"]["series"]
    # the 16.44 GB run is depressed at low processor counts relative
    # to the small size (memory pressure)
    assert s["16.44 GB"][0] < s["2.75 GB"][0]


def test_figure8_components_scale(mini_sweeps):
    rec = figure8(mini_sweeps)
    for ds in ("pubmed", "trec"):
        for group in (
            "Scanning",
            "Indexing",
            "Signature Generation",
            "Clustering & Projection",
        ):
            assert group in rec[ds]
    # scanning speedup grows with P for the small PubMed size
    scan = rec["pubmed"]["Scanning"]["series"]["2.75 GB"]
    assert scan[1] > scan[0]


def test_figure9_balancing():
    rec = figure9(nprocs=4, gen_bytes=800_000, config=_FAST_CFG)
    stats = rec["stats"]
    assert stats["dynamic"]["imbalance"] <= stats["static"]["imbalance"]
    assert stats["dynamic"]["wall"] <= stats["static"]["wall"] * 1.02
    assert "Figure 9" in render(rec)


def test_format_table_alignment():
    out = format_table(
        "T", "rows", ["a", "bb"], [("r1", [1.0, 2.0]), ("row2", [3.5, 4.25])]
    )
    lines = out.split("\n")
    assert lines[0] == "T"
    assert "r1" in lines[3] and "row2" in lines[4]


def test_format_series():
    out = format_series("S", "x", [1, 2], {"y": [0.1, 0.2]})
    assert "S" in out and "y" in out
