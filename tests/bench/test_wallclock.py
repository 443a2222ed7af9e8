"""What the ``paper`` bench study records per backend, at toy sizes.

(The file keeps the name of the wall-clock harness it used to test so
the test ids stay stable; the wall threshold, best-of-N repeats and mp
advisories it covered are gone -- perfbench owns wall time.  The
backend points it checks moved from the former ``runtime`` study into
``paper``.)
"""

import json

from repro.bench.studies import reap_children
from repro.bench.study import SCHEMA, compare, run_studies


def test_measure_produces_stage_breakdown(toy_docs):
    sim = toy_docs["paper"]["backends"]["sim"]
    assert set(sim) == {"2", "8"}
    for pt in sim.values():
        assert pt["virtual_seconds"] > 0
        assert {"scan", "clusproj"} <= set(pt["stages_virtual_seconds"])
        assert all(v >= 0 for v in pt["stages_virtual_seconds"].values())
        assert pt["counters"]["comm.coll.calls"] > 0
    for pt in toy_docs["paper"]["backends"]["mp"].values():
        assert pt["info"]["wall_s"] > 0
    # parallelism reduces virtual time
    assert sim["8"]["virtual_seconds"] < sim["2"]["virtual_seconds"]


def test_measure_mp_backend_agrees_with_sim(toy_docs):
    doc = toy_docs["paper"]
    sim, mp = doc["backends"]["sim"]["8"], doc["backends"]["mp"]["8"]
    assert mp["virtual_seconds"] == sim["virtual_seconds"]
    assert mp["stages_virtual_seconds"] == sim["stages_virtual_seconds"]
    assert mp["counters"] == sim["counters"]
    assert doc["oracles"]["sim_equals_mp"] is True
    # teardown left no orphaned children behind
    assert reap_children() == []


def _drifted_mp(doc):
    doc = json.loads(json.dumps(doc))
    doc["backends"]["mp"]["8"]["virtual_seconds"] += 1e-6
    return doc


def test_compare_flags_virtual_drift(toy_docs):
    doc = toy_docs["paper"]
    drifted = json.loads(json.dumps(doc))
    drifted["backends"]["sim"]["8"]["virtual_seconds"] += 1e-6
    assert [d.path for d in compare(drifted, doc)] == [
        "backends.sim.8.virtual_seconds"
    ]
    # the one wall clock kept per point is never compared
    drifted = json.loads(json.dumps(doc))
    drifted["backends"]["mp"]["8"]["info"]["wall_s"] *= 100
    assert compare(drifted, doc) == []


def test_backend_compare_flags_virtual_drift(toy_docs):
    # the sim_equals_mp oracle is this comparison
    backends = _drifted_mp(toy_docs["paper"])["backends"]
    assert [d.path for d in compare(backends["sim"], backends["mp"])] == [
        "8.virtual_seconds"
    ]


def test_build_report_cross_backend_and_baseline_mp_virtual(
    tmp_path, toy_docs, canned
):
    # mp virtual drift against a baseline is a hard failure, and a
    # study whose backends disagree fails on its oracle as well
    doc = toy_docs["paper"]
    canned("paper", doc)
    out = tmp_path / "b.json"
    assert run_studies(
        ["paper"], out=out, update_baseline=True, progress=None
    ) == 0
    drifted = _drifted_mp(doc)
    drifted["oracles"]["sim_equals_mp"] = False
    canned("paper", drifted)
    messages = []
    assert run_studies(["paper"], out=out, progress=messages.append) == 1
    assert "ORACLE paper.sim_equals_mp" in messages
    assert any(
        m.startswith("DRIFT paper.backends.mp.8.virtual_seconds: ")
        for m in messages
    )


def test_build_report_schema_fields(tmp_path, toy_docs, canned):
    canned("paper", toy_docs["paper"])
    out = tmp_path / "b.json"
    assert run_studies(["paper"], out=out, progress=None) == 0
    report = json.loads(out.read_text())
    assert report["schema"] == SCHEMA
    assert set(report["env"]) == {"python", "numpy", "machine", "cpus"}
    assert report["commit"]
    assert report["studies"]["paper"] == toy_docs["paper"]
    # first run, nothing to compare against
    assert "baseline" not in report


def test_run_bench_roundtrip(tmp_path, toy_docs, canned):
    canned("paper", toy_docs["paper"])
    out = tmp_path / "b.json"
    # first run: no baseline yet, just writes the report
    assert run_studies(["paper"], out=out, progress=None) == 0
    # second run compares against the first, which it rewrites as is
    assert run_studies(["paper"], out=out, progress=None) == 0
    assert "baseline" not in json.loads(out.read_text())
    # a report written apart from its baseline records the comparison
    again = tmp_path / "b2.json"
    assert run_studies(
        ["paper"], out=again, baseline=out, progress=None
    ) == 0
    report = json.loads(again.read_text())
    assert report["baseline"]["drift"] == []
    assert report["baseline"]["uncompared"] == []
