"""What the ``runtime`` bench study records, at toy sizes.

(The file keeps the name of the wall-clock harness it used to test so
the test ids stay stable; the wall threshold, best-of-N repeats and mp
advisories it covered are gone -- perfbench owns wall time.)
"""

import json

from repro.bench.studies import reap_children
from repro.bench.study import SCHEMA, compare, run_studies


def test_measure_produces_stage_breakdown(toy_docs):
    sim = toy_docs["runtime"]["sim"]
    assert set(sim) == {"1", "2"}
    for pt in sim.values():
        assert pt["info"]["wall_s"] > 0
        assert pt["virtual_seconds"] > 0
        assert {"scan", "clusproj"} <= set(pt["stages_virtual_seconds"])
        assert all(v >= 0 for v in pt["stages_virtual_seconds"].values())
        assert pt["counters"]["comm.coll.calls"] > 0
    # parallelism reduces virtual time
    assert sim["2"]["virtual_seconds"] < sim["1"]["virtual_seconds"]


def test_measure_mp_backend_agrees_with_sim(toy_docs):
    doc = toy_docs["runtime"]
    sim, mp = doc["sim"]["2"], doc["mp"]["2"]
    assert mp["virtual_seconds"] == sim["virtual_seconds"]
    assert mp["stages_virtual_seconds"] == sim["stages_virtual_seconds"]
    assert mp["counters"] == sim["counters"]
    assert doc["oracles"] == {
        "sim_equals_mp": True,
        "counters_recorded": True,
    }
    # teardown left no orphaned children behind
    assert reap_children() == []


def _drifted_mp(doc):
    doc = json.loads(json.dumps(doc))
    doc["mp"]["2"]["virtual_seconds"] += 1e-6
    return doc


def test_compare_flags_virtual_drift(toy_docs):
    doc = toy_docs["runtime"]
    drifted = json.loads(json.dumps(doc))
    drifted["sim"]["2"]["virtual_seconds"] += 1e-6
    assert [d.path for d in compare(drifted, doc)] == [
        "sim.2.virtual_seconds"
    ]
    # the one wall clock kept per point is never compared
    drifted = json.loads(json.dumps(doc))
    drifted["sim"]["2"]["info"]["wall_s"] *= 100
    assert compare(drifted, doc) == []


def test_backend_compare_flags_virtual_drift(toy_docs):
    # the sim_equals_mp oracle is this comparison
    doc = _drifted_mp(toy_docs["runtime"])
    assert [d.path for d in compare(doc["sim"], doc["mp"])] == [
        "2.virtual_seconds"
    ]


def test_build_report_cross_backend_and_baseline_mp_virtual(
    tmp_path, toy_docs, canned
):
    # mp virtual drift against a baseline is a hard failure, and a
    # study whose backends disagree fails on its oracle as well
    doc = toy_docs["runtime"]
    canned("runtime", doc)
    out = tmp_path / "b.json"
    assert run_studies(
        ["runtime"], out=out, update_baseline=True, progress=None
    ) == 0
    drifted = _drifted_mp(doc)
    drifted["oracles"]["sim_equals_mp"] = False
    canned("runtime", drifted)
    messages = []
    assert run_studies(["runtime"], out=out, progress=messages.append) == 1
    assert "ORACLE runtime.sim_equals_mp" in messages
    assert any(
        m.startswith("DRIFT runtime.mp.2.virtual_seconds: ")
        for m in messages
    )


def test_build_report_schema_fields(tmp_path, toy_docs, canned):
    canned("runtime", toy_docs["runtime"])
    out = tmp_path / "b.json"
    assert run_studies(["runtime"], out=out, progress=None) == 0
    report = json.loads(out.read_text())
    assert report["schema"] == SCHEMA
    assert set(report["env"]) == {"python", "numpy", "machine", "cpus"}
    assert report["commit"]
    assert report["studies"]["runtime"] == toy_docs["runtime"]
    # first run, nothing to compare against
    assert "baseline" not in report


def test_run_bench_roundtrip(tmp_path, toy_docs, canned):
    canned("runtime", toy_docs["runtime"])
    out = tmp_path / "b.json"
    # first run: no baseline yet, just writes the report
    assert run_studies(["runtime"], out=out, progress=None) == 0
    # second run compares against the first, which it rewrites as is
    assert run_studies(["runtime"], out=out, progress=None) == 0
    assert "baseline" not in json.loads(out.read_text())
    # a report written apart from its baseline records the comparison
    again = tmp_path / "b2.json"
    assert run_studies(
        ["runtime"], out=again, baseline=out, progress=None
    ) == 0
    report = json.loads(again.read_text())
    assert report["baseline"]["drift"] == []
    assert report["baseline"]["uncompared"] == []
