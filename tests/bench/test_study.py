"""The bench-study mechanism, once, for every registered study."""

import copy
import json
from functools import reduce
from operator import getitem

import pytest

from repro.bench.study import SCHEMA, STUDIES, Drift, compare, run_studies

from .conftest import TOY, TOY_LABEL

NAMES = sorted(TOY)


def test_every_study_has_a_toy_config():
    assert set(STUDIES) == set(TOY)


def _leaves(doc, want_info, in_info=False, path=()):
    """``(path, value)`` of every leaf inside (or outside) ``info``."""
    for key, value in doc.items():
        here = in_info or key == "info"
        if isinstance(value, dict):
            yield from _leaves(value, want_info, here, path + (key,))
        elif here == want_info:
            yield path + (key,), value


def _perturbed(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, list):
        return value + ["x"]
    return f"{value}x"


def _drifts_per_leaf(base, want_info):
    """Perturb one leaf at a time; yield ``(path, value, drifts)``."""
    doc = copy.deepcopy(base)
    for path, value in _leaves(base, want_info):
        holder = reduce(getitem, path[:-1], doc)
        holder[path[-1]] = _perturbed(value)
        yield ".".join(path), value, compare(doc, base)
        holder[path[-1]] = value


@pytest.mark.parametrize("name", NAMES)
def test_document_equals_itself(name, toy_docs):
    assert compare(toy_docs[name], copy.deepcopy(toy_docs[name])) == []


@pytest.mark.parametrize("name", NAMES)
def test_each_exact_leaf_drifts_alone(name, toy_docs):
    seen = []
    for path, value, drifts in _drifts_per_leaf(toy_docs[name], False):
        assert drifts == [Drift(path, value, _perturbed(value))]
        seen.append(path)
    assert any(".counters." in path for path in seen)
    assert any(path.startswith("oracles.") for path in seen)
    # what the per-field tuples this replaced never looked at
    if name == "replica":
        assert f"matrix.{TOY_LABEL}.suspicions" in seen
        assert "failover.fault_r2.counters.serve.queries" in seen
    if name == "dashboard":
        assert "churn.point.p99_latency_s" in seen


@pytest.mark.parametrize("name", NAMES)
def test_info_leaves_never_drift(name, toy_docs):
    base = toy_docs[name]
    for path, _value, drifts in _drifts_per_leaf(base, True):
        assert drifts == [], path
    assert compare({**base, "info": {"host": "a"}}, base) == []
    if name in ("paper", "pruning"):
        assert any("wall_s" in path for path, _ in _leaves(base, True))


@pytest.mark.parametrize("name", NAMES)
def test_two_runs_are_equal_outside_info(name, toy_docs, run_toy):
    assert compare(run_toy(name), toy_docs[name]) == []


@pytest.mark.parametrize("name", NAMES)
def test_toy_oracles_are_named_booleans(name, toy_docs):
    oracles = toy_docs[name]["oracles"]
    assert oracles and all(type(ok) is bool for ok in oracles.values())


def test_compare_flags_missing_and_extra_keys():
    base = {"points": {"2": {"served": 12}}, "info": {"wall_s": 1.0}}
    doc = {"points": {"4": {"served": 12}}}
    assert compare(doc, base) == [
        Drift("points.4", "<absent>", {"served": 12}),
        Drift("points.2", {"served": 12}, "<absent>"),
    ]


# -- the runner, with canned studies -----------------------------------

_DOC = {
    "points": {"1": {"served": 3, "counters": {"serve.queries": 3.0}}},
    "info": {"wall_s": 0.5},
    "oracles": {"holds": True},
}


def test_false_oracle_exits_1(tmp_path, canned):
    canned("fake", {**_DOC, "oracles": {"holds": True, "broken": False}})
    messages = []
    rc = run_studies(
        ["fake"], out=tmp_path / "b.json", progress=messages.append
    )
    assert rc == 1
    assert "ORACLE fake.broken" in messages
    assert not any("fake.holds" in m for m in messages)
    # the report is still written, for the post-mortem
    report = json.loads((tmp_path / "b.json").read_text())
    assert report["studies"]["fake"]["oracles"]["broken"] is False


def _unusable(tmp_path, kind):
    path = tmp_path / f"{kind}.json"
    if kind == "not-json":
        path.write_text("{not json")
    elif kind == "foreign-schema":
        path.write_text(json.dumps({"schema": "something-else/9"}))
    elif kind == "unreadable":
        path.mkdir()
    return path


@pytest.mark.parametrize(
    "kind", ["missing", "not-json", "foreign-schema", "unreadable"]
)
def test_unusable_named_baseline_exits_2(
    tmp_path, capsys, monkeypatch, kind
):
    path = _unusable(tmp_path, kind)
    out = tmp_path / "out.json"
    ran = []
    monkeypatch.setitem(
        STUDIES, "fake", lambda fixture, progress: ran.append(1) or _DOC
    )
    rc = run_studies(["fake"], out=out, baseline=path, progress=None)
    assert rc == 2
    assert f"error: {path}: " in capsys.readouterr().err
    assert not ran and not out.exists()


def test_implicit_baseline_may_be_absent_but_not_foreign(
    tmp_path, capsys, canned
):
    canned("fake", _DOC)
    out = tmp_path / "b.json"
    assert run_studies(["fake"], out=out, progress=None) == 0
    assert "baseline" not in json.loads(out.read_text())
    # an --out file that exists is the baseline: it must be usable
    out.write_text(json.dumps({"schema": "something-else/9"}))
    assert run_studies(["fake"], out=out, progress=None) == 2
    assert f"error: {out}: schema" in capsys.readouterr().err


def test_update_baseline_then_rerun_is_clean(tmp_path, canned):
    canned("fake", _DOC)
    out = tmp_path / "b.json"
    out.write_text("stale, and never read under --update-baseline")
    assert run_studies(
        ["fake"], out=out, update_baseline=True, progress=None
    ) == 0
    again = tmp_path / "b2.json"
    assert run_studies(
        ["fake"], out=again, baseline=out, progress=None
    ) == 0
    report = json.loads(again.read_text())
    assert report["schema"] == SCHEMA
    assert report["baseline"]["drift"] == []
    assert report["baseline"]["uncompared"] == []


def test_drift_exits_1_naming_the_leaf(tmp_path, canned):
    canned("fake", _DOC)
    out = tmp_path / "b.json"
    run_studies(["fake"], out=out, update_baseline=True, progress=None)
    drifted = copy.deepcopy(_DOC)
    drifted["points"]["1"]["counters"]["serve.queries"] = 4.0
    drifted["info"]["wall_s"] = 99.0
    canned("fake", drifted)
    before = out.read_bytes()
    messages = []
    assert run_studies(["fake"], out=out, progress=messages.append) == 1
    assert [m for m in messages if m.startswith("DRIFT")] == [
        "DRIFT fake.points.1.counters.serve.queries: "
        "baseline 3.0 vs measured 4.0"
    ]
    # a failing run leaves its own baseline as it was, so it fails again
    assert f"kept {out} unchanged: the run does not match it" in messages
    assert out.read_bytes() == before
    assert run_studies(["fake"], out=out, progress=None) == 1
    assert out.read_bytes() == before


def test_study_absent_from_baseline_is_reported(tmp_path, canned):
    canned("fake", _DOC)
    canned("other", _DOC)
    out = tmp_path / "b.json"
    run_studies(["fake"], out=out, update_baseline=True, progress=None)
    messages = []
    rc = run_studies(
        ["fake", "other"],
        out=tmp_path / "b2.json",
        baseline=out,
        progress=messages.append,
    )
    assert rc == 0
    assert any(m.startswith("NOT COMPARED other") for m in messages)
    report = json.loads((tmp_path / "b2.json").read_text())
    assert report["baseline"]["uncompared"] == ["other"]
    assert set(report["studies"]) == {"fake", "other"}


def test_subset_run_keeps_the_other_studies_in_its_baseline(
    tmp_path, canned
):
    canned("fake", _DOC)
    canned("other", {**_DOC, "oracles": {"kept": True}})
    out = tmp_path / "b.json"
    run_studies(
        ["fake", "other"], out=out, update_baseline=True, progress=None
    )
    before = json.loads(out.read_text())["studies"]
    canned("other", {"never": "run"})
    messages = []
    assert run_studies(["fake"], out=out, progress=messages.append) == 0
    assert f"NOT RUN other: kept from {out}" in messages
    report = json.loads(out.read_text())
    assert report["studies"] == before
    assert list(report["studies"]) == ["fake", "other"]
    # the file is a baseline, not a comparison of itself
    assert "baseline" not in report
    # a baseline named apart from --out is only compared against
    fresh = tmp_path / "b2.json"
    messages = []
    assert run_studies(
        ["fake"], out=fresh, baseline=out, progress=messages.append
    ) == 0
    assert list(json.loads(fresh.read_text())["studies"]) == ["fake"]
    assert not any(m.startswith("NOT RUN") for m in messages)
    # --update-baseline rewrites the studies it runs and keeps the rest
    run_studies(["fake"], out=out, update_baseline=True, progress=None)
    assert list(json.loads(out.read_text())["studies"]) == ["fake", "other"]


def test_update_baseline_of_some_studies_keeps_the_others(tmp_path, canned):
    canned("fake", _DOC)
    canned("other", {**_DOC, "oracles": {"kept": True}})
    out = tmp_path / "b.json"
    run_studies(
        ["fake", "other"], out=out, update_baseline=True, progress=None
    )
    kept = json.loads(out.read_text())["studies"]["other"]
    changed = copy.deepcopy(_DOC)
    changed["points"]["1"]["served"] = 4
    canned("fake", changed)
    canned("other", {"never": "run"})
    messages = []
    assert run_studies(
        ["fake"], out=out, update_baseline=True, progress=messages.append
    ) == 0
    assert f"NOT RUN other: kept from {out}" in messages
    report = json.loads(out.read_text())
    assert report["studies"] == {"fake": changed, "other": kept}
    assert "baseline" not in report
    # the updated file is now the baseline of both studies
    canned("other", {**_DOC, "oracles": {"kept": True}})
    assert run_studies(["fake", "other"], out=out, progress=None) == 0


def test_positional_names_select_studies(tmp_path, capsys, monkeypatch):
    ran = []
    for name in ("fake", "other"):
        monkeypatch.setitem(
            STUDIES,
            name,
            lambda fixture, progress, name=name: ran.append(name) or _DOC,
        )
    assert run_studies(["other"], out=tmp_path / "b.json", progress=None) == 0
    assert ran == ["other"]
    assert run_studies(["nope"], out=tmp_path / "b.json") == 2
    assert "unknown study 'nope'" in capsys.readouterr().err
