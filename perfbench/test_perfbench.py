"""Smoke checks of the benchmark itself.

Run with ``python -m pytest perfbench -q`` (outside tier-1's
``testpaths``): every declared metric is emitted with its unit, names
stay inside the contract's alphabet, the seed changes the generated
load, and a run leaves nothing behind.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import re
import sys
import threading

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _p in (_ROOT, os.path.join(_ROOT, "src")):
    if _p not in sys.path:
        sys.path.insert(0, _p)

import numpy as np  # noqa: E402

from perfbench import gen  # noqa: E402
from perfbench.bench import TMP_ROOT, driver_line, run_workload  # noqa: E402
from perfbench.metrics import (  # noqa: E402
    END_TO_END,
    EXACT,
    PER_LAYER,
    WORKLOADS,
    manifest,
)

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_benchmark_json_is_the_declared_manifest():
    with open(os.path.join(_ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        assert json.load(f) == manifest()


def test_declared_names_fit_the_contract():
    doc = manifest()
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert _NAME.match(name), name
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert _UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert any(
        m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
        for m in doc["end_to_end"]
    )
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])
    assert 2 <= len(doc["workloads"]) <= 8 and len(doc["per_layer"]) <= 128
    assert EXACT <= {n for n, _u, _b in PER_LAYER}


def _profile(n_terms: int = 50) -> gen.Profile:
    return gen.Profile(
        terms=tuple(f"t{i}" for i in range(n_terms)),
        doc_ids=np.arange(1000),
        n_clusters=8,
        bbox=(0.0, 0.0, 1.0, 1.0),
        stamp_lo=0.0,
        stamp_hi=600.0,
        n_sources=4,
    )


def test_seed_changes_the_generated_load():
    def load(seed):
        rng = np.random.default_rng((seed, 1))
        scripts = gen.client_scripts(
            rng, _profile(), gen.MIXED_WEIGHTS, 4, 20, 0.6, 8
        )
        return [q.key() for s in scripts for q in s.queries]

    assert load(7) == load(7)
    assert load(7) != load(8)


def test_every_seed_applies_the_same_mix():
    def kinds(seed):
        rng = np.random.default_rng(seed)
        qs = gen.queries(rng, _profile(), gen.MIXED_WEIGHTS, 200)
        return sorted(q.kind for q in qs)

    assert kinds(1) == kinds(2)
    assert kinds(1).count("search") == 50 and kinds(1).count("emerging") == 10


def test_analyst_sessions_stay_inside_the_set_quota():
    from perfbench.wl_analyst import BODY_OPS, SESSIONS_PER_TENANT, WB_CONFIG

    for seed in range(5):
        rng = np.random.default_rng(seed)
        for s in gen.analyst_scripts(
            rng, _profile(), 2, SESSIONS_PER_TENANT, BODY_OPS
        ):
            saved = [op.name for op in s.ops if op.name]
            assert len(saved) == len(set(saved))
            assert len(saved) * SESSIONS_PER_TENANT <= WB_CONFIG.max_sets
            assert s.ops[0].verb == "open" and s.ops[-1].verb == "close"


@pytest.mark.parametrize("name", [n for n, _why in WORKLOADS])
def test_smoke_run_emits_every_metric_and_leaves_nothing(name, tmp_path):
    plain = run_workload(name, seed=3, seconds=1, smoke=True)
    assert plain["correct"] and plain["failed"] == 0
    assert set(plain["metrics"]) == {n for n, *_ in END_TO_END}
    for n, unit, _better, _bound in END_TO_END:
        assert plain["metrics"][n]["unit"] == unit
        assert plain["metrics"][n]["value"] > 0
    line = json.loads(driver_line(plain))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}

    traced = run_workload(
        name, seed=3, seconds=1, traced=True, smoke=True,
        trace_dir=str(tmp_path),
    )
    assert traced["correct"]
    assert set(traced["metrics"]) == {n for n, *_ in PER_LAYER}
    for n, unit, _better in PER_LAYER:
        assert traced["metrics"][n]["unit"] == unit
    with open(tmp_path / f"{name}.trace.json", encoding="utf-8") as f:
        events = json.load(f)["traceEvents"]
    assert events and all(e["ph"] == "X" for e in events)
    assert (tmp_path / f"{name}.selftime.txt").read_text().startswith("span")

    # hygiene: no process, no thread, no scratch store
    assert multiprocessing.active_children() == []
    assert [t.name for t in threading.enumerate()] == ["MainThread"]
    assert not os.path.exists(TMP_ROOT) or not os.listdir(TMP_ROOT)
