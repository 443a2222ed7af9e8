"""The ``paper`` study's records: shape oracles and EXPERIMENTS.md."""

import copy
import json
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest

from repro.bench import render, shape_oracles

ROOT = Path(__file__).resolve().parents[2]


#: (path to one record value, its new value from the old one, the
#: oracles that turn false)
PERTURBATIONS = {
    "fig5-trec-time-rises": (
        ("figure5", "trec", "series", "1.00 GB", -1),
        lambda v: 10 * v,
        {"fig5_minutes_fall[trec 1.00 GB]"},
    ),
    "fig5-no-anomaly": (
        ("figure5", "pubmed", "series", "6.67 GB", 0),
        lambda v: 10 * v,
        {"fig5_16gb_slow_at_min_p[pubmed]"},
    ),
    "fig6a-superlinear": (
        ("figure6", "speedup", "series", "2.75 GB", -1),
        lambda v: 2 * v,
        {"fig6a_efficiency_at_max_p[pubmed 2.75 GB]"},
    ),
    "fig7b-shares-off-100": (
        ("figure7", "percentages", "series", "AM", 0),
        lambda v: v + 1.0,
        {"fig7b_shares_sum_to_100[trec]"},
    ),
    "fig8-indexing-falls": (
        ("figure8", "trec", "Indexing", "series", "1.00 GB", 0),
        lambda v: 100 * v,
        {"fig8_speedup_rises[trec Indexing]", "fig8_every_group_grows[trec]"},
    ),
    "fig9-dynamic-ragged": (
        ("figure9", "per_rank", "series", "dynamic LB", -1),
        lambda v: 10 * v,
        {"fig9_dynamic_std_below_static"},
    ),
    "ablation-master-worker-wins": (
        ("fig9_ablation", "walls", "16", "ga-queue"),
        lambda v: 1.5 * v,
        {"ablation_ga_queue_beats_master_worker_at_max_p"},
    ),
}


def test_toy_oracles_all_hold(toy_docs):
    doc = toy_docs["paper"]
    assert doc["oracles"] == {
        **shape_oracles(doc["figures"]),
        "sim_equals_mp": True,
    }
    assert [k for k, ok in doc["oracles"].items() if not ok] == []


def test_oracles_cover_every_figure(toy_docs):
    names = toy_docs["paper"]["oracles"]
    for prefix in ("fig5_", "fig6a_", "fig6b_", "fig7a_", "fig7b_", "fig8_"):
        assert any(n.startswith(prefix) for n in names), prefix
    assert {
        "fig9_dynamic_lb_flattens",
        "fig9_dynamic_lb_keeps_wall",
        "fig9_dynamic_std_below_static",
        "ablation_ga_queue_beats_static",
        "ablation_ga_queue_beats_master_worker_at_max_p",
    } <= set(names)
    # 51 shape oracles and the backend check
    assert len(names) == 52


@pytest.mark.parametrize("case", sorted(PERTURBATIONS))
def test_perturbed_value_turns_its_oracle_false(case, toy_docs):
    path, change, expected = PERTURBATIONS[case]
    figures = copy.deepcopy(toy_docs["paper"]["figures"])
    holder = reduce(getitem, path[:-1], figures)
    holder[path[-1]] = change(holder[path[-1]])
    oracles = shape_oracles(figures)
    assert {name for name, ok in oracles.items() if not ok} == expected


def test_experiments_md_shows_the_committed_records():
    report = json.loads((ROOT / "BENCH_virtual.json").read_text())
    experiments = (ROOT / "EXPERIMENTS.md").read_text()
    figures = report["studies"]["paper"]["figures"]
    assert set(figures) == {
        "figure5",
        "figure6",
        "figure7",
        "figure8",
        "figure9",
        "fig9_ablation",
    }
    for name, record in figures.items():
        for block in render(record).split("\n\n"):
            assert block in experiments, (name, block)
