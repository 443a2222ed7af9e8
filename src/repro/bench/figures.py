"""The paper's evaluation figures as records, their text and their shapes.

Each ``figure*`` function regenerates the data behind one figure of
§4.2 as a JSON-shaped *record*, mirroring the rows/series the paper
plots:

* Figure 5 -- overall wall-clock time vs processors, both datasets,
  three problem sizes each;
* Figure 6 -- (a) PubMed speedup curves, (b) PubMed per-component time
  percentages for the 2.75 GB size;
* Figure 7 -- (a) TREC speedup curves, (b) TREC per-component time
  percentages for the 1 GB size;
* Figure 8 -- per-component speedup (scanning, indexing, signature
  generation, clustering & projection) for both datasets;
* Figure 9 -- effectiveness of dynamic load balancing in the indexing
  component (per-processor indexing times, dynamic vs static);
* :func:`fig9_ablation` -- the §3.3 strategy comparison (GA-atomic
  task queue vs master-worker vs static partitioning).

A record is a dict of named tables -- ``{"title", "x_label", "x",
"fmt", "series"}`` -- or of dicts of them, plus Figure 9's balance
``stats`` or the ablation's ``walls``.  :func:`render` turns any record
into its ASCII text and :func:`shape_oracles` reads the paper's shape
claims off the records, one named boolean each.  Sweeps are shared:
:func:`run_all_sweeps` computes each workload's sweep once and every
figure reads that cache.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Optional

import numpy as np

from repro.engine import EngineConfig, ParallelTextEngine
from repro.engine.timings import PAPER_LABELS
from repro.runtime import Cluster

from .harness import (
    PAPER_PROCS,
    PUBMED_SIZES,
    TREC_SIZES,
    SweepResult,
    default_figure_config,
    make_workload,
    run_sweep,
)
from .tables import format_series

#: Figure 8 groups the six pipeline components into four panels
FIG8_GROUPS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("Scanning", ("scan",)),
    ("Indexing", ("index",)),
    ("Signature Generation", ("topic", "am", "docvec")),
    ("Clustering & Projection", ("clusproj",)),
)

#: processor counts of the §3.3 strategy ablation
ABLATION_PROCS: tuple[int, ...] = (2, 4, 8, 16)

Sweeps = dict[tuple[str, str], SweepResult]


def run_all_sweeps(
    downscale: float = 10_000.0,
    procs: tuple[int, ...] = PAPER_PROCS,
    config: Optional[EngineConfig] = None,
    seed: int = 7,
    progress: Optional[Callable[[str], None]] = None,
) -> Sweeps:
    """Run the full evaluation grid once (both datasets, all sizes)."""
    sweeps: Sweeps = {}
    for dataset, sizes in (("pubmed", PUBMED_SIZES), ("trec", TREC_SIZES)):
        for label, rep in sizes:
            wl = make_workload(
                dataset, label, rep, downscale=downscale, seed=seed
            )
            sweeps[(dataset, label)] = run_sweep(
                wl,
                procs=procs,
                config=config,
                progress=progress,
            )
    return sweeps


def _dataset_sweeps(sweeps: Sweeps, dataset: str) -> list[SweepResult]:
    return [s for (d, _), s in sweeps.items() if d == dataset]


def _table(title, x_label, x, series, fmt="{:.2f}") -> dict:
    return {
        "title": title,
        "x_label": x_label,
        "x": list(x),
        "fmt": fmt,
        "series": series,
    }


# ----------------------------------------------------------------------
# Figure 5: overall wall-clock timings
# ----------------------------------------------------------------------
def figure5(sweeps: Sweeps) -> dict:
    record = {}
    for dataset, title in (
        ("pubmed", "Pubmed - Overall Timings (wall clock, minutes)"),
        ("trec", "TREC - Overall Timings (wall clock, minutes)"),
    ):
        ds = _dataset_sweeps(sweeps, dataset)
        procs = sorted(ds[0].results)
        series = {
            s.workload.label: [s.wall(p) / 60.0 for p in procs] for s in ds
        }
        record[dataset] = _table(title, "Processors", procs, series)
    return record


# ----------------------------------------------------------------------
# Figures 6a/7a: overall speedup; 6b/7b: component percentages
# ----------------------------------------------------------------------
def _speedup_record(
    sweeps: Sweeps, dataset: str, fig_name: str, pct_size: str
) -> dict:
    ds = _dataset_sweeps(sweeps, dataset)
    procs = sorted(ds[0].results)
    speedups = {
        s.workload.label: [s.speedup(p) for p in procs] for s in ds
    }
    small = next(s for s in ds if s.workload.label == pct_size)
    pct_series = {
        label: [
            small.component_percentages(p).get(comp, 0.0) for p in procs
        ]
        for comp, label in PAPER_LABELS.items()
    }
    return {
        "speedup": _table(
            f"{fig_name}a. {dataset.upper()} - Overall Speedup "
            "(vs ideal serial)",
            "Processors",
            procs,
            speedups,
        ),
        "percentages": _table(
            f"{fig_name}b. {dataset.upper()} {pct_size} - "
            "Time Percentage in Components",
            "Component/P",
            procs,
            pct_series,
            fmt="{:.1f}",
        ),
    }


def figure6(sweeps: Sweeps) -> dict:
    """PubMed speedups + component percentages (2.75 GB)."""
    return _speedup_record(sweeps, "pubmed", "6", "2.75 GB")


def figure7(sweeps: Sweeps) -> dict:
    """TREC speedups + component percentages (1 GB)."""
    return _speedup_record(sweeps, "trec", "7", "1.00 GB")


# ----------------------------------------------------------------------
# Figure 8: per-component speedup
# ----------------------------------------------------------------------
def figure8(sweeps: Sweeps) -> dict:
    record: dict = {}
    for dataset in ("pubmed", "trec"):
        ds = _dataset_sweeps(sweeps, dataset)
        procs = sorted(ds[0].results)
        record[dataset] = {}
        for group_name, comps in FIG8_GROUPS:
            series = {}
            for s in ds:
                serial_t = sum(
                    s.serial_result.timings.component_seconds.get(c, 0.0)
                    for c in comps
                )
                vals = []
                for p in procs:
                    par_t = sum(
                        s.component_seconds(p).get(c, 0.0) for c in comps
                    )
                    vals.append(serial_t / par_t if par_t > 0 else 0.0)
                series[s.workload.label] = vals
            record[dataset][group_name] = _table(
                f"{dataset.upper()} - {group_name} Speedup",
                "Processors",
                procs,
                series,
            )
    return record


# ----------------------------------------------------------------------
# Figure 9: dynamic load balancing effectiveness
# ----------------------------------------------------------------------
def figure9(
    nprocs: int = 8,
    gen_bytes: int = 3_000_000,
    config: Optional[EngineConfig] = None,
    seed: int = 7,
) -> dict:
    """Per-processor indexing times, dynamic vs static balancing.

    Uses the skewed TREC-like corpus where byte-balanced partitions
    carry unequal posting loads.  The fixed-size chunk is one document
    per load so the balancer has fine-grained work to redistribute, as
    in the paper's Kruskal-Weiss chunking.  Unlike the scaling figures
    this runs *unscaled* (one generated byte is one byte): workload
    scaling would inflate each document into an indivisible multi-
    second task and hide the balancer's effect behind task granularity.
    """
    from repro.datasets import generate_trec

    corpus = generate_trec(gen_bytes, seed=seed, max_body_tokens=2_000)
    base = config if config is not None else default_figure_config()
    series = {}
    stats = {}
    for label, dyn in (("dynamic", True), ("static", False)):
        cfg = replace(base, dynamic_load_balancing=dyn, chunk_docs=1)
        res = ParallelTextEngine(nprocs, config=cfg).run(corpus)
        per_rank = res.timings.extras["index_invert_per_rank"]
        series[f"{label} LB"] = per_rank.tolist()
        stats[label] = {
            "wall": float(per_rank.max()),
            "imbalance": float(per_rank.max() / max(1e-12, per_rank.mean())),
        }
    return {
        "per_rank": _table(
            f"Figure 9. Indexing time per processor (seconds, P={nprocs}, "
            "TREC synthetic)",
            "Strategy/rank",
            range(nprocs),
            series,
            fmt="{:.3f}",
        ),
        "stats": stats,
    }


def fig9_ablation() -> dict:
    """GA-atomic queue vs master-worker vs static across P (§3.3).

    Every rank owns 50 fine-grained tasks; odd ranks' tasks cost four
    times as much, so static partitioning leaves half the ranks idle.
    """
    from repro.baselines import run_ga_queue, run_master_worker, run_static

    rng = np.random.default_rng(3)
    walls = {}
    for p in ABLATION_PROCS:
        costs = [
            list(rng.uniform(0.5, 1.5, size=50) * 1e-4 * (1 + 3 * (r % 2)))
            for r in range(p)
        ]
        walls[str(p)] = {
            name: Cluster(p).run(lambda ctx: strat(ctx, costs)).wall_time
            for name, strat in (
                ("static", run_static),
                ("master-worker", run_master_worker),
                ("ga-queue", run_ga_queue),
            )
        }
    return {"walls": walls}


# ----------------------------------------------------------------------
# Text
# ----------------------------------------------------------------------
def _balance_text(stats: dict) -> str:
    dyn, sta = stats["dynamic"], stats["static"]
    return (
        f"imbalance (max/mean): dynamic={dyn['imbalance']:.3f}  "
        f"static={sta['imbalance']:.3f}\n"
        f"indexing wall: dynamic={dyn['wall']:.3f}s  "
        f"static={sta['wall']:.3f}s"
    )


def _walls_text(walls: dict) -> str:
    lines = [
        "Load-balancing strategy ablation (virtual wall seconds)",
        f"{'P':>4}  {'static':>10}  {'master-worker':>14}  {'ga-queue':>10}",
    ]
    for p, w in walls.items():
        lines.append(
            f"{p:>4}  {w['static']:>10.5f}  {w['master-worker']:>14.5f}  "
            f"{w['ga-queue']:>10.5f}"
        )
    return "\n".join(lines)


_TEXT = {"stats": _balance_text, "walls": _walls_text}


def render(record: dict) -> str:
    """The text of a figure record: its parts in order, a blank line
    between each."""
    blocks = []
    for key, part in record.items():
        if key in _TEXT:
            blocks.append(_TEXT[key](part))
        elif "series" in part:
            blocks.append(
                format_series(
                    part["title"],
                    part["x_label"],
                    part["x"],
                    part["series"],
                    fmt=part["fmt"],
                )
            )
        else:
            blocks.append(render(part))
    return "\n\n".join(blocks)


# ----------------------------------------------------------------------
# Shapes
# ----------------------------------------------------------------------
def _rising(values) -> bool:
    return all(b > a for a, b in zip(values, values[1:]))


def shape_oracles(figures: dict) -> dict[str, bool]:
    """Every shape claim the reproduction makes about the paper's
    figures, one named boolean each, read off ``figures``: the
    records of :func:`figure5` ... :func:`figure9` and
    :func:`fig9_ablation` under their function names."""
    oracles: dict[str, bool] = {}

    # Figure 5: times fall with P, grow with size; the 16.44 GB PubMed
    # run is disproportionately slow at the smallest P (memory pressure)
    for dataset, table in figures["figure5"].items():
        for label, minutes in table["series"].items():
            oracles[f"fig5_minutes_fall[{dataset} {label}]"] = _rising(
                [-m for m in minutes]
            )
    pm = figures["figure5"]["pubmed"]["series"]
    big, mid, small = pm["16.44 GB"], pm["6.67 GB"], pm["2.75 GB"]
    oracles["fig5_size_order_at_max_p[pubmed]"] = (
        big[-1] > mid[-1] > small[-1]
    )
    oracles["fig5_16gb_slow_at_min_p[pubmed]"] = (
        big[0] / mid[0] > 2.0 * (big[-1] / mid[-1])
    )
    pubmed_sp = figures["figure6"]["speedup"]["series"]
    oracles["fig6a_16gb_depressed_at_min_p[pubmed]"] = (
        pubmed_sp["16.44 GB"][0] < 0.8 * pubmed_sp["2.75 GB"][0]
    )

    for fig, dataset in (("6", "pubmed"), ("7", "trec")):
        record = figures[f"figure{fig}"]
        # Figures 6a/7a: near-linear speedup, except PubMed 16.44 GB,
        # depressed at the smallest P and near-linear after
        procs = record["speedup"]["x"]
        speedup = record["speedup"]["series"]
        for label, sp in speedup.items():
            tag = f"[{dataset} {label}]"
            eff = sp[-1] / procs[-1]
            oracles[f"fig{fig}a_speedup_rises{tag}"] = _rising(sp)
            if label == "16.44 GB":
                oracles[f"fig{fig}a_thrashes_then_near_linear{tag}"] = (
                    sp[0] < 2.0 and _rising(sp[1:]) and eff >= 0.5
                )
            else:
                oracles[f"fig{fig}a_near_linear{tag}"] = (
                    _rising(sp) and eff >= 0.5
                )
                oracles[f"fig{fig}a_efficiency_at_max_p{tag}"] = (
                    0.5 < eff <= 1.1
                )
        # Figures 6b/7b: component shares flat in P except topicality,
        # which grows yet stays below scanning and indexing
        pct = record["percentages"]["series"]
        tag = f"[{dataset}]"
        oracles[f"fig{fig}b_shares_flat_except_topic{tag}"] = all(
            max(pct[PAPER_LABELS[c]]) - min(pct[PAPER_LABELS[c]]) < 12.0
            for c in ("scan", "index", "am", "docvec", "clusproj")
        )
        topic = pct["topic"]
        oracles[f"fig{fig}b_topic_grows_yet_smallest{tag}"] = (
            topic[-1] > topic[0]
            and topic[-1] < min(pct["scan"][-1], pct["index"][-1])
        )
        oracles[f"fig{fig}b_shares_sum_to_100{tag}"] = all(
            abs(sum(column) - 100.0) < 0.5 for column in zip(*pct.values())
        )

    # Figure 8: every component's speedup grows with P; the heavyweight
    # components reach a sane efficiency for the largest size
    for dataset, groups in figures["figure8"].items():
        ends = []
        for group, table in groups.items():
            tag = f"[{dataset} {group}]"
            series = list(table["series"].values())
            oracles[f"fig8_speedup_rises{tag}"] = all(map(_rising, series))
            ends += [sp[-1] > sp[0] for sp in series]
            if group in ("Scanning", "Indexing"):
                oracles[f"fig8_efficiency_at_max_p{tag}"] = (
                    series[-1][-1] / table["x"][-1] > 0.45
                )
        oracles[f"fig8_every_group_grows[{dataset}]"] = all(ends)

    # Figure 9: dynamic LB flattens the per-processor indexing times
    # without hurting the indexing wall
    stats = figures["figure9"]["stats"]
    dyn, sta = stats["dynamic"], stats["static"]
    oracles["fig9_dynamic_lb_flattens"] = (
        dyn["imbalance"] < sta["imbalance"] and dyn["imbalance"] < 1.15
    )
    oracles["fig9_dynamic_lb_keeps_wall"] = dyn["wall"] <= sta["wall"] * 1.02
    per_rank = figures["figure9"]["per_rank"]["series"]
    oracles["fig9_dynamic_std_below_static"] = bool(
        np.std(per_rank["dynamic LB"]) < np.std(per_rank["static LB"])
    )

    # §3.3: the GA queue beats static partitioning at every P, and the
    # master-worker bottleneck shows at the largest P
    walls = figures["fig9_ablation"]["walls"]
    oracles["ablation_ga_queue_beats_static"] = all(
        w["ga-queue"] < w["static"] for w in walls.values()
    )
    top = walls[max(walls, key=int)]
    oracles["ablation_ga_queue_beats_master_worker_at_max_p"] = (
        top["ga-queue"] < top["master-worker"]
    )
    return oracles
