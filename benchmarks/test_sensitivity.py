"""Machine-parameter sensitivity benchmarks.

The paper makes two qualitative claims about where the engine's
scaling limits sit; each becomes a parameter sweep here:

* "The scanning component is I/O bound as well as computationally
  bound.  In case of larger files and a large number of processors,
  the scanning component becomes I/O bound, which can be leveraged by
  using scalable parallel file systems (e.g., Lustre)" -- we sweep the
  shared filesystem's aggregate bandwidth and watch the scan
  component's scaling recover;
* "the topicality algorithm does not scale well ... because the
  communication cost predominates" -- we sweep network bandwidth and
  watch the topicality share respond while compute-bound components
  don't.
"""

from repro.bench import default_figure_config, make_workload
from repro.engine import ParallelTextEngine
from repro.runtime import MachineSpec

from conftest import write_report


def _scan_wall(machine, corpus, nprocs, cfg):
    res = ParallelTextEngine(nprocs, machine=machine, config=cfg).run(
        corpus
    )
    return res.timings.component_seconds["scan"], res.timings


def test_filesystem_bandwidth_sensitivity(benchmark, out_dir):
    wl = make_workload("pubmed", "2.75 GB", 2.75e9, downscale=10_000.0)
    cfg = default_figure_config()
    rows = []
    for fs_bw in (1e8, 3e8, 3e9, 1e10):
        machine = MachineSpec(fs_total_bytes_per_s=fs_bw)
        scan8, _ = _scan_wall(machine, wl.corpus, 8, cfg)
        scan32, _ = _scan_wall(machine, wl.corpus, 32, cfg)
        rows.append((fs_bw, scan8, scan32, scan8 / scan32))
    benchmark.pedantic(
        lambda: _scan_wall(MachineSpec(), wl.corpus, 8, cfg),
        rounds=1,
        iterations=1,
    )

    lines = [
        "Shared-FS bandwidth sensitivity of the scan component "
        "(PubMed 2.75 GB)",
        f"{'fs GB/s':>8}  {'scan@8 (s)':>11}  {'scan@32 (s)':>12}  "
        f"{'8->32 speedup':>14}",
    ]
    for fs_bw, s8, s32, ratio in rows:
        lines.append(
            f"{fs_bw / 1e9:>8.1f}  {s8:>11.2f}  {s32:>12.2f}  {ratio:>14.2f}"
        )
    write_report(out_dir, "sensitivity_fs.txt", "\n".join(lines))

    # a starved shared FS caps scan scaling; a Lustre-class FS restores it
    slow = rows[0][3]
    fast = rows[-1][3]
    assert fast > slow + 0.4
    assert fast > 2.9  # near-linear 8->32 with ample bandwidth
    assert slow < 2.5  # I/O-bound with a starved filesystem


def test_network_bandwidth_sensitivity(benchmark, out_dir):
    wl = make_workload("pubmed", "2.75 GB", 2.75e9, downscale=10_000.0)
    cfg = default_figure_config()
    rows = []
    for net_bw in (5e7, 8e8, 1e10):
        machine = MachineSpec(net_bytes_per_s=net_bw)
        res = ParallelTextEngine(32, machine=machine, config=cfg).run(
            wl.corpus
        )
        pct = res.timings.component_percentages
        rows.append((net_bw, pct["topic"], pct["scan"]))
    benchmark.pedantic(lambda: rows, rounds=1, iterations=1)

    lines = [
        "Network bandwidth sensitivity at P=32 (PubMed 2.75 GB)",
        f"{'net GB/s':>9}  {'topic %':>8}  {'scan %':>8}",
    ]
    for net_bw, topic, scan in rows:
        lines.append(f"{net_bw / 1e9:>9.2f}  {topic:>8.2f}  {scan:>8.2f}")
    write_report(out_dir, "sensitivity_net.txt", "\n".join(lines))

    # topicality's share responds strongly to the interconnect; the
    # compute-bound scan share barely moves
    assert rows[0][1] > 1.5 * rows[-1][1]
    assert abs(rows[0][2] - rows[-1][2]) < 12.0


def test_chrome_trace_export(benchmark, out_dir):
    """Timeline export of one engine run (tooling smoke test)."""
    import json

    from repro.engine.parallel import _engine_rank_main
    from repro.runtime import Cluster
    from repro.text.documents import partition_documents

    wl = make_workload("trec", "1.00 GB", 1e9, downscale=10_000.0)
    cfg = default_figure_config()

    def run_and_export():
        machine = MachineSpec().with_scale(wl.corpus.workload_scale())
        parts = partition_documents(wl.corpus.documents, 8)
        sim = Cluster(8, machine).run(_engine_rank_main, parts, cfg)
        sim.tracer.write_chrome_trace(out_dir / "trace.json")
        return sim

    benchmark.pedantic(run_and_export, rounds=1, iterations=1)
    events = json.loads((out_dir / "trace.json").read_text())
    assert len(events) > 8 * 6  # >= one span per component per rank
    assert {e["tid"] for e in events} == set(range(8))
