"""Interactive-query latency benchmark (the paper's "next frontier").

The conclusion argues the parallel engine "enables interactive
analysis of large datasets beyond capabilities of existing
state-of-the-art visual analytics tools".  This benchmark quantifies
that: per-query virtual latency of analyst interactions (similarity,
term search, landscape probe) against a represented multi-gigabyte
collection, across processor counts.
"""

from repro.analysis import Query, run_query_batch
from repro.bench import default_figure_config, make_workload
from repro.engine import ParallelTextEngine
from repro.runtime import MachineSpec

from conftest import write_report


def test_query_latency_scaling(benchmark, out_dir):
    wl = make_workload("pubmed", "2.75 GB", 2.75e9, downscale=10_000.0)
    result = ParallelTextEngine(8, config=default_figure_config()).run(
        wl.corpus
    )
    machine = MachineSpec(workload_scale=wl.corpus.workload_scale())

    queries = [
        Query("similar", (0,), k=10),
        Query("terms", tuple(result.topic_term_strings[:3]), k=10),
        Query("nearest", (0.0, 0.0), k=10),
    ]

    def batch_at(nprocs):
        return run_query_batch(result, queries, nprocs, machine=machine)

    rows = {}
    for p in (1, 4, 16, 32):
        answers = batch_at(p)
        rows[p] = [a.latency_s * 1e3 for a in answers]
    benchmark.pedantic(lambda: batch_at(8), rounds=1, iterations=1)

    lines = [
        "Interactive query latency (virtual ms, PubMed 2.75 GB "
        "represented)",
        f"{'P':>4}  {'similar':>10}  {'terms':>10}  {'nearest':>10}",
    ]
    for p, (a, b, c) in rows.items():
        lines.append(f"{p:>4}  {a:>10.2f}  {b:>10.2f}  {c:>10.2f}")
    write_report(out_dir, "interaction_latency.txt", "\n".join(lines))

    # interaction latency shrinks strongly with processors ...
    for j in range(3):
        assert rows[32][j] < rows[1][j] / 8
    # ... and lands in interactive range at 32 procs (< 1 s each)
    assert all(v < 1000.0 for v in rows[32])
