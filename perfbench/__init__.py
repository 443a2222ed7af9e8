"""perfbench: one wall-clock benchmark for the whole system.

Five workloads drive the public functions of each layer (engine,
serving tier, analyst workbench, live ingest) on the ``sim`` backend in
this process, check the answers, and report end-to-end metrics; a
separate traced run attributes time to layers.  See ``README.md``.

Entry points: ``python3 perfbench/run.py`` (one workload, one JSON
line -- the ``BENCHMARK.json`` command) and ``python -m perfbench``
(``run`` every workload with a readable report, ``compare`` two
reports).
"""
