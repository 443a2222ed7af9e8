"""The ``BENCHMARK.json`` command: one workload, one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs in the foreground in this process (``sim`` backend only: no
subprocess, no socket), prints progress on stderr and, as the last
line of stdout, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: every end-to-end metric with ``--trace 0``,
every per-layer metric with ``--trace 1`` (which also writes a Chrome
trace and a self-time table under ``.perfbench_out/``).
"""

import argparse
import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [_ROOT, os.path.join(_ROOT, "src")]

from perfbench import hostenv  # noqa: E402

hostenv.pin()


def main(argv=None) -> int:
    from perfbench.metrics import RUN_SECONDS, WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument(
        "--workload", required=True, choices=[n for n, _ in WORKLOADS]
    )
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(
            f"perfbench: the program under test is not importable "
            f"from {_ROOT}/src: {exc}",
            file=sys.stderr,
        )
        return 2
    from perfbench.bench import driver_line, run_workload

    report = run_workload(
        args.workload,
        args.seed,
        args.seconds,
        traced=bool(args.trace),
        smoke=args.smoke,
    )
    for note in report["notes"]:
        print(f"perfbench: {note}", file=sys.stderr)
    print(driver_line(report), flush=True)
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
