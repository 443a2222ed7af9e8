"""``python -m perfbench``: run every workload with a readable report,
compare two reports, or print the ``BENCHMARK.json`` document.

    PYTHONPATH=src python -m perfbench run [--workload NAME] [--seed S]
        [--seconds N] [--repeat R] [--smoke] [--trace DIR] [--json OUT]
    python -m perfbench compare A.json B.json
    python -m perfbench manifest
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys

from perfbench import hostenv

hostenv.pin()

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")
if _SRC not in sys.path and os.path.isdir(_SRC):
    sys.path.insert(0, _SRC)

from perfbench.hostcal import spread  # noqa: E402
from perfbench.metrics import (  # noqa: E402
    ALIASES,
    END_TO_END,
    EXACT,
    RUN_SECONDS,
    WORKLOADS,
    manifest,
)


def _env() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else None,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "platform": platform.platform(),
    }


def _print_e2e(name: str, report: dict) -> None:
    alias = ALIASES[name]
    host = report["host"]
    print(
        f"\n== {name}  seed {report['seed']}  "
        f"{'correct' if report['correct'] else 'INCORRECT'}  "
        f"attempted {report['attempted']}  failed {report['failed']}  "
        f"failed_share {report['failed'] / max(1, report['attempted']):.6f}"
        f"{'  NOISY' if host['noisy'] else ''}"
    )
    print(f"   digest {report['digest']}")
    for metric, unit, better, bound in END_TO_END:
        value = report["metrics"][metric]["value"]
        what = alias.get(
            "oneshot" if metric.startswith("oneshot") else metric, ""
        )
        raw = report["raw"].get(metric)
        raw_txt = f"  (as timed {raw:.5g})" if raw is not None else ""
        print(
            f"   {metric:<16}{value:>12.5g} {unit:<4} "
            f"{better} is better, bound {bound:.0%}{raw_txt}"
            f"{'  = ' + what if what else ''}"
        )
    for metric, d in report["detail"].items():
        print(
            f"   . {metric:<14} n={d['n']:<4} min {d['min']:.5g}  "
            f"q1 {d['q1']:.5g}  median {d['median']:.5g}  q3 {d['q3']:.5g}"
        )
    print(
        f"   host.calib_ms {host['calib_ms']:.3f}  "
        f"host.calib_spread {host['calib_spread']:.3f}"
    )
    for note in report["notes"]:
        print(f"   note: {note}")


def _print_layers(report: dict) -> None:
    print(
        f"   per-layer (traced run, "
        f"{'correct' if report['correct'] else 'INCORRECT'}):"
    )
    for metric, v in report["metrics"].items():
        if v["value"]:
            print(f"     {metric:<34}{v['value']:>14.6g} {v['unit']}")
    for note in report["notes"]:
        print(f"     note: {note}")
    print(f"     trace: {', '.join(report['trace_files'])}")


def cmd_run(args) -> int:
    from perfbench.bench import run_workload

    names = [args.workload] if args.workload else [n for n, _ in WORKLOADS]
    doc: dict = {"env": _env(), "seconds": args.seconds, "workloads": {}}
    ok = True
    for name in names:
        entry: dict = {"runs": []}
        for r in range(args.repeat):
            report = run_workload(
                name, args.seed + r, args.seconds, smoke=args.smoke
            )
            _print_e2e(name, report)
            entry["runs"].append(report)
            ok = ok and report["correct"]
        if args.trace:
            traced = run_workload(
                name,
                args.seed,
                args.seconds,
                traced=True,
                smoke=args.smoke,
                trace_dir=args.trace,
            )
            _print_layers(traced)
            entry["traced"] = traced
            ok = ok and traced["correct"]
        doc["workloads"][name] = entry
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=1)
    return 0 if ok else 1


def cmd_compare(args) -> int:
    with open(args.a, encoding="utf-8") as f:
        a = json.load(f)["workloads"]
    with open(args.b, encoding="utf-8") as f:
        b = json.load(f)["workloads"]
    worse = 0
    print(
        f"{'workload':<18}{'metric':<16}{'A':>12}{'B':>12}"
        f"{'B/A':>8}{'bound':>7}  verdict"
    )
    for name in a:
        if name not in b:
            continue
        for metric, _unit, better, bound in END_TO_END:
            va = [r["metrics"][metric]["value"] for r in a[name]["runs"]]
            vb = [r["metrics"][metric]["value"] for r in b[name]["runs"]]
            ma, mb = statistics.median(va), statistics.median(vb)
            loss = (mb - ma) / ma if better == "lower" else (ma - mb) / ma
            noisy = any(
                r["host"]["noisy"]
                for r in a[name]["runs"] + b[name]["runs"]
            ) or max(spread(va), spread(vb)) > bound
            if loss <= bound:
                verdict = "ok"
            elif noisy:
                verdict = "unresolved (host noise, see host.calib_spread)"
            else:
                verdict = "worse"
                worse += 1
            print(
                f"{name:<18}{metric:<16}{ma:>12.5g}{mb:>12.5g}"
                f"{mb / ma:>8.3f}{bound:>7.0%}  {verdict}"
            )
        ta, tb = a[name].get("traced"), b[name].get("traced")
        if ta and tb and ta["seed"] == tb["seed"]:
            for metric in sorted(EXACT):
                xa = ta["metrics"][metric]["value"]
                xb = tb["metrics"][metric]["value"]
                if xa != xb:
                    worse += 1
                    print(
                        f"{name:<18}{metric:<28} exact count moved: "
                        f"{xa!r} -> {xb!r}"
                    )
            if ta["digest"] != tb["digest"]:
                worse += 1
                print(f"{name:<18}answers digest moved")
    print("no metric worse" if not worse else f"{worse} worse")
    return 1 if worse else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="python -m perfbench")
    sub = ap.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="run workloads, print every metric")
    run.add_argument("--workload", choices=[n for n, _ in WORKLOADS])
    run.add_argument("--seed", type=int, default=7)
    run.add_argument("--seconds", type=float, default=RUN_SECONDS)
    run.add_argument("--repeat", type=int, default=1,
                     help="runs per workload, seeds seed..seed+R-1")
    run.add_argument("--smoke", action="store_true",
                     help="1 MB corpus, one repetition per phase")
    run.add_argument("--trace", metavar="DIR",
                     help="also do a traced run; write the trace here")
    run.add_argument("--json", metavar="OUT")
    cmp_ = sub.add_parser("compare", help="compare two run --json reports")
    cmp_.add_argument("a")
    cmp_.add_argument("b")
    sub.add_parser("manifest", help="print the BENCHMARK.json document")
    args = ap.parse_args(argv)
    if args.cmd == "run":
        return cmd_run(args)
    if args.cmd == "compare":
        return cmd_compare(args)
    print(json.dumps(manifest(), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
