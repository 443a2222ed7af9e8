"""Run one workload: context, repetition loop, hygiene, result assembly."""

from __future__ import annotations

import faulthandler
import gc
import hashlib
import multiprocessing
import os
import resource
import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field

from perfbench.hostcal import HostClock, Timing, spread
from perfbench.metrics import END_TO_END, PER_LAYER
from perfbench.spans import Trace

#: the program's own switch for real-time stage windows
WALL_ENV = "REPRO_TRACE_WALL"

#: a hung workload becomes a stack dump and a non-zero exit well inside
#: the driver's 180 s limit
WATCHDOG_S = 170

#: scratch stores live inside the checkout (the driver forbids writes
#: elsewhere) and are removed before the command returns
TMP_ROOT = ".perfbench_tmp"
OUT_DIR = ".perfbench_out"

#: ``host.calib_spread`` above this marks a result noisy: calibration
#: could not keep up with the host, so a comparison is unresolved
NOISY_SPREAD = 0.10


@dataclass
class Outcome:
    """What a workload hands back for assembly."""

    attempted: int = 0
    failed: int = 0
    digest: str = ""
    #: metric -> one value per repetition, at reference host speed
    samples: dict[str, list[float]] = field(default_factory=dict)
    #: the same values as timed, for the report's detail block
    raw: dict[str, list[float]] = field(default_factory=dict)
    #: per-layer metrics (traced run)
    layers: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def add(self, name: str, norm: float, raw: float) -> None:
        self.samples.setdefault(name, []).append(norm)
        self.raw.setdefault(name, []).append(raw)

    def add_rate(self, name: str, units: float, t: Timing) -> None:
        self.add(name, units / t.norm_s, units / t.raw_s)

    def check(self, ok: bool, what: str, count: int = 1) -> None:
        """Count ``count`` checked operations; a failed check fails
        them all and is named in the report."""
        self.attempted += count
        if not ok:
            self.failed += count
            self.notes.append(f"FAILED: {what}")


@dataclass
class Ctx:
    """Everything a workload needs from the harness."""

    seed: int
    seconds: float
    smoke: bool
    traced: bool
    tmp: str
    clock: HostClock = field(default_factory=HostClock)
    trace: Trace = field(default_factory=lambda: Trace(False))
    #: set-up stage -> timing (everything before the first timed rep)
    setup: dict[str, Timing] = field(default_factory=dict)

    def _spanned(self, name: str, op: str, fn, args, kwargs):
        # the span covers the call only, not the probes around it
        def call():
            with self.trace.span(name, op=op):
                return fn(*args, **kwargs)

        return call

    def stage(self, name: str, fn, *args, **kwargs):
        """Run one set-up stage under a span, timed and calibrated."""
        out, t = self.clock.measure(
            self._spanned(name, "setup", fn, args, kwargs)
        )
        self.setup[name] = t
        return out

    def timed(self, name: str, fn, *args, op: str = "", **kwargs):
        """``(result, Timing)`` of one call into a layer, under a span."""
        gc.collect()
        return self.clock.measure(self._spanned(name, op, fn, args, kwargs))

    def repeat(self, budget_s: float, min_reps: int, body) -> int:
        """Call ``body(i)`` until ``budget_s`` of wall time is spent,
        at least ``min_reps`` times (once under ``--smoke``)."""
        t0 = time.perf_counter()
        i = 0
        while True:
            body(i)
            i += 1
            if self.smoke or (
                i >= min_reps and time.perf_counter() - t0 >= budget_s
            ):
                return i

    def scratch(self, name: str) -> str:
        return os.path.join(self.tmp, name)


class wall_tracer:
    """The program's own wall tracer (``REPRO_TRACE_WALL``), on for the
    enclosed call only."""

    def __enter__(self):
        self.saved = os.environ.get(WALL_ENV)
        os.environ[WALL_ENV] = "1"

    def __exit__(self, *exc):
        if self.saved is None:
            del os.environ[WALL_ENV]
        else:
            os.environ[WALL_ENV] = self.saved


def traced_and_untraced(ctx: Ctx, name: str, session, reps: int = 2):
    """Alternate plain and traced sessions; returns ``(last report,
    median untraced wall, tracing overhead share)``, walls scaled."""
    plain: list[float] = []
    traced: list[float] = []
    report = None
    for i in range(1 if ctx.smoke else reps):
        report, t = ctx.timed(name, session, op=f"plain{i}")
        plain.append(t.norm_s)
        with wall_tracer():
            report, t = ctx.timed(name + ".traced", session, op=f"traced{i}")
        traced.append(t.norm_s)
    wall = statistics.median(plain)
    return report, wall, (statistics.median(traced) - wall) / wall


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    idx = max(0, -(-len(ordered) * pct // 100) - 1)
    return ordered[int(idx)]


def blake(chunks) -> str:
    h = hashlib.blake2b(digest_size=16)
    for c in chunks:
        h.update(c)
        h.update(b"\n")
    return h.hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def assert_clean() -> None:
    """The run leaves no process and no thread behind."""
    children = multiprocessing.active_children()
    threads = [t.name for t in threading.enumerate()]
    if children or threads != ["MainThread"]:
        raise RuntimeError(
            f"benchmark left work behind: children={children} "
            f"threads={threads}"
        )


def _summary(values: list[float]) -> dict:
    q = (
        statistics.quantiles(values, n=4)
        if len(values) > 1
        else [values[0]] * 3
    )
    return {
        "median": statistics.median(values),
        "min": min(values),
        "q1": q[0],
        "q3": q[2],
        "n": len(values),
    }


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    traced: bool = False,
    smoke: bool = False,
    trace_dir: str = OUT_DIR,
) -> dict:
    """Run one workload in this process and return its report."""
    from perfbench.workloads import WORKLOAD_FNS

    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True)
    os.makedirs(TMP_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{name}-", dir=TMP_ROOT)
    ctx = Ctx(
        seed=seed,
        seconds=seconds,
        smoke=smoke,
        traced=traced,
        tmp=tmp,
        trace=Trace(traced),
    )
    try:
        with ctx.trace.span(f"workload.{name}", op=name):
            out = WORKLOAD_FNS[name](ctx)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not os.listdir(TMP_ROOT):
            os.rmdir(TMP_ROOT)
        faulthandler.cancel_dump_traceback_later()
    assert_clean()

    units = {n: u for n, u, _b in PER_LAYER}
    units.update({n: u for n, u, _b, _bd in END_TO_END})
    report: dict = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "attempted": out.attempted,
        "failed": out.failed,
        "correct": out.failed == 0 and out.attempted > 0,
        "digest": out.digest,
        "notes": out.notes,
        "host": {
            "calib_ms": ctx.clock.calib_ms,
            "calib_spread": ctx.clock.calib_spread,
            "noisy": ctx.clock.calib_spread > NOISY_SPREAD,
        },
    }
    if traced:
        layers = dict(out.layers)
        layers["host.calib_ms"] = ctx.clock.calib_ms
        layers["host.calib_spread"] = ctx.clock.calib_spread
        report["metrics"] = {
            n: {"value": float(layers.get(n, 0.0)), "unit": units[n]}
            for n, _u, _b in PER_LAYER
        }
        report["trace_files"] = list(ctx.trace.write(trace_dir, name))
        return report
    setup_norm = sum(t.norm_s for t in ctx.setup.values())
    setup_raw = sum(t.raw_s for t in ctx.setup.values())
    oneshot = out.samples.pop("oneshot_ms")
    oneshot_raw = out.raw.pop("oneshot_ms")
    values = {
        "setup_s": setup_norm,
        "oneshot_p50_ms": percentile(oneshot, 50),
        "oneshot_p95_ms": percentile(oneshot, 95),
        "peak_rss_mb": peak_rss_mb(),
    }
    for metric, vals in out.samples.items():
        values[metric] = statistics.median(vals)
    report["metrics"] = {
        n: {"value": float(values[n]), "unit": units[n]}
        for n, _u, _b, _bd in END_TO_END
    }
    detail = {m: _summary(v) for m, v in out.samples.items()}
    detail["oneshot_ms"] = _summary(oneshot)
    report["detail"] = detail
    report["raw"] = {
        "setup_s": setup_raw,
        "setup_stages_s": {k: t.raw_s for k, t in ctx.setup.items()},
        "oneshot_p50_ms": percentile(oneshot_raw, 50),
        "oneshot_p95_ms": percentile(oneshot_raw, 95),
        **{m: statistics.median(v) for m, v in out.raw.items()},
    }
    report["rep_spread"] = {m: spread(v) for m, v in out.samples.items()}
    return report


def driver_line(report: dict) -> str:
    """The one JSON object the driver reads from the last stdout line."""
    import json

    return json.dumps(
        {
            "correct": report["correct"],
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": report["metrics"],
        }
    )
