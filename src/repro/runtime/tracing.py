"""Virtual-time tracing of named program regions.

The engine wraps each pipeline component (scan, index, topic, AM,
DocVec, ClusProj) in ``ctx.region(name)``; the recorded spans are the
raw material for the paper's component-percentage and per-component
speedup figures (Figs. 6b, 7b, 8).
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np

#: set to a non-empty value (other than "0") to make every traced
#: region also record its *real* (perf_counter) extent; used by
#: perfbench's traced runs (``engine.p4.*_wall_s``)
WALL_ENV = "REPRO_TRACE_WALL"


@dataclass(frozen=True)
class Span:
    """One traced region on one rank, in virtual seconds."""

    rank: int
    name: str
    t_start: float
    t_end: float

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


@dataclass(frozen=True)
class Instant:
    """A point event on one rank (fault injections, checkpoints)."""

    rank: int
    name: str
    t: float
    args: tuple = ()


class Tracer:
    """Collects spans from all ranks of one run."""

    def __init__(self, nprocs: int):
        self.nprocs = nprocs
        self.spans: list[Span] = []
        self.instants: list[Instant] = []
        #: real-time spans (perf_counter seconds), only filled when
        #: the WALL_ENV environment variable enables capture; never
        #: part of the Chrome trace export, so the golden-trace
        #: determinism guarantee is unaffected
        self.wall_spans: list[Span] = []
        self._wall = os.environ.get(WALL_ENV, "") not in ("", "0")

    def record(self, rank: int, name: str, t_start: float, t_end: float) -> None:
        if t_end < t_start:
            raise ValueError(
                f"span {name!r} on rank {rank} ends before it starts"
            )
        self.spans.append(Span(rank, name, t_start, t_end))

    def instant(self, rank: int, name: str, t: float, args=None) -> None:
        """Record a point event (e.g. an injected fault firing)."""
        packed = tuple(sorted(args.items())) if args else ()
        self.instants.append(Instant(rank, name, t, packed))

    @contextmanager
    def region(self, rank: int, name: str, clock) -> Iterator[None]:
        """Record the virtual-time extent of the enclosed block."""
        t0 = clock.now
        w0 = time.perf_counter() if self._wall else 0.0
        try:
            yield
        finally:
            self.record(rank, name, t0, clock.now)
            if self._wall:
                self.wall_spans.append(
                    Span(rank, name, w0, time.perf_counter())
                )

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def component_names(self) -> list[str]:
        """Region names in first-recorded order."""
        seen: dict[str, None] = {}
        for s in self.spans:
            seen.setdefault(s.name, None)
        return list(seen)

    def per_rank_totals(self, name: str) -> np.ndarray:
        """Total virtual seconds spent in region ``name`` by each rank."""
        totals = np.zeros(self.nprocs)
        for s in self.spans:
            if s.name == name:
                totals[s.rank] += s.duration
        return totals

    def component_times(self) -> dict[str, float]:
        """Wall contribution of each component.

        Components in the engine are separated by barriers, so the wall
        time a component contributes is the maximum over ranks of the
        time spent inside it.
        """
        return {
            name: float(self.per_rank_totals(name).max())
            for name in self.component_names()
        }

    def component_percentages(self) -> dict[str, float]:
        """Each component's share of the summed component wall time."""
        times = self.component_times()
        total = sum(times.values())
        if total <= 0:
            return {k: 0.0 for k in times}
        return {k: 100.0 * v / total for k, v in times.items()}

    def wall_component_times(self) -> dict[str, float]:
        """Real elapsed window of each captured component, in seconds.

        Components are barrier-separated, so the wall-clock cost of a
        component is the window from the first rank entering it to the
        last rank leaving it.  Empty unless WALL_ENV capture was on.
        """
        windows: dict[str, tuple[float, float]] = {}
        for s in self.wall_spans:
            lo, hi = windows.get(s.name, (s.t_start, s.t_end))
            windows[s.name] = (min(lo, s.t_start), max(hi, s.t_end))
        return {k: hi - lo for k, (lo, hi) in windows.items()}

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_chrome_trace(self) -> list[dict]:
        """Spans as Chrome ``chrome://tracing`` / Perfetto events.

        Each rank appears as a thread; virtual seconds become
        microseconds.  Load the JSON dump of this list in a trace
        viewer to inspect a run's timeline.
        """
        events: list[dict] = []
        for s in self.spans:
            events.append(
                {
                    "name": s.name,
                    "cat": "virtual",
                    "ph": "X",
                    "ts": s.t_start * 1e6,
                    "dur": s.duration * 1e6,
                    "pid": 0,
                    "tid": s.rank,
                    "args": {"rank": s.rank},
                }
            )
        for i in self.instants:
            events.append(
                {
                    "name": i.name,
                    "cat": "fault",
                    "ph": "i",
                    "s": "t",
                    "ts": i.t * 1e6,
                    "pid": 0,
                    "tid": i.rank,
                    "args": dict(i.args, rank=i.rank),
                }
            )
        return events

    def write_chrome_trace(self, path) -> None:
        """Write :meth:`to_chrome_trace` output as a JSON file."""
        import json
        from pathlib import Path

        p = Path(path)
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(json.dumps(self.to_chrome_trace()))
