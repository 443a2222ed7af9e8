"""In-memory spans around the benchmark's calls into each layer.

Recorded from the benchmark's own files only (nothing inside the
program is instrumented here); kept in a list and written out once,
when the run ends, as Chrome-trace JSON plus a self-time table.  A
disabled recorder costs one attribute test per span, so the untraced
run that produces the end-to-end metrics carries no tracing work.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional


@dataclass
class Span:
    """One call into a layer: ``layer.operation`` names the layer."""

    sid: int
    name: str
    parent: int  # sid of the enclosing span, -1 at the root
    op: str  # operation id: spans of one request share it
    start: float
    end: float = 0.0

    @property
    def dur(self) -> float:
        return self.end - self.start


class Trace:
    """Span recorder; ``Trace(False)`` records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op: str = "") -> Iterator[Optional[Span]]:
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1] if self._stack else -1
        if not op and parent >= 0:
            op = self.spans[parent].op
        s = Span(len(self.spans), name, parent, op, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s.sid)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str) -> list[float]:
        """Seconds of every finished span called ``name``."""
        return [s.dur for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    # -- output --------------------------------------------------------
    def self_times(self) -> list[tuple[str, int, float, float]]:
        """``(name, calls, total s, self s)`` per span name.

        A span's self time is its duration minus what its direct
        children cover; rows are ordered by self time, largest first.
        """
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.dur
        rows: dict[str, list] = {}
        for s in self.spans:
            row = rows.setdefault(s.name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += s.dur
            row[2] += s.dur - child[s.sid]
        return sorted(
            ((n, c, t, st) for n, (c, t, st) in rows.items()),
            key=lambda r: -r[3],
        )

    def self_time_table(self) -> str:
        lines = [f"{'span':<34}{'calls':>8}{'total s':>12}{'self s':>12}"]
        for name, calls, total, self_s in self.self_times():
            lines.append(
                f"{name:<34}{calls:>8}{total:>12.4f}{self_s:>12.4f}"
            )
        return "\n".join(lines) + "\n"

    def chrome_events(self) -> list[dict]:
        """Complete ("X") events for chrome://tracing / Perfetto."""
        if not self.spans:
            return []
        t0 = self.spans[0].start
        return [
            {
                "name": s.name,
                "cat": s.name.split(".", 1)[0],
                "ph": "X",
                "ts": (s.start - t0) * 1e6,
                "dur": s.dur * 1e6,
                "pid": 0,
                "tid": 0,
                "args": {"sid": s.sid, "parent": s.parent, "op": s.op},
            }
            for s in self.spans
        ]

    def write(self, out_dir: str, stem: str) -> tuple[str, str]:
        """Write ``<stem>.trace.json`` and ``<stem>.selftime.txt``."""
        os.makedirs(out_dir, exist_ok=True)
        trace_path = os.path.join(out_dir, f"{stem}.trace.json")
        table_path = os.path.join(out_dir, f"{stem}.selftime.txt")
        with open(trace_path, "w", encoding="utf-8") as f:
            json.dump({"traceEvents": self.chrome_events()}, f)
        with open(table_path, "w", encoding="utf-8") as f:
            f.write(self.self_time_table())
        return trace_path, table_path
