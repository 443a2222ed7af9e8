"""Host-speed calibration: what makes wall-clock numbers repeatable here.

This shared 2-core host alternates, in phases of tens of seconds to
minutes, between a fast state and one in which the same work takes
1.4-1.5x as long (CPU time too, and ``/proc/stat`` shows no steal: it
is micro-architectural interference, not descheduling).  Raw wall
times of identical runs then spread by 10-45 % between runs, more than
any bound a regression gate could use.  A fixed calibration sample
timed right before and after every measured piece of work tracks the
host's state, and every duration the benchmark reports is

    raw seconds x REF_MS / median(calibration samples around the work)

i.e. seconds at the reference host speed.  The sample lives here,
outside the program under test, so no change to the program can move
it; ``host.calib_ms`` and ``host.calib_spread`` report what it saw.

What the sample is made of matters.  Across a recorded fast->slow
transition, broker sessions slowed 1.41-1.47x and the serial engine
1.48x; a pure arithmetic + small-matmul loop slowed only 1.35x
(scaling by it left a 6-13 % bias between phases), while thread
hand-offs through ``threading.Event`` -- futex wake-ups and context
switches, the kernel paths real work also crosses -- slowed 1.50x.
One part compute to three parts hand-off left a bias of 0-4 % on all
three kinds of work, so that is the blend.
"""

from __future__ import annotations

import statistics
import threading
import time
from dataclasses import dataclass

import numpy as np

#: calibration-sample time on this host in its fast state; only fixes
#: the scale of reported seconds (a uniformly faster host reports
#: uniformly smaller times, as it should)
REF_MS = 3.2

#: samples per probe: enough that the probe's median is steadier than
#: the work it normalises, short enough (~30 ms) to sit between reps
PROBE_SAMPLES = 8

_HANDOFFS = 230
_MAT = np.random.default_rng(0).random((128, 128))


def sample_ms() -> float:
    """One calibration sample: round trips between two threads, then a
    short Python loop and small numpy kernels (about 3:1 in time)."""
    ping, pong = threading.Event(), threading.Event()

    def partner() -> None:
        for _ in range(_HANDOFFS):
            ping.wait()
            ping.clear()
            pong.set()

    other = threading.Thread(target=partner)
    t0 = time.perf_counter()
    other.start()
    for _ in range(_HANDOFFS):
        ping.set()
        pong.wait()
        pong.clear()
    other.join()
    acc = 0
    for i in range(6_000):
        acc += i * i % 7
    for _ in range(3):
        prod = _MAT @ _MAT
        prod.sort(axis=1)
    return (time.perf_counter() - t0) * 1e3


@dataclass(frozen=True)
class Timing:
    """One measured duration, as timed and at reference host speed."""

    raw_s: float
    norm_s: float


def spread(values: list[float]) -> float:
    """Inter-quartile distance over the median (the driver's measure)."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


class HostClock:
    """Times work bracketed by calibration probes."""

    def __init__(self) -> None:
        #: median of every probe taken, in order
        self.probe_medians: list[float] = []
        self._last: list[float] | None = None
        self._last_end = 0.0

    def _probe(self) -> list[float]:
        chunk = [sample_ms() for _ in range(PROBE_SAMPLES)]
        self.probe_medians.append(statistics.median(chunk))
        self._last = chunk
        self._last_end = time.perf_counter()
        return chunk

    def _before(self) -> list[float]:
        # back-to-back measurements share the probe between them
        if (
            self._last is not None
            and time.perf_counter() - self._last_end < 0.05
        ):
            return self._last
        return self._probe()

    def measure(self, fn, *args, **kwargs):
        """``(fn(*args, **kwargs), Timing)`` with a probe either side."""
        before = self._before()
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        raw = time.perf_counter() - t0
        after = self._probe()
        return out, Timing(raw, raw * self._factor(before + after))

    def measure_each(self, calls, chunk: int = 20):
        """Time each zero-argument callable on its own.

        Probes sit between chunks of ``chunk`` calls (short calls
        would drown in per-call probes); every call in a chunk is
        scaled by the two probes around that chunk.  Returns
        ``(results, timings)``.
        """
        results: list = []
        timings: list[Timing] = []
        calls = list(calls)
        for lo in range(0, len(calls), chunk):
            before = self._before()
            raws: list[float] = []
            for call in calls[lo : lo + chunk]:
                t0 = time.perf_counter()
                results.append(call())
                raws.append(time.perf_counter() - t0)
            factor = self._factor(before + self._probe())
            timings.extend(Timing(r, r * factor) for r in raws)
        return results, timings

    @staticmethod
    def _factor(samples: list[float]) -> float:
        return REF_MS / statistics.median(samples)

    # -- what the host looked like -------------------------------------
    @property
    def run_factor(self) -> float:
        """Scale for durations read off the program's own timers,
        which no probe pair brackets: the whole run's median speed."""
        return REF_MS / self.calib_ms

    @property
    def calib_ms(self) -> float:
        return statistics.median(self.probe_medians)

    @property
    def calib_spread(self) -> float:
        return spread(self.probe_medians)
