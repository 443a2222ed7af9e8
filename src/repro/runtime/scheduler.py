"""Deterministic virtual-time scheduler for SPMD rank threads.

The simulator runs each rank of an SPMD program on its own OS thread,
but only **one rank executes at a time**: whenever a rank reaches a
*synchronization point* (any runtime API call -- message, collective,
one-sided operation, RPC), it yields, and the scheduler hands the turn
to the runnable rank with the smallest virtual clock (ties broken by
rank id).  Because every globally-visible operation therefore executes
in virtual-time order, the simulation is a conservative discrete-event
simulation and is bit-reproducible: dynamic load-balancing decisions,
hashmap insertion orders, and message matchings come out identical on
every run.

Pure local compute between synchronization points runs at full speed
and is accounted for by explicit cost charges against the rank's
virtual clock (see :class:`repro.runtime.machine.MachineSpec`).

Wall-clock fast paths
---------------------
The scheduling *policy* is fixed (minimum ``(clock, rank)`` wins), but
the *mechanism* has two interchangeable implementations:

* the default fast path keeps runnable candidates in a heap keyed on
  ``(virtual time, kind, rank)`` and wakes only the next turn-holder
  by opening its per-rank gate (a raw ``_thread`` lock, cheaper to park
  on than a :class:`threading.Event`, whose every wait builds a
  condition waiter).  A rank that yields but
  is still the minimum-clock runnable rank *retains the turn* without
  any context switch or wakeup at all -- the dominant case in
  compute-heavy stages;
* setting ``REPRO_SCHED_SLOWPATH=1`` selects the original reference
  mechanism -- a shared :class:`threading.Condition`, a broadcast
  ``notify_all`` per turn handoff, and a linear min-clock scan.

Both mechanisms implement the identical policy, so virtual-time
results, traces, and every downstream number are bit-identical either
way (``tests/runtime/test_sched_fastpath.py`` enforces this).  The
fast path exists purely to cut real wall-clock time: ``notify_all``
wakes every waiting rank thread only for all but one to go back to
sleep, which dominated runs at P >= 8.

Service ranks
-------------
The fast path also runs *service ranks* (:mod:`repro.runtime.service`)
without a thread: when its dispatch grants the turn to a service rank,
the dispatching thread runs that rank's next step itself -- from the
granted turn to the rank's next synchronization point -- and then
dispatches again, until the turn reaches a rank with a thread.  Only
the thread that granted a service rank its turn steps it.  The turn
order is the one the rank's own thread would have produced, so a
session of service ranks costs no thread hand-offs at all.  Under the
slow path every rank keeps a thread, service ranks included.

Fault tolerance
---------------
A rank may *fail-stop crash* (injected via
:class:`~repro.runtime.faults.FaultInjector`): it transitions to a
terminal ``FAILED`` state without aborting the world.  Blocked ranks
may carry a virtual-time *deadline*; a rank whose deadline is the
minimum pending virtual time resumes with ``timed_out=True`` instead of
waiting forever on a dead peer.  Deadline firing is deterministic: a
deadline is only taken when no READY rank could still run at an earlier
(or equal) virtual time, so a would-be waker always gets to run first.
"""

from __future__ import annotations

import _thread
import heapq
import os
import threading
from typing import Callable, Optional

from .clock import VirtualClock
from .errors import (
    ClusterAborted,
    CommTimeoutError,
    DeadlockError,
    RankCrashedError,
    RankFailedError,
    RuntimeMisuseError,
)
from .service import YIELD

# Error types the driver re-raises verbatim rather than wrapping in the
# generic "rank N failed" RuntimeError: they are self-describing and
# callers (tests, the engine's restart loop) match on them directly.
_PASSTHROUGH_ERRORS = (DeadlockError, RankFailedError, CommTimeoutError)

_READY = "ready"
_RUNNING = "running"
_BLOCKED = "blocked"
_DONE = "done"
_FAILED = "failed"

#: candidate kinds in the dispatch key -- READY beats an equal-time
#: deadline, matching the determinism rule in the module docstring
_KIND_READY = 0
_KIND_DEADLINE = 1

#: environment variable selecting the reference (slow-path) mechanism
SLOWPATH_ENV = "REPRO_SCHED_SLOWPATH"


def _slowpath_enabled() -> bool:
    return os.environ.get(SLOWPATH_ENV, "") not in ("", "0")


class Scheduler:
    """Coordinates ``nprocs`` cooperative rank threads in virtual time."""

    def __init__(self, nprocs: int, injector=None, metrics=None):
        if nprocs < 1:
            raise ValueError(f"nprocs must be >= 1, got {nprocs}")
        self.nprocs = nprocs
        self.clocks = [VirtualClock() for _ in range(nprocs)]
        self._lock = threading.Lock()
        #: reference mechanism: rank threads wait here, woken broadcast
        self._cv = threading.Condition(self._lock)
        #: the driver's wait_all parks here in both mechanisms
        self._driver_cv = threading.Condition(self._lock)
        #: fast path: one gate per rank -- a raw lock held while the
        #: gate is closed, released only for the rank actually granted
        #: the turn; ``_gate_open`` mirrors it under ``_lock`` so an
        #: already-open gate is never released twice
        self._gate = [_thread.allocate_lock() for _ in range(nprocs)]
        for gate in self._gate:
            gate.acquire()
        self._gate_open = [False] * nprocs
        #: fast path: dispatch candidates as (t, kind, rank, gen); a
        #: rank's entries are lazily invalidated by bumping its _gen.
        #: Seeded with every rank at t=0 (all start READY) so the very
        #: first arrivals see the full candidate set and the turn order
        #: is independent of OS thread startup interleaving.
        self._heap: list[tuple[float, int, int, int]] = [
            (0.0, _KIND_READY, r, 0) for r in range(nprocs)
        ]
        self._gen = [0] * nprocs
        self.slowpath = _slowpath_enabled()
        self._state = [_READY] * nprocs
        self._block_reason: list[str] = [""] * nprocs
        self._current: Optional[int] = None
        self._done_count = 0
        self._error: Optional[BaseException] = None
        self._error_rank: Optional[int] = None
        #: total virtual seconds each rank spent blocked (waiting on
        #: messages, collectives, or wakes) -- the waiting/imbalance
        #: side of the utilization picture
        self.blocked_time = [0.0] * nprocs
        self._block_entry = [0.0] * nprocs
        #: optional fault injector consulted at every synchronization
        #: point and compute charge (None = fault-free, zero overhead)
        self.injector = injector
        #: virtual time each crashed rank died at (empty if none did)
        self.failed_at: dict[int, float] = {}
        self._deadline: list[Optional[float]] = [None] * nprocs
        self._timed_out = [False] * nprocs
        #: optional MetricsRegistry recording blocked-time counters and
        #: histograms (None for standalone schedulers, e.g. unit tests)
        self.metrics = metrics
        #: fast path: each service rank's thread-less step (None for a
        #: rank with a thread of its own); see :meth:`serve_inline`
        self._service: list = [None] * nprocs
        #: the rank inside a service handler right now, if any -- it
        #: may not reach a synchronization point
        self.handling: Optional[int] = None

    def serve_inline(self, rank: int, service) -> None:
        """Run ``rank`` as a service rank with no thread of its own.

        ``service`` is a :class:`~repro.runtime.service.InlineService`;
        whichever thread's dispatch grants ``rank`` the turn runs its
        step.  Fast path only, and before any rank starts.
        """
        if self.slowpath:
            raise RuntimeMisuseError(
                "service ranks run inline under the fast path only"
            )
        self._service[rank] = service

    def release_services(self) -> None:
        """Forget every service rank's step once the run is over.

        A step holds its rank's context, which holds this scheduler:
        dropping the steps breaks that cycle, so a finished run's
        handlers (and the stores they opened) die with their last
        reference instead of waiting for the cyclic collector.
        """
        self._service = [None] * self.nprocs

    # ------------------------------------------------------------------
    # rank-side API (called from rank threads)
    # ------------------------------------------------------------------
    def now(self, rank: int) -> float:
        """Virtual time of ``rank`` (only its own thread may call this)."""
        return self.clocks[rank].now

    def advance(self, rank: int, dt: float) -> float:
        """Charge ``dt`` virtual seconds to ``rank``'s clock.

        Straggler faults scale the charge (a slow node takes longer to
        do the same work).
        """
        if self.injector is not None:
            dt = self.injector.scale_compute(
                rank, self.clocks[rank].now, dt
            )
        return self.clocks[rank].advance(dt)

    def wait_turn(self, rank: int) -> None:
        """Yield until ``rank`` is the minimum-clock runnable rank.

        Every globally-visible runtime operation calls this first; on
        return the rank *holds the turn* and may mutate shared
        simulation state without further locking (no other rank runs).

        Fast path: when the yielding rank is still the minimum-clock
        runnable rank it retains the turn immediately -- no wakeup is
        issued and no other thread runs.

        If a crash fault is due for this rank, it fires here (raising
        :class:`~repro.runtime.errors.RankCrashedError`) -- i.e. ranks
        die at synchronization points, with the turn held, so the
        simulation state stays consistent.
        """
        if rank == self.handling:
            raise RuntimeMisuseError(
                f"rank {rank}: a service handler reached a "
                f"synchronization point"
            )
        if self.slowpath:
            self._wait_turn_slow(rank)
        else:
            granted = False
            svc = None
            with self._lock:
                self._check_error_locked()
                self._state[rank] = _READY
                if self._current == rank:
                    self._current = None
                if self._current is None:
                    # turn-retention fast path: if this rank's key is
                    # <= the best other candidate, it wins back the
                    # turn without touching the heap or any event
                    top = self._prune_top_locked()
                    key = (self.clocks[rank].now, _KIND_READY, rank)
                    if top is None or key <= top[:3]:
                        self._current = rank
                        self._state[rank] = _RUNNING
                        granted = True
                    else:
                        self._push_locked(rank, key[0], _KIND_READY)
                        svc = self._dispatch_locked(caller=rank)
                        granted = self._current == rank
                else:
                    self._push_locked(
                        rank, self.clocks[rank].now, _KIND_READY
                    )
            if svc is not None:
                granted = self._step_services(svc, rank)
            if not granted:
                self._await_turn(rank)
        if self.injector is not None:
            # Turn held; may raise RankCrashedError to unwind this rank.
            self.injector.on_turn(rank, self.clocks[rank].now)

    def _wait_turn_slow(self, rank: int) -> None:
        """Reference mechanism for :meth:`wait_turn` (broadcast wakeups)."""
        with self._cv:
            self._check_error_locked()
            self._state[rank] = _READY
            if self._current == rank:
                self._current = None
            self._schedule_slow_locked()
            while self._current != rank:
                self._cv.wait()
                self._check_error_locked()

    def block(
        self, rank: int, reason: str = "", timeout: Optional[float] = None
    ) -> bool:
        """Block ``rank`` until woken, or until ``timeout`` virtual seconds.

        Must be called while holding the turn.  On return the rank
        holds the turn again; the return value is ``True`` when the
        deadline fired before any :meth:`wake` arrived (the clock is
        then advanced to the deadline).
        """
        with self._lock:
            self._check_error_locked()
            self._enter_block_locked(rank, reason, timeout)
            if self.slowpath:
                self._schedule_slow_locked()
                while self._current != rank:
                    self._cv.wait()
                    self._check_error_locked()
                return self._finish_block_locked(rank)
            svc = self._block_fast_locked(rank, timeout, caller=rank)
            if self._current == rank:
                return self._finish_block_locked(rank)
        if svc is None or not self._step_services(svc, rank):
            self._await_turn(rank)
        with self._lock:
            return self._finish_block_locked(rank)

    def _enter_block_locked(
        self, rank: int, reason: str, timeout: Optional[float]
    ) -> None:
        """Turn the running ``rank`` BLOCKED (both mechanisms)."""
        self._state[rank] = _BLOCKED
        self._block_reason[rank] = reason
        self._block_entry[rank] = self.clocks[rank].now
        if timeout is not None:
            self._deadline[rank] = self.clocks[rank].now + timeout
        self._timed_out[rank] = False
        if self._current == rank:
            self._current = None

    def _block_fast_locked(
        self, rank: int, timeout: Optional[float], caller: Optional[int]
    ) -> Optional[int]:
        """Fast path: register a blocked rank's deadline, if any, and
        pass the turn on; returns a service rank to step."""
        if timeout is not None:
            self._push_locked(
                rank,
                max(self.clocks[rank].now, self._deadline[rank]),
                _KIND_DEADLINE,
            )
        else:
            # invalidate any stale candidate entry for this rank
            self._gen[rank] += 1
        return self._dispatch_locked(caller)

    def _finish_block_locked(self, rank: int) -> bool:
        """Account a completed :meth:`block`; returns the timeout flag."""
        self._deadline[rank] = None
        timed_out = self._timed_out[rank]
        self._timed_out[rank] = False
        # the waker (or the deadline) advanced our clock
        dt = self.clocks[rank].now - self._block_entry[rank]
        self.blocked_time[rank] += dt
        if self.metrics is not None:
            # single accounting point shared by every dispatch
            # mechanism, so both scheduler paths record identically
            self.metrics.counter("sched.blocked_seconds").inc(rank, dt)
            self.metrics.histogram("sched.block_seconds").observe(rank, dt)
        return timed_out

    def is_blocked(self, rank: int) -> bool:
        """True while ``rank`` sits in :meth:`block` awaiting a wake."""
        with self._lock:
            return self._state[rank] == _BLOCKED

    def deadline(self, rank: int) -> float:
        """When ``rank``'s pending block times out (``inf``: never)."""
        with self._lock:
            t = self._deadline[rank]
        return float("inf") if t is None else t

    def wake(self, rank: int, at_time: float) -> None:
        """Make a blocked rank runnable again at virtual time ``at_time``.

        Must be called by a rank holding the turn; the woken rank will
        actually run once it becomes the minimum-clock runnable rank.
        ``at_time`` may not precede the woken rank's blocking time.

        Waking a FAILED rank is a silent no-op: collective completers
        and eager senders may legitimately address a peer that crashed
        after joining the rendezvous.
        """
        with self._lock:
            if self._state[rank] == _FAILED:
                return
            if self._state[rank] != _BLOCKED:
                raise RuntimeError(
                    f"wake({rank}) but rank is {self._state[rank]!r}"
                )
            self.clocks[rank].advance_to(at_time)
            self._state[rank] = _READY
            self._block_reason[rank] = ""
            self._deadline[rank] = None
            if not self.slowpath:
                self._push_locked(
                    rank, self.clocks[rank].now, _KIND_READY
                )
            # No reschedule here: the waker still holds the turn and
            # will yield at its next synchronization point.

    def finish(self, rank: int) -> None:
        """Mark ``rank``'s program as complete and release the turn."""
        with self._lock:
            svc = self._leave_locked(rank, _DONE, None)
        if svc is not None:
            self._step_services(svc, None)

    def fail(self, rank: int, exc: BaseException) -> None:
        """Record a rank failure and abort every other rank."""
        with self._lock:
            if self._error is None:
                self._error = exc
                self._error_rank = rank
            self._state[rank] = _DONE
            self._done_count += 1
            if self._current == rank:
                self._current = None
            self._abort_wake_all_locked()
            self._notify_driver_locked()

    def crash(self, rank: int) -> None:
        """Transition ``rank`` to the terminal FAILED state.

        Unlike :meth:`fail` this does *not* abort the world: surviving
        ranks keep running and learn of the death via timeouts or the
        failure-detector API.  Called by the rank's own thread while it
        unwinds from an injected
        :class:`~repro.runtime.errors.RankCrashedError`.
        """
        with self._lock:
            svc = self._leave_locked(rank, _FAILED, None)
        if svc is not None:
            self._step_services(svc, None)

    def _leave_locked(
        self, rank: int, state: str, caller: Optional[int]
    ) -> Optional[int]:
        """Take a finished (DONE) or crashed (FAILED) ``rank`` out of
        the run and pass the turn on; returns a service rank to step."""
        self._state[rank] = state
        if state == _FAILED:
            self.failed_at[rank] = self.clocks[rank].now
            self._block_reason[rank] = ""
            self._deadline[rank] = None
        self._done_count += 1
        if self._current == rank:
            self._current = None
        svc = None
        if self.slowpath:
            self._schedule_slow_locked()
            self._cv.notify_all()
        else:
            self._gen[rank] += 1
            svc = self._dispatch_locked(caller)
        self._notify_driver_locked()
        return svc

    def abort_ack(self, rank: int) -> None:
        """Acknowledge a cluster abort from a victim rank's thread.

        When one rank fails hard, the others unwind with
        :class:`~repro.runtime.errors.ClusterAborted`; each calls this
        to account itself as done so the driver's :meth:`wait_all` can
        return.  No rescheduling happens -- the cluster is going down.
        """
        with self._lock:
            self._done_count += 1
            if self._current == rank:
                self._current = None
            self._state[rank] = _DONE
            if self.slowpath:
                self._cv.notify_all()
            self._notify_driver_locked()

    # ------------------------------------------------------------------
    # failure detection (rank-side, call with the turn held)
    # ------------------------------------------------------------------
    def failures_observed_by(self, rank: int) -> list[int]:
        """Crashed ranks whose death ``rank`` can already observe.

        Models a heartbeat-style detector: a crash at ``t_f`` becomes
        visible ``detection_latency_s`` later, so a rank whose clock
        has not yet reached ``t_f + latency`` does not see it.
        """
        lat = (
            self.injector.detection_latency_s
            if self.injector is not None
            else 0.0
        )
        now = self.clocks[rank].now
        return sorted(
            r for r, t in self.failed_at.items() if t + lat <= now
        )

    # ------------------------------------------------------------------
    # driver-side API
    # ------------------------------------------------------------------
    def wait_all(self) -> None:
        """Block the driving thread until all ranks finish or one fails."""
        with self._lock:
            while self._done_count < self.nprocs and self._error is None:
                self._driver_cv.wait()
            if self._error is not None:
                exc, rank = self._error, self._error_rank
                if isinstance(exc, _PASSTHROUGH_ERRORS):
                    raise exc
                raise RuntimeError(f"rank {rank} failed: {exc!r}") from exc

    @property
    def failed(self) -> bool:
        with self._lock:
            return self._error is not None

    # ------------------------------------------------------------------
    # fast-path internals (call with self._lock held)
    # ------------------------------------------------------------------
    def _push_locked(self, rank: int, t: float, kind: int) -> None:
        """Register ``rank`` as a dispatch candidate at time ``t``.

        Bumping the generation first lazily invalidates any earlier
        entry the heap may still hold for this rank.
        """
        self._gen[rank] += 1
        heapq.heappush(self._heap, (t, kind, rank, self._gen[rank]))

    def _entry_valid_locked(self, entry: tuple) -> bool:
        t, kind, rank, gen = entry
        if gen != self._gen[rank]:
            return False
        if kind == _KIND_READY:
            return self._state[rank] == _READY
        return (
            self._state[rank] == _BLOCKED
            and self._deadline[rank] is not None
        )

    def _prune_top_locked(self) -> Optional[tuple]:
        """Drop stale heap entries; return the best live candidate."""
        heap = self._heap
        while heap:
            if self._entry_valid_locked(heap[0]):
                return heap[0]
            heapq.heappop(heap)
        return None

    def _await_turn(self, rank: int) -> None:
        """Park on this rank's gate until it is granted the turn."""
        gate = self._gate[rank]
        while True:
            gate.acquire()  # returns once opened, leaving it closed
            with self._lock:
                self._gate_open[rank] = False
                self._check_error_locked()
                if self._current == rank:
                    return

    def _open_gate_locked(self, rank: int) -> None:
        """Let ``rank``'s parked thread run; a no-op if already open."""
        if not self._gate_open[rank]:
            self._gate_open[rank] = True
            self._gate[rank].release()

    def _abort_wake_all_locked(self) -> None:
        """Wake every parked rank thread so it can observe the abort."""
        if self.slowpath:
            self._cv.notify_all()
        else:
            for rank in range(self.nprocs):
                self._open_gate_locked(rank)

    def _notify_driver_locked(self) -> None:
        if self._done_count >= self.nprocs or self._error is not None:
            self._driver_cv.notify_all()

    def _dispatch_locked(self, caller: Optional[int] = None) -> Optional[int]:
        """Grant the turn to the best candidate (fast-path mechanism).

        Pops the winning heap entry and wakes exactly that rank's event
        -- unless the winner is ``caller`` itself, which observes
        ``_current`` inline without any wakeup, or a service rank,
        which is returned for the calling thread to step.  Fires
        deadline bookkeeping for timed-out blocks and declares a
        deadlock when nobody can run.
        """
        if self._current is not None:
            return None
        top = self._prune_top_locked()
        if top is not None:
            t, kind, rank, _gen = heapq.heappop(self._heap)
            self._gen[rank] += 1
            if kind == _KIND_DEADLINE:
                self.clocks[rank].advance_to(t)
                self._timed_out[rank] = True
                self._block_reason[rank] = ""
            self._current = rank
            self._state[rank] = _RUNNING
            if self._service[rank] is not None:
                return rank
            if rank != caller:
                self._open_gate_locked(rank)
            return None
        if self._done_count < self.nprocs:
            self._declare_deadlock_locked()
        return None

    def _yield_service_locked(
        self, rank: int, caller: Optional[int]
    ) -> Optional[int]:
        """A service rank yields at its clock: :meth:`wait_turn`'s
        fast path on its behalf.  Returns the service rank to step
        next -- ``rank`` itself when it keeps the turn."""
        self._state[rank] = _READY
        self._current = None
        top = self._prune_top_locked()
        key = (self.clocks[rank].now, _KIND_READY, rank)
        if top is None or key <= top[:3]:
            self._current = rank
            self._state[rank] = _RUNNING
            return rank
        self._push_locked(rank, key[0], _KIND_READY)
        return self._dispatch_locked(caller)

    def _step_services(self, rank: int, caller: Optional[int]) -> bool:
        """Step service ranks on this thread while the turn is theirs.

        ``rank`` is the service rank this thread's dispatch just
        granted the turn; each step runs outside the lock, then its
        outcome -- a yield, a block, the end of the service, a crash
        or an error -- goes through the same state transitions a
        rank thread's :meth:`wait_turn`, :meth:`block`, :meth:`finish`,
        :meth:`crash` or :meth:`fail` would make.  Returns whether
        ``caller`` (this thread's own rank) holds the turn afterwards.
        """
        granted = False
        while rank is not None:
            svc = self._service[rank]
            timed_out = False
            if svc.blocked:
                with self._lock:
                    timed_out = self._finish_block_locked(rank)
            try:
                step = svc.step(timed_out)
            except RankCrashedError:
                with self._lock:
                    rank = self._leave_locked(rank, _FAILED, caller)
                    granted = self._current == caller
                continue
            except BaseException as exc:  # noqa: BLE001 - a failed rank
                self.fail(rank, exc)
                return False
            with self._lock:
                if step is YIELD:
                    rank = self._yield_service_locked(rank, caller)
                elif step is None:
                    rank = self._leave_locked(rank, _DONE, caller)
                else:
                    reason, timeout = step
                    self._enter_block_locked(rank, reason, timeout)
                    rank = self._block_fast_locked(rank, timeout, caller)
                granted = self._current == caller
        return granted

    def _declare_deadlock_locked(self) -> None:
        blocked = {
            r: self._block_reason[r] or "unknown"
            for r in range(self.nprocs)
            if self._state[r] == _BLOCKED
        }
        if blocked and self._error is None:
            clocks = {r: self.clocks[r].now for r in blocked}
            already = {r: self.blocked_time[r] for r in blocked}
            self._error = DeadlockError(
                blocked, clocks=clocks, blocked_time=already
            )
            self._error_rank = -1
            self._abort_wake_all_locked()
            self._notify_driver_locked()

    # ------------------------------------------------------------------
    # reference (slow-path) internals (call with self._lock held)
    # ------------------------------------------------------------------
    def _check_error_locked(self) -> None:
        if self._error is not None:
            raise ClusterAborted(
                f"aborted: rank {self._error_rank} failed with "
                f"{self._error!r}"
            )

    def _schedule_slow_locked(self) -> None:
        """Reference dispatch: linear scan + broadcast wakeup."""
        if self._current is not None:
            return
        # Candidates: READY ranks at their clock, and BLOCKED ranks with
        # a deadline at max(clock, deadline).  Taking the minimum over
        # both (READY wins ties) keeps timeouts deterministic: a
        # deadline only fires when no rank that could still wake the
        # blocked one can run at an earlier-or-equal virtual time.
        best: Optional[int] = None
        best_t = 0.0
        best_kind = 0
        for r in range(self.nprocs):
            if self._state[r] == _READY:
                t, kind = self.clocks[r].now, _KIND_READY
            elif self._state[r] == _BLOCKED and self._deadline[r] is not None:
                t = max(self.clocks[r].now, self._deadline[r])
                kind = _KIND_DEADLINE
            else:
                continue
            if best is None or (t, kind) < (best_t, best_kind):
                best, best_t, best_kind = r, t, kind
        if best is not None:
            if best_kind == _KIND_DEADLINE:
                self.clocks[best].advance_to(best_t)
                self._timed_out[best] = True
                self._block_reason[best] = ""
            self._current = best
            self._state[best] = _RUNNING
            self._cv.notify_all()
            return
        if self._done_count >= self.nprocs:
            self._cv.notify_all()
            return
        self._declare_deadlock_locked()


def spawn_ranks(
    sched: Scheduler,
    target: Callable[[int], object],
    ranks: Optional[list[int]] = None,
) -> tuple[list[threading.Thread], list[object]]:
    """Start one daemon thread per rank (of ``ranks``, default all)
    running ``target(rank)``.

    Returns the thread list and a results list that the threads fill
    in; the caller should then invoke :meth:`Scheduler.wait_all`.
    """
    results: list[object] = [None] * sched.nprocs

    def _main(rank: int) -> None:
        try:
            sched.wait_turn(rank)
            results[rank] = target(rank)
        except RankCrashedError:
            sched.crash(rank)
            return
        except ClusterAborted:
            sched.abort_ack(rank)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate to driver
            sched.fail(rank, exc)
            return
        sched.finish(rank)

    threads = [
        threading.Thread(
            target=_main, args=(r,), name=f"repro-rank-{r}", daemon=True
        )
        for r in (range(sched.nprocs) if ranks is None else ranks)
    ]
    for t in threads:
        t.start()
    return threads, results
