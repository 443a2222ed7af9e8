"""Shared task queue with fixed-size chunking (dynamic load balancing).

This reproduces the paper's §3.3 load balancer: the collection of
inversion *loads* (fixed-size chunks of forward-index entries) lives in
a global array; an atomic fetch-and-increment (``read_inc``) hands out
the next available load.  The queue is prioritized so that "each
process completes its inversion loads first, and then works on loads
owned by other processes": there is one counter per owner rank, each
covering that rank's contiguous load range; an idle rank first drains
its own counter, then scans the other ranks' counters round-robin,
stealing their remaining loads.

Compared with the master–worker alternative
(:func:`repro.baselines.loadbalance.run_master_worker`), no process ever serves as a
bottleneck: claiming a task is a single one-sided atomic.

Fault tolerance: under fault injection each claimed chunk carries a
*lease* naming the claimant.  A chunk whose holder fail-stop crashed
before calling :meth:`SharedTaskQueue.complete` is reclaimed by the
first survivor that runs out of unclaimed work, so no task is lost --
at-least-once hand-out, which is safe because inversion loads are
idempotent.  Without an injector the lease bookkeeping is skipped
entirely (zero overhead), preserving exactly-once hand-out.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Optional, Sequence

import numpy as np

from repro.runtime.context import RankContext
from repro.runtime.errors import RuntimeMisuseError

from .array import GlobalArray


def _simulate_claims(
    nprocs: int,
    counts: Sequence[int],
    offsets: np.ndarray,
    chunk: int,
    machine,
    entry_clocks: Sequence[float],
    pf: Sequence[float],
    own_costs: Sequence[Sequence[tuple[float, float]]],
) -> list[list[tuple[int, Optional[tuple[int, int]]]]]:
    """Replay the simulator's global claim interleaving, offline.

    The simulator serializes ``read_inc`` attempts by (virtual clock,
    rank); between attempts a rank's clock advances by the atomic's RPC
    charge plus the processing cost of what it just claimed.  Given
    every rank's entry clock, pressure factor, and per-task costs
    (``own_costs[o][i] = (scaled_nbytes, invert_seconds)``), that
    interleaving is a pure function -- each mp process runs this
    discrete-event replay and obtains the identical global plan.

    Returns, per rank, its ordered ``read_inc`` attempts as
    ``(owner, (lo, hi) | None)`` -- ``None`` marks a drained-counter
    probe.
    """
    rpc_self = machine.rpc_handler_cost_s
    rpc_remote = machine.rpc_seconds(16.0, 16.0)
    targets = [
        [r] + [(r + d) % nprocs for d in range(1, nprocs)]
        for r in range(nprocs)
    ]
    cursors = [0] * nprocs
    drained: list[set[int]] = [set() for _ in range(nprocs)]
    scan_pos = [0] * nprocs
    plan: list[list[tuple[int, Optional[tuple[int, int]]]]] = [
        [] for _ in range(nprocs)
    ]
    heap: list[tuple[float, int]] = [
        (float(entry_clocks[r]), r) for r in range(nprocs)
    ]
    heapq.heapify(heap)
    while heap:
        clock, r = heapq.heappop(heap)
        # skip free probes (empty or known-drained counters)
        while scan_pos[r] < nprocs:
            o = targets[r][scan_pos[r]]
            if counts[o] == 0 or o in drained[r]:
                scan_pos[r] += 1
            else:
                break
        if scan_pos[r] >= nprocs:
            continue  # this rank leaves the queue
        o = targets[r][scan_pos[r]]
        pos = cursors[o]
        cursors[o] += chunk
        clock += rpc_self if o == r else rpc_remote
        if pos >= counts[o]:
            drained[r].add(o)
            scan_pos[r] += 1
            plan[r].append((o, None))
        else:
            lo = int(offsets[o]) + pos
            hi = int(offsets[o]) + min(counts[o], pos + chunk)
            plan[r].append((o, (lo, hi)))
            for t in range(lo, hi):
                nb, inv = own_costs[o][t - int(offsets[o])]
                clock += inv * pf[r]
                if o != r:
                    clock += machine.onesided_seconds(
                        nb, intra_node=machine.same_node(r, o)
                    )
            scan_pos[r] = 0  # a successful claim restarts at own rank
        heapq.heappush(heap, (clock, r))
    return plan


class SharedTaskQueue:
    """Work-stealing task queue over per-owner atomic counters.

    ``counts[r]`` is the number of tasks initially owned by rank ``r``;
    task IDs are global and contiguous: rank ``r`` owns
    ``[offset[r], offset[r] + counts[r])``.
    """

    def __init__(
        self,
        ctx: RankContext,
        name: str,
        counts: Sequence[int],
        chunk: int = 1,
        cost_hints: Optional[tuple] = None,
    ):
        if len(counts) != ctx.nprocs:
            raise RuntimeMisuseError(
                f"counts must have one entry per rank "
                f"({ctx.nprocs}), got {len(counts)}"
            )
        if chunk < 1:
            raise RuntimeMisuseError(f"chunk must be >= 1, got {chunk}")
        self._ctx = ctx
        self.name = name
        self.chunk = int(chunk)
        self.counts = [int(c) for c in counts]
        self._m_chunks = ctx.metrics.counter("taskq.chunks", ("queue", "kind"))
        self._m_tasks = ctx.metrics.counter("taskq.tasks", ("queue", "kind"))
        self._m_reclaims = ctx.metrics.counter("taskq.lease_reclaims", ("queue",))
        self.offsets = np.concatenate([[0], np.cumsum(self.counts)])
        self.ntasks = int(self.offsets[-1])
        # Per-owner "next task" cursors, stored in a global array so a
        # claim is one atomic read_inc -- exactly the paper's scheme.
        self._cursors = GlobalArray.create(
            ctx, f"taskq:{name}", (ctx.nprocs,), dtype=np.int64
        )
        self._steal_order = [
            (ctx.rank + d) % ctx.nprocs for d in range(1, ctx.nprocs)
        ]
        # Owners this rank has already observed to be drained; tasks are
        # never re-added, so we can skip the atomic on later polls.
        self._drained: set[int] = set()
        # Lease table (chunk -> holder rank), shared across ranks via
        # the world registry.  Only maintained under fault injection;
        # the dict operations are free in virtual time (the read_inc
        # that accompanies every claim already paid for the RMA).
        self._track_leases = ctx.sched.injector is not None
        if self._track_leases:
            self._leases: dict[tuple[int, int], int] = (
                ctx.world.shared_state(f"taskq:{name}:leases", dict)
            )
        # Under the mp backend real read_inc interleaving is racy; a
        # deterministic claim plan -- the exact schedule the simulator
        # would produce -- is replayed instead.  ``cost_hints`` is
        # ``(pressure_factor, [(scaled_nbytes, invert_seconds), ...])``
        # for this rank's own tasks (see the engine's index stage).
        self._mp_plan: Optional[deque] = None
        if (
            cost_hints is not None
            and getattr(ctx.world, "backend", "sim") == "mp"
        ):
            self._mp_plan = self._mp_build_plan(cost_hints)

    def _claim_from(self, owner: int) -> Optional[tuple[int, int]]:
        """Try to claim up to ``chunk`` tasks from ``owner``'s range."""
        count = self.counts[owner]
        if count == 0 or owner in self._drained:
            return None
        pos = self._cursors.read_inc(owner, self.chunk)
        if pos >= count:
            self._drained.add(owner)
            return None
        lo = int(self.offsets[owner]) + pos
        hi = int(self.offsets[owner]) + min(count, pos + self.chunk)
        if self._track_leases:
            self._leases[(lo, hi)] = self._ctx.rank
        kind = "own" if owner == self._ctx.rank else "stolen"
        self._m_chunks.inc(self._ctx.rank, key=(self.name, kind))
        self._m_tasks.inc(self._ctx.rank, float(hi - lo), key=(self.name, kind))
        return lo, hi

    def next_chunk(self) -> Optional[tuple[int, int]]:
        """Claim the next chunk of global task IDs ``[lo, hi)``.

        Own loads are drained first; afterwards other ranks' loads are
        stolen round-robin.  Returns ``None`` when every load in the
        queue has been claimed (and, under fault injection, every chunk
        leased to a crashed rank has been reclaimed).
        """
        if self._mp_plan is not None:
            return self._mp_next_from_plan()
        got = self._claim_from(self._ctx.rank)
        if got is not None:
            return got
        for owner in self._steal_order:
            got = self._claim_from(owner)
            if got is not None:
                return got
        if self._track_leases:
            return self._reclaim_dead()
        return None

    def complete(self, lo: int, hi: int) -> None:
        """Mark chunk ``[lo, hi)`` as processed, releasing its lease.

        Results produced from the chunk must be globally visible before
        the call (in this runtime every store is immediate, so calling
        right after processing is correct).  A no-op without fault
        injection.
        """
        if self._track_leases:
            self._leases.pop((lo, hi), None)

    def _reclaim_dead(self) -> Optional[tuple[int, int]]:
        """Re-issue one chunk whose lease holder has crashed.

        Deterministic: chunks are scanned in task-ID order, and only
        deaths already visible to this rank's failure detector count.
        The reclaimed lease transfers to this rank, so each orphaned
        chunk is re-issued once (unless the reclaimer dies too).
        """
        dead = set(self._ctx.failed_ranks())
        if not dead:
            return None
        for (lo, hi) in sorted(self._leases):
            if self._leases[(lo, hi)] in dead:
                self._leases[(lo, hi)] = self._ctx.rank
                self._m_reclaims.inc(self._ctx.rank, key=(self.name,))
                return lo, hi
        return None

    # ------------------------------------------------------------------
    # mp-backend deterministic playback
    # ------------------------------------------------------------------
    def _mp_build_plan(self, cost_hints: tuple) -> deque:
        """Exchange per-rank costs out of band and replay the global
        claim schedule; returns this rank's planned attempts."""
        ctx = self._ctx
        pf, own_costs = cost_hints
        infos = ctx.world.oob_allgather(
            ("taskq", self.name),
            (float(ctx.sched.now(ctx.rank)), float(pf), list(own_costs)),
        )
        plan = _simulate_claims(
            ctx.nprocs,
            self.counts,
            self.offsets,
            self.chunk,
            ctx.machine,
            [i[0] for i in infos],
            [i[1] for i in infos],
            [i[2] for i in infos],
        )
        return deque(plan[ctx.rank])

    def _mp_next_from_plan(self) -> Optional[tuple[int, int]]:
        """Replay the planned attempts: every ``read_inc`` is issued
        for real (identical charges, fault hooks, and shared-cursor
        totals), but the claim outcome follows the plan rather than
        the racy cross-process counter value."""
        while self._mp_plan:
            owner, claim = self._mp_plan.popleft()
            self._cursors.read_inc(owner, self.chunk)
            if claim is None:
                self._drained.add(owner)
                continue
            lo, hi = claim
            if self._track_leases:
                self._leases[(lo, hi)] = self._ctx.rank
            kind = "own" if owner == self._ctx.rank else "stolen"
            self._m_chunks.inc(self._ctx.rank, key=(self.name, kind))
            self._m_tasks.inc(
                self._ctx.rank, float(hi - lo), key=(self.name, kind)
            )
            return lo, hi
        if self._track_leases:
            return self._reclaim_dead()
        return None
