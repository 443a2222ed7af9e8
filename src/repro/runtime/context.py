"""Per-rank execution context handed to SPMD program functions.

A simulated SPMD program is a plain Python function ``fn(ctx, ...)``;
the :class:`RankContext` is its window onto the cluster: identity,
virtual clock charging, communication, RPC, tracing, and the machine
cost model.  Global Arrays structures (:mod:`repro.ga`) are built on
top of this context.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

from .errors import RankFailedError, TransientRpcError
from .machine import MachineSpec, Scale
from .payload import payload_nbytes
from .scheduler import Scheduler
from .tracing import Tracer
from .world import World


class RankContext:
    """Everything one rank needs to participate in a simulated run."""

    def __init__(
        self,
        rank: int,
        world: World,
        sched: Scheduler,
        machine: MachineSpec,
        tracer: Tracer,
    ):
        self.rank = rank
        self.nprocs = world.nprocs
        self.world = world
        self.sched = sched
        self.machine = machine
        self.tracer = tracer
        self.metrics = world.metrics
        self.comm = world.make_comm(sched, machine, rank)

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """This rank's current virtual time in seconds."""
        return self.sched.now(self.rank)

    def charge(self, seconds: float) -> None:
        """Charge raw virtual seconds of local work to this rank."""
        self.sched.advance(self.rank, seconds)

    def charge_cpu(self, nops: float, scale: Scale = Scale.FIXED) -> None:
        self.charge(self.machine.cpu_seconds(nops, scale))

    def charge_flops(self, nflops: float, scale: Scale = Scale.FIXED) -> None:
        self.charge(self.machine.flops_seconds(nflops, scale))

    def charge_io(
        self,
        nbytes: float,
        concurrent_readers: Optional[int] = None,
        scale: Scale = Scale.STREAM,
    ) -> None:
        readers = self.nprocs if concurrent_readers is None else concurrent_readers
        dt = self.machine.io_seconds(nbytes, readers, scale)
        if self.sched.injector is not None:
            dt = self.sched.injector.adjust_io(self.rank, self.now, dt)
        self.charge(dt)

    def sync(self) -> None:
        """A pure synchronization point: yield the turn.

        Charges advance the clock but never hand execution to another
        rank -- a rank doing only local work runs to completion in one
        turn.  Ranks whose *side effects* must become visible to
        lower-clock peers in virtual-time order (e.g. the ingest driver
        publishing store generations) call this after each effect so
        the min-clock rule covers it.  Returns with the turn held.
        """
        self.sched.wait_turn(self.rank)

    def replicated(self, key, fn):
        """Compute-once cache for deterministically replicated work.

        SPMD stages often have every rank compute the *same* pure
        function of the *same* globally-reduced inputs (a merged
        candidate sort, an association matrix from allreduced counts,
        a PCA fit of replicated centroids).  In a real cluster that
        work runs concurrently on P nodes; under the simulator the P
        copies serialize on the GIL and multiply real wall-clock cost
        by P for zero information.  This helper lets the first rank to
        reach the site compute ``fn()`` and every later rank reuse the
        shared result.

        Correctness contract (caller's obligation):

        - ``fn`` must be a pure, deterministic function of data that
          is bit-identical on every rank at this point (e.g. outputs
          of ``allreduce``/``allgather``), so the value cannot depend
          on which rank happens to run it.
        - ``key`` must uniquely name the site and stage instance
          (include loop indices for per-iteration sites).
        - The returned object is *shared* across ranks: treat it as
          read-only.

        Virtual-time charges are unaffected -- callers charge the
        modelled cost of the replicated work on every rank exactly as
        before, so simulated timings are bit-identical whether or not
        the real computation was reused.
        """
        memo = self.world.replicated
        try:
            return memo[key]
        except KeyError:
            value = fn()
            memo[key] = value
            return value

    # ------------------------------------------------------------------
    # one-sided / RPC
    # ------------------------------------------------------------------
    def rpc(
        self,
        target: int,
        handler: Callable[..., Any],
        *args: Any,
        nbytes_out: Optional[float] = None,
        nbytes_in: float = 64.0,
    ) -> Any:
        """Execute ``handler(*args)`` against rank ``target``'s state.

        Models an ARMCI-style active message: the caller pays the
        round-trip; the handler runs atomically at the target (the
        scheduler's global ordering makes this trivially consistent).
        Calls to one's own rank cost only the handler time.

        Under fault injection an RPC to a crashed target raises
        :class:`RankFailedError` (after paying the round trip spent
        discovering the death), and designated calls flake with
        :class:`TransientRpcError` for idempotent callers to retry.
        """
        self.sched.wait_turn(self.rank)
        inj = self.sched.injector
        if inj is not None and target != self.rank:
            if target in self.sched.failed_at:
                self.charge(self.machine.rpc_seconds(64.0, 64.0))
                raise RankFailedError([target], f"rpc to rank {target}")
            if inj.rpc_fails(self.rank, target, self.now):
                out = payload_nbytes(args) if nbytes_out is None else nbytes_out
                self.charge(self.machine.rpc_seconds(out, nbytes_in))
                self._record_rpc(target, out, nbytes_in)
                raise TransientRpcError(
                    f"rank {self.rank}: rpc to rank {target} flaked"
                )
        result = handler(*args)
        if target == self.rank:
            self.charge(self.machine.rpc_handler_cost_s)
            self.metrics.counter("comm.rpc.calls", ("peer",)).inc(
                self.rank, key=(target,)
            )
        else:
            out = payload_nbytes(args) if nbytes_out is None else nbytes_out
            self.charge(self.machine.rpc_seconds(out, nbytes_in))
            self._record_rpc(target, out, nbytes_in)
        return result

    def _record_rpc(self, target: int, out: float, inbytes: float) -> None:
        """Count one RPC attempt (including flaked ones) to ``target``."""
        m = self.metrics
        m.counter("comm.rpc.calls", ("peer",)).inc(self.rank, key=(target,))
        fam = m.counter("comm.rpc.bytes", ("peer", "dir"))
        fam.inc(self.rank, float(out), key=(target, "out"))
        fam.inc(self.rank, float(inbytes), key=(target, "in"))

    # ------------------------------------------------------------------
    # failure detection
    # ------------------------------------------------------------------
    def failed_ranks(self) -> list[int]:
        """Crashed ranks whose death this rank can observe by now.

        A heartbeat-style detector: a crash becomes visible one
        detection latency after it happened (in virtual time).  Without
        fault injection this is always empty.
        """
        self.sched.wait_turn(self.rank)
        return self.sched.failures_observed_by(self.rank)

    def is_alive(self, rank: int) -> bool:
        """Whether ``rank`` is believed alive by the failure detector."""
        return rank not in self.failed_ranks()

    # ------------------------------------------------------------------
    # tracing
    # ------------------------------------------------------------------
    @contextmanager
    def region(self, name: str) -> Iterator[None]:
        """Context manager recording a named virtual-time region.

        Besides the trace span, the region captures this rank's metric
        movement -- elapsed and blocked virtual seconds plus every
        counter delta -- into the per-stage section of the metrics
        snapshot.  Capture happens in a ``finally`` so a stage that
        dies mid-flight (fault injection) still reports the partial
        work deterministically.
        """
        clock = self.sched.clocks[self.rank]
        t0 = clock.now
        blocked0 = self.sched.blocked_time[self.rank]
        before = self.metrics.rank_totals(self.rank)
        try:
            with self.tracer.region(self.rank, name, clock):
                yield
        finally:
            self.metrics.record_stage(
                name,
                self.rank,
                clock.now - t0,
                self.sched.blocked_time[self.rank] - blocked0,
                self.metrics.rank_deltas(self.rank, before),
            )

    # ------------------------------------------------------------------
    # convenience passthroughs
    # ------------------------------------------------------------------
    def barrier(self) -> None:
        self.comm.barrier()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RankContext(rank={self.rank}, nprocs={self.nprocs})"
