"""Top-level driver: run an SPMD function on a simulated cluster."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional

import numpy as np

from .context import RankContext
from .errors import RankFailedError
from .faults import FaultInjector, FaultPlan
from .machine import MachineSpec
from .metrics import MetricsRegistry
from .scheduler import Scheduler, spawn_ranks
from .service import InlineService, Service, run_service
from .tracing import Tracer
from .world import World


@dataclass
class ClusterResult:
    """Outcome of one simulated run."""

    nprocs: int
    #: per-rank return values of the SPMD function
    rank_results: list[Any]
    #: per-rank final virtual clocks (seconds)
    rank_times: np.ndarray
    #: per-rank virtual seconds spent blocked (waiting on peers)
    blocked_times: np.ndarray = field(default=None)  # type: ignore[assignment]
    tracer: Tracer = field(repr=False, default=None)  # type: ignore[assignment]
    #: ranks that fail-stop crashed during the run (fault injection)
    failed_ranks: list[int] = field(default_factory=list)
    #: deterministic runtime metrics recorded during the run (see
    #: :mod:`repro.runtime.metrics`); call ``.snapshot()`` for JSON
    metrics: MetricsRegistry = field(repr=False, default=None)  # type: ignore[assignment]

    @property
    def wall_time(self) -> float:
        """Virtual wall-clock of the run: the slowest rank's clock."""
        return float(self.rank_times.max())

    @property
    def utilization(self) -> np.ndarray:
        """Per-rank fraction of its time spent not blocked.

        A rank that spends half its virtual time waiting at barriers
        or receives has utilization 0.5 -- the direct measure of load
        imbalance and synchronization overhead.
        """
        wall = np.maximum(self.rank_times, 1e-300)
        return 1.0 - self.blocked_times / wall


class Cluster:
    """A simulated cluster of ``nprocs`` ranks with a cost model.

    ``faults`` optionally attaches a :class:`FaultPlan` (or a live
    :class:`FaultInjector`, when a restart loop wants crash faults to
    stay consumed across attempts) to the run.

    Example
    -------
    >>> from repro.runtime import Cluster
    >>> def program(ctx):
    ...     return ctx.comm.allreduce(ctx.rank + 1)
    >>> res = Cluster(4).run(program)
    >>> res.rank_results
    [10, 10, 10, 10]
    """

    def __init__(
        self,
        nprocs: int,
        machine: MachineSpec | None = None,
        faults: FaultPlan | FaultInjector | None = None,
        backend: str = "sim",
    ):
        if nprocs < 1:
            raise ValueError(f"nprocs must be >= 1, got {nprocs}")
        if backend not in ("sim", "mp"):
            raise ValueError(
                f"backend must be 'sim' or 'mp', got {backend!r}"
            )
        self.nprocs = nprocs
        self.machine = machine if machine is not None else MachineSpec()
        if isinstance(faults, FaultPlan):
            faults = FaultInjector(faults)
        self.injector = faults
        self.backend = backend

    def run(
        self,
        fn: Callable[..., Any],
        *args: Any,
        services: Optional[Mapping[int, Service]] = None,
        raise_on_failure: bool = True,
        **kwargs: Any,
    ) -> ClusterResult:
        """Execute ``fn(ctx, *args, **kwargs)`` on every rank.

        ``services`` maps ranks that only answer messages to their
        :class:`~repro.runtime.service.Service`; those ranks run its
        handler instead of ``fn`` and their result is the number of
        messages they answered.  Under the default scheduler they get
        no thread: the thread that grants one the turn runs its step.
        Under ``REPRO_SCHED_SLOWPATH=1`` and the mp backend each runs
        the blocking reference loop on a thread (process) of its own.
        Virtual time, results and metrics are the same either way.

        Blocks until all ranks complete; raises the first rank failure
        (or :class:`~repro.runtime.errors.DeadlockError`).  Under fault
        injection, a run some ranks of which crashed raises
        :class:`~repro.runtime.errors.RankFailedError` unless
        ``raise_on_failure=False`` (then ``failed_ranks`` on the result
        reports the victims and their entries in ``rank_results`` stay
        ``None``).
        """
        services = services or {}
        if services:
            if not set(services) < set(range(self.nprocs)):
                raise ValueError(
                    f"service ranks {sorted(services)} must be a proper "
                    f"subset of [0, {self.nprocs}): a rank with a "
                    f"program drives them"
                )
            fn = _with_services(fn, services)
        if self.backend == "mp":
            from .mpbackend import run_mp

            return run_mp(
                self.nprocs,
                self.machine,
                self.injector,
                fn,
                args,
                kwargs,
                raise_on_failure=raise_on_failure,
            )
        world = World(self.nprocs)
        sched = Scheduler(
            self.nprocs, injector=self.injector, metrics=world.metrics
        )
        tracer = Tracer(self.nprocs)
        if self.injector is not None:
            self.injector.start_run(self.nprocs, tracer)
            world.comm_timeout = self.injector.comm_timeout_s
        contexts = [
            RankContext(r, world, sched, self.machine, tracer)
            for r in range(self.nprocs)
        ]

        inline: dict[int, InlineService] = {}
        if services and not sched.slowpath:
            for r, service in services.items():
                inline[r] = InlineService(contexts[r], service)
                sched.serve_inline(r, inline[r])

        def target(rank: int) -> Any:
            return fn(contexts[rank], *args, **kwargs)

        threads, results = spawn_ranks(
            sched,
            target,
            [r for r in range(self.nprocs) if r not in inline] if inline else None,
        )
        try:
            sched.wait_all()
        except RankFailedError as exc:
            if exc.rank_times is None:
                exc.rank_times = np.array(
                    [sched.clocks[r].now for r in range(self.nprocs)]
                )
            raise
        finally:
            for t in threads:
                t.join(timeout=30.0)
            sched.release_services()
        for r, svc in inline.items():
            results[r] = svc.result
        times = np.array([sched.clocks[r].now for r in range(self.nprocs)])
        failed = sorted(sched.failed_at)
        if failed and raise_on_failure:
            # Every survivor finished without needing the dead ranks
            # (e.g. the crash hit after the last synchronization), but
            # the cluster still lost members: report it the same way a
            # mid-run detection would.
            exc = RankFailedError(failed, "run completion")
            exc.rank_times = times
            raise exc
        return ClusterResult(
            nprocs=self.nprocs,
            rank_results=list(results),
            rank_times=times,
            blocked_times=np.array(sched.blocked_time),
            tracer=tracer,
            failed_ranks=failed,
            metrics=world.metrics,
        )


def _with_services(
    fn: Callable[..., Any], services: Mapping[int, Service]
) -> Callable[..., Any]:
    """``fn`` for ordinary ranks, the blocking service loop for the
    ``services`` ranks (when they run on a thread or process)."""

    def program(ctx, *args: Any, **kwargs: Any) -> Any:
        service = services.get(ctx.rank)
        if service is None:
            return fn(ctx, *args, **kwargs)
        return run_service(ctx, service)

    return program
