"""Shared simulation state for one cluster run.

A :class:`World` owns every structure that is conceptually *distributed*
across ranks -- mailboxes, collective gates, global arrays, hashmaps,
task queues.  Because the scheduler guarantees that only one rank runs
at a time (the turn-holder), ranks mutate the world without locking.
"""

from __future__ import annotations

from collections import deque
from contextlib import nullcontext
from typing import Any, Callable, Optional

import numpy as np

from .metrics import MetricsRegistry


class CollectiveGate:
    """Rendezvous point for one collective call instance."""

    __slots__ = ("kind", "arrivals", "results", "reads", "nprocs")

    def __init__(self, kind: str, nprocs: int):
        self.kind = kind
        self.nprocs = nprocs
        #: rank -> (arrival virtual time, payload, cached wire size);
        #: the size is measured once by the arriving rank itself and is
        #: ``None`` when a caller-supplied hint makes it unnecessary
        self.arrivals: dict[int, tuple[float, Any, Optional[float]]] = {}
        #: rank -> result, filled by the last arriver
        self.results: Optional[list[Any]] = None
        self.reads = 0


class World:
    """All cross-rank state of a single simulated run.

    The class doubles as the *backend seam*: the GA structures, the
    engine, and :class:`~repro.runtime.context.RankContext` only touch
    cross-rank state through the hook methods below (``make_comm``,
    ``shared_state``, ``alloc_ndarray``, ``ga_lock``,
    ``published_store``/``publish_store``, ``post_hashmap_sideband``),
    so the multiprocessing backend can substitute process-shared
    implementations (:mod:`repro.runtime.mpbackend`) without any
    call-site changes.
    """

    #: which execution backend this world belongs to ("sim" | "mp")
    backend = "sim"

    def __init__(self, nprocs: int):
        self.nprocs = nprocs
        #: (src, dst, tag) -> deque of in-flight
        #: :class:`~repro.runtime.comm.Message` objects (payload,
        #: arrival time, cached wire size)
        self.mailboxes: dict[tuple, deque] = {}
        #: (src, dst, tag) -> blocked receiver rank
        self.recv_waiters: dict[tuple, int] = {}
        #: collective sequence number -> gate
        self.gates: dict[int, CollectiveGate] = {}
        #: name -> backing store for global arrays / hashmaps / queues
        self.registry: dict[str, Any] = {}
        #: compute-once cache for deterministically replicated work
        #: (see :meth:`repro.runtime.context.RankContext.replicated`);
        #: key -> result computed by the first rank to reach the site
        self.replicated: dict[Any, Any] = {}
        #: deterministic per-rank counters/gauges/histograms recorded
        #: by the runtime and GA layers; charges no virtual time
        self.metrics = MetricsRegistry(nprocs)
        #: default virtual-time timeout for blocking receives and
        #: collectives (None = wait forever); set by an active fault
        #: plan so survivors detect dead peers instead of deadlocking
        self.comm_timeout: Optional[float] = None

    # ------------------------------------------------------------------
    # backend hooks (overridden by the multiprocessing backend)
    # ------------------------------------------------------------------
    def make_comm(self, sched, machine, rank: int):
        """Build the communicator endpoint for ``rank``."""
        from .comm import Communicator

        return Communicator(self, sched, machine, rank)

    def shared_state(self, key: str, factory: Callable[[], Any]) -> Any:
        """Backing store for a named distributed structure.

        Under the simulator the value is literally shared between rank
        threads; under the mp backend each process holds a replica and
        cross-process consistency is the structure's own business.
        """
        try:
            return self.registry[key]
        except KeyError:
            value = factory()
            self.registry[key] = value
            return value

    def alloc_ndarray(self, key: str, shape, fill, dtype) -> np.ndarray:
        """Allocate the backing array of a global array.

        The mp backend returns a ``multiprocessing.shared_memory``
        mapped view instead of a private allocation.
        """
        return np.full(shape, fill, dtype=dtype)

    @property
    def ga_lock(self):
        """Mutual exclusion for read-modify-write GA ops.

        The simulator's turn-holding scheduler makes these atomic for
        free; the mp backend substitutes a real cross-process lock.
        """
        return nullcontext()

    def published_store(self, key: str):
        """Rank-indexed mapping of published (read-only) objects."""
        return self.shared_state(key, dict)

    def publish_store(self, key: str, rank: int, value: Any) -> None:
        """Publish ``value`` as rank ``rank``'s entry under ``key``.

        Visibility to other ranks is guaranteed only after the next
        collective (the engine publishes, then barriers).
        """
        self.published_store(key)[rank] = value

    def post_hashmap_sideband(self, name: str, owner: int, batch) -> None:
        """Replicate a remote hashmap insert to the owner's process.

        A no-op under the simulator, where the owner's shard is the
        same Python object the inserting rank just mutated.
        """

    def oob_allgather(self, key: Any, value: Any) -> list:
        """Out-of-band (zero virtual cost) allgather.

        Only the mp backend provides this -- it is real-time plumbing
        for deterministic planning, not a modelled collective.
        """
        raise NotImplementedError(
            "out-of-band allgather requires the mp backend"
        )
