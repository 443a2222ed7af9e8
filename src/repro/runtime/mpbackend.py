"""Real-parallelism multiprocessing backend behind the SPMD API.

One OS process per rank runs the *identical* engine / GA / serve code
that the virtual-time simulator runs: the same ``RankContext``, the
same ``Communicator`` wrappers, the same cost model, the same fault
injector.  The backend substitutes the cross-rank plumbing only:

* global arrays live in ``multiprocessing.shared_memory`` segments so
  ``read_inc`` (under the world's ``ga_lock``) and the owner-local
  views touch the same bytes from every process;
* point-to-point messages, collectives and GA hashmap sidebands flow
  through a parent-process *switchboard* (one request queue in, one
  reply queue per rank out);
* each rank keeps its own :class:`~repro.runtime.clock.VirtualClock`;
  every blocking operation carries the caller's virtual timestamp, and
  the switchboard resolves rendezvous in **virtual-time order** -- not
  real arrival order -- so modelled times, blocked-time accounting,
  metrics and fault semantics are bit-identical to the simulator's.

Determinism contract
--------------------
For fault-free runs the backend produces byte-identical results and
bit-identical metrics snapshots to the simulator: collectives complete
at ``max(arrival) + model cost`` with the last arriver defined by
``(virtual time, rank)`` order exactly as the simulator's
min-clock turn rule yields; a receive counts as "message already
buffered" iff ``(send time, src) < (recv time, dst)`` lexicographically,
which is precisely when the simulator's turn order would have run the
send first.

The contract covers the engine and every program that avoids
``recv_any``, single-copy serving included: the broker receives shard
replies one shard at a time, in shard order, on both backends, so a
``serve`` or ``serve_workbench`` session gives the same responses,
virtual latencies and metrics snapshot under mp as under the
simulator.

Known, documented divergences (see docs/architecture.md §12): which
rank *raises* a ``CollectiveMismatchError``, recovery wall-clock
metadata after mid-run crashes, and alive-but-silent
``CommTimeoutError`` detection (the parent instead reports a deadlock
through its watchdog, and hands over a message that arrives past a
receive's deadline).  ``recv_any`` is not supported under mp: only the
replicated serving tier calls it, and that tier runs on the simulator.
"""

from __future__ import annotations

import os
import pickle
import warnings
from collections import deque
from multiprocessing import get_context, shared_memory
from queue import Empty
from typing import Any, Callable, Optional

import numpy as np

from .clock import VirtualClock
from .comm import Communicator, Message, collective_done
from .context import RankContext
from .errors import (
    ClusterAborted,
    CommTimeoutError,
    DeadlockError,
    RankCrashedError,
    RankFailedError,
    RuntimeMisuseError,
)
from .metrics import MetricsRegistry
from .tracing import Tracer
from .world import World

_PROTO = pickle.HIGHEST_PROTOCOL

#: which payloads each collective kind must cross the process boundary:
#: "none" (pure synchronization), "from-root" (fan-out), "to-root"
#: (fan-in; non-root results are None), "all" (every rank needs every
#: payload and runs the finisher itself), "per-dest" (personalized:
#: each member ships one pre-pickled bucket per destination and
#: receives only its own column -- O(P) bytes instead of O(P^2)),
#: "fin-one" (rank-independent result: the last arriver alone runs the
#: finisher over all payloads and shares the single reduced value)
_SHIP = {
    "barrier": "none",
    "bcast": "from-root",
    "gather": "to-root",
    "allreduce": "fin-one",
    "allgather": "all",
    "scan": "all",
    "alltoallv": "per-dest",
}

_PASSTHROUGH_ERRORS = (DeadlockError, RankFailedError, CommTimeoutError)


def _dumps(obj: Any) -> bytes:
    return pickle.dumps(obj, _PROTO)


#: payloads at least this large travel as shared-memory segments
#: instead of bytes through the reply pipes; the cutover covers the
#: pipe-copy cost of pickling the same megabytes P times over
_SHM_BLOB_MIN = 1 << 16


def _stash_blob(blob: bytes):
    """Spill a large pickled payload into shared memory.

    Returns either the original ``bytes`` (small payloads) or a
    ``("shmblob", name, size)`` descriptor.  The switchboard routes the
    tiny descriptor instead of the bytes, so a payload fanned out to P
    receivers crosses the process boundary once, not P times; the
    parent unlinks every noted segment at teardown."""
    if len(blob) < _SHM_BLOB_MIN:
        return blob
    seg = shared_memory.SharedMemory(create=True, size=len(blob))
    seg.buf[: len(blob)] = blob
    name = seg.name
    seg.close()
    return ("shmblob", name, len(blob))


def _stash_payload(obj: Any):
    """Ship a payload: large numeric ndarrays go as raw shared-memory
    arrays (receivers map a zero-copy view -- no pickle at all, the
    moral equivalent of the simulator sharing the object), everything
    else as (possibly shm-spilled) pickle bytes."""
    if (
        isinstance(obj, np.ndarray)
        and obj.dtype != object
        and obj.nbytes >= _SHM_BLOB_MIN
    ):
        arr = obj if obj.flags.c_contiguous else np.ascontiguousarray(obj)
        seg = shared_memory.SharedMemory(create=True, size=arr.nbytes)
        view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf)
        view[...] = arr
        name = seg.name
        del view
        seg.close()
        return ("shmarr", name, arr.shape, arr.dtype.str)
    return _stash_blob(_dumps(obj))


#: keeps attached segments mapped for the lifetime of any zero-copy
#: views handed to user code (per process; freed at process exit)
_SEG_REFS: list = []


def _load_blob(data) -> Any:
    """Materialize a payload shipped inline, as spilled pickle bytes,
    or as a raw shared-memory array (returned as a read-only view --
    cross-rank payloads are *shared* under the simulator, so writing
    to one was never legal)."""
    if type(data) is tuple:
        if data[0] == "shmarr":
            _tag, name, shape, dtype_str = data
            seg = shared_memory.SharedMemory(name=name)
            arr = np.ndarray(shape, dtype=np.dtype(dtype_str), buffer=seg.buf)
            arr.flags.writeable = False
            _SEG_REFS.append(seg)
            return arr
        _tag, name, size = data
        seg = shared_memory.SharedMemory(name=name)
        raw = bytes(seg.buf[:size])
        seg.close()
        return pickle.loads(raw)
    return pickle.loads(data)


# ----------------------------------------------------------------------
# child-side scheduler: per-process clocks, no turn-taking
# ----------------------------------------------------------------------
class MpScheduler:
    """The scheduler interface as seen from inside one rank process.

    There is no turn to take -- ranks really run concurrently -- so
    ``wait_turn`` reduces to the fault-injection hook and every blocking
    decision is delegated to the parent switchboard (which owns the
    virtual-time ordering).  The clock *list* mirrors the simulator's
    shape but only this rank's own entry ever advances.
    """

    def __init__(self, nprocs, rank, injector, metrics, board):
        self.nprocs = nprocs
        self.rank = rank
        self.injector = injector
        self.metrics = metrics
        self.clocks = [VirtualClock() for _ in range(nprocs)]
        self.blocked_time = [0.0] * nprocs
        #: shared death board: NaN = alive, else crash virtual time
        self._board = board
        #: the rank inside a service handler right now, if any
        self.handling = None

    def now(self, rank: int) -> float:
        return self.clocks[rank].now

    def advance(self, rank: int, dt: float) -> float:
        if self.injector is not None:
            dt = self.injector.scale_compute(
                rank, self.clocks[rank].now, dt
            )
        return self.clocks[rank].advance(dt)

    def wait_turn(self, rank: int) -> None:
        if rank == self.handling:
            raise RuntimeMisuseError(
                f"rank {rank}: a service handler reached a "
                f"synchronization point"
            )
        if self.injector is not None:
            self.injector.on_turn(rank, self.clocks[rank].now)

    @property
    def failed_at(self) -> dict[int, float]:
        b = self._board
        return {
            r: float(b[r]) for r in range(self.nprocs)
            if not np.isnan(b[r])
        }

    def failures_observed_by(self, rank: int) -> list[int]:
        lat = (
            self.injector.detection_latency_s
            if self.injector is not None
            else 0.0
        )
        now = self.clocks[rank].now
        return sorted(
            r for r, t in self.failed_at.items() if t + lat <= now
        )

    def _account_block(self, rank: int, dt: float) -> None:
        """Mirror of the simulator's single block-accounting point."""
        self.blocked_time[rank] += dt
        if self.metrics is not None:
            self.metrics.counter("sched.blocked_seconds").inc(rank, dt)
            self.metrics.histogram("sched.block_seconds").observe(rank, dt)


# ----------------------------------------------------------------------
# replicated / published stores backed by the switchboard
# ----------------------------------------------------------------------
class _MpReplicated:
    """Cross-process compute-once cache (``ctx.replicated``).

    Lookups consult a process-local cache first, then the parent.  The
    parent designates the *first* rank to miss as the computer (its
    reply is ``miss``, so ``RankContext.replicated`` runs ``fn()`` and
    stores the value back) and parks every later rank until the value
    arrives -- real compute-once, matching the simulator's shared dict
    and avoiding P redundant computations of e.g. the association
    matrix.  Values must pickle; ones that do not are flagged to the
    parent so parked ranks are released to recompute locally (still
    deterministic, just slower).

    This store is only ever driven by ``RankContext.replicated``'s
    strict miss-then-store sequence; a ``__getitem__`` miss obliges
    the caller to ``__setitem__`` the same key next.
    """

    def __init__(self, world: "MpWorld"):
        self._world = world
        self._local: dict[Any, Any] = {}

    def __getitem__(self, key: Any) -> Any:
        try:
            return self._local[key]
        except KeyError:
            pass
        reply = self._world._request(("repl-get", self._world.client_rank, key))
        if reply[0] != "hit":
            raise KeyError(key)
        value = _load_blob(reply[1])
        self._local[key] = value
        return value

    def __setitem__(self, key: Any, value: Any) -> None:
        self._local[key] = value
        try:
            data = _stash_payload(value)
        except Exception:
            # unpicklable: tell the parent so parked ranks recompute
            data = None
        self._world._post(("repl-put", self._world.client_rank, key, data))

    def __contains__(self, key: Any) -> bool:
        try:
            self[key]
        except KeyError:
            return False
        return True

    def get(self, key: Any, default: Any = None) -> Any:
        try:
            return self[key]
        except KeyError:
            return default


class _MpFwdStore:
    """Rank-indexed published-object store (``world.published_store``).

    Writes land locally and are forwarded to the parent; reads of other
    ranks' entries fetch (and cache) through the parent.  The engine's
    publish-then-barrier discipline makes the forwarded copy visible
    before any peer can legally read it.
    """

    def __init__(self, world: "MpWorld", key: str):
        self._world = world
        self._key = key
        self._local: dict[Any, Any] = {}

    def __getitem__(self, owner: Any) -> Any:
        try:
            return self._local[owner]
        except KeyError:
            pass
        reply = self._world._request(
            ("fwd-get", self._world.client_rank, self._key, owner)
        )
        if reply[0] != "fwd":
            raise KeyError(owner)
        value = _load_blob(reply[1])
        self._local[owner] = value
        return value

    def __setitem__(self, owner: Any, value: Any) -> None:
        self._local[owner] = value
        self._world._post(
            ("fwd-put", self._world.client_rank, self._key, owner,
             _stash_payload(value))
        )

    def __contains__(self, owner: Any) -> bool:
        try:
            self[owner]
        except KeyError:
            return False
        return True

    def get(self, owner: Any, default: Any = None) -> Any:
        try:
            return self[owner]
        except KeyError:
            return default


# ----------------------------------------------------------------------
# the world, as forked into every rank process
# ----------------------------------------------------------------------
class MpWorld(World):
    """Process-shared :class:`~repro.runtime.world.World`.

    Created in the parent *before* forking; each child then stamps its
    own ``client_rank`` and swaps in fresh per-process state
    (``metrics``, ``registry``, ``replicated``) in ``_child_main``.
    """

    backend = "mp"

    def __init__(self, nprocs: int, mpctx):
        super().__init__(nprocs)
        self._req_q = mpctx.Queue()
        self._reply_qs = [mpctx.SimpleQueue() for _ in range(nprocs)]
        self._ga_lock_mp = mpctx.Lock()
        self._board_shm = shared_memory.SharedMemory(
            create=True, size=8 * nprocs
        )
        board = np.ndarray((nprocs,), dtype=np.float64,
                           buffer=self._board_shm.buf)
        board[:] = np.nan
        #: filled in per child by ``_child_main``
        self.client_rank: Optional[int] = None
        self._reply_q = None
        self._board_view: Optional[np.ndarray] = None
        self._fwd_stores: dict[str, _MpFwdStore] = {}
        self._shm_refs: list[shared_memory.SharedMemory] = []

    # ------------------------------------------------------------------
    # child <-> switchboard plumbing
    # ------------------------------------------------------------------
    def _post(self, msg: tuple) -> None:
        """Fire-and-forget message to the switchboard."""
        self._req_q.put(msg)

    def _request(self, msg: tuple) -> tuple:
        """Round-trip to the switchboard; applies piggybacked hashmap
        sidebands before interpreting the reply."""
        self._req_q.put(msg)
        return self._get_reply()

    def _get_reply(self) -> tuple:
        sideband, msg = self._reply_q.get()
        if sideband:
            self._apply_sideband(sideband)
        if msg[0] == "abort":
            raise ClusterAborted("aborted: another rank failed")
        return msg

    def _apply_sideband(self, entries) -> None:
        """Replay remote hashmap inserts into this process's shard.

        The switchboard attaches pending sidebands to *every* reply, and
        collective releases are replies, so replayed inserts are always
        applied before the barrier that makes them legally visible.
        """
        from repro.ga.hashmap import _OwnerState

        me = self.client_rank
        for name, batch in entries:
            key = f"hashmap:{name}"
            shards = self.registry.get(key)
            if shards is None:
                # this process has not reached the collective create
                # yet; pre-create the shard list the same factory would
                shards = [_OwnerState() for _ in range(self.nprocs)]
                self.registry[key] = shards
            shard = shards[me]
            for term in batch:
                if term not in shard.table:
                    shard.table[term] = (
                        shard.next_local * self.nprocs + me
                    )
                    shard.next_local += 1

    def _dead_ranks(self) -> list[int]:
        b = self._board_view
        if b is None:
            return []
        return sorted(
            r for r in range(self.nprocs) if not np.isnan(b[r])
        )

    # ------------------------------------------------------------------
    # backend hooks
    # ------------------------------------------------------------------
    def make_comm(self, sched, machine, rank: int):
        return MpCommunicator(self, sched, machine, rank)

    def alloc_ndarray(self, key: str, shape, fill, dtype) -> np.ndarray:
        dt = np.dtype(dtype)
        shape_t = (
            tuple(int(s) for s in shape)
            if isinstance(shape, (tuple, list))
            else (int(shape),)
        )
        reply = self._request(
            ("alloc", self.client_rank, key, shape_t, fill, dt.str)
        )
        shm = shared_memory.SharedMemory(name=reply[1])
        self._shm_refs.append(shm)
        return np.ndarray(shape_t, dtype=dt, buffer=shm.buf)

    @property
    def ga_lock(self):
        return self._ga_lock_mp

    def published_store(self, key: str):
        store = self._fwd_stores.get(key)
        if store is None:
            store = self._fwd_stores[key] = _MpFwdStore(self, key)
        return store

    def publish_store(self, key: str, rank: int, value: Any) -> None:
        self.published_store(key)[rank] = value

    def post_hashmap_sideband(self, name: str, owner: int, batch) -> None:
        self._post(
            ("sideband", self.client_rank, name, owner, list(batch))
        )

    def oob_allgather(self, key: Any, value: Any) -> list:
        reply = self._request(("oob", self.client_rank, key, value))
        if reply[0] == "rankfailed":
            dead = self._dead_ranks()
            raise RankFailedError(dead, "dlb plan out-of-band exchange")
        return reply[1]


# ----------------------------------------------------------------------
# communicator: identical modelled semantics, switchboard transport
# ----------------------------------------------------------------------
class MpCommunicator(Communicator):
    """Per-rank endpoint whose rendezvous run through the switchboard.

    The timing rules are the simulator's own (inherited from
    :class:`~repro.runtime.comm.Communicator`); this class replaces the
    transport only: :meth:`_deliver`, the blocking wait of ``recv`` and
    the collective rendezvous.  Self-sends keep the simulator's
    in-process mailbox.
    """

    # -- point to point -------------------------------------------------
    def _deliver(self, dest: int, tag: int, msg: Message, now: float) -> None:
        if dest == self.rank:
            super()._deliver(dest, tag, msg, now)
            return
        self.world._post(
            ("p2p-send", self.rank, (self.rank, dest, tag), now,
             msg.arrival, msg.nbytes, _stash_payload(msg.obj))
        )

    def _wait_recv(
        self, source: int, tag: int, timeout: Optional[float]
    ) -> Any:
        if source == self.rank:
            raise RuntimeMisuseError(
                f"rank {self.rank}: recv from self with no "
                f"buffered message under the mp backend"
            )
        clock = self.sched.clocks[self.rank]
        now = clock.now
        eff = self._effective_timeout(timeout)
        reply = self.world._request(
            ("p2p-recv", self.rank, (source, self.rank, tag), now, eff)
        )
        if reply[0] == "p2p-timeout":
            clock.advance_to(reply[1])
            self.sched._account_block(self.rank, clock.now - now)
            self._raise_timeout(
                f"recv(src={source}, tag={tag})", [source], eff
            )
        _t, buffered, arrival, nbytes, blob = reply
        obj = _load_blob(blob)
        if buffered:
            # virtually the message was waiting: the simulator's
            # non-blocking receive path (no blocked-time accounting)
            self._complete(source, arrival, nbytes, now)
        else:
            # the simulator's sender-side wake-up of a blocked receiver
            clock.advance_to(arrival + self.machine.recv_overhead_seconds())
            self.sched._account_block(self.rank, clock.now - now)
            self._account_recv(source, nbytes)
        return obj

    def recv_any(self, sources=None, tag: int = 0, timeout=None):
        raise RuntimeMisuseError(
            "recv_any() is not supported under the mp backend"
        )

    # -- collectives ----------------------------------------------------
    def _collective(
        self,
        kind: str,
        payload: Any,
        nbytes: Optional[float] = None,
        finisher: Optional[Callable[[list[Any]], list[Any]]] = None,
        nbytes_hint: Optional[float] = None,
        root: Optional[int] = None,
    ) -> Any:
        seq, now, my_size = self._enter(kind, payload, nbytes, nbytes_hint)
        ship = _SHIP[kind]
        blob = None
        if ship == "per-dest":
            blob = [_stash_payload(payload[d]) for d in range(self.nprocs)]
        elif (
            ship in ("all", "fin-one")
            or (ship == "from-root" and self.rank == root)
            or (ship == "to-root" and self.rank != root)
        ):
            blob = _stash_payload(payload)
        reply = self.world._request(
            ("coll", self.rank, seq, kind, root, ship, now, blob, my_size,
             nbytes_hint)
        )
        clock = self.sched.clocks[self.rank]
        if reply[0] == "coll-mismatch":
            self._raise_mismatch(kind, seq, reply[1])
        if reply[0] == "rankfailed":
            clock.advance_to(reply[1])
            self.sched._account_block(self.rank, clock.now - now)
            self._raise_coll_timeout(kind, seq)
        _t, is_last, done, data = reply
        clock.advance_to(done)
        if not is_last:
            self.sched._account_block(self.rank, clock.now - now)
        if finisher is None:
            return None
        n = self.nprocs
        if ship == "from-root":
            payloads: list[Any] = [None] * n
            payloads[root] = (
                payload if self.rank == root else _load_blob(data)
            )
            return finisher(payloads)[self.rank]
        if ship == "to-root":
            if self.rank != root:
                return None
            payloads = [
                payload if r == root else _load_blob(data[r])
                for r in range(n)
            ]
            return finisher(payloads)[self.rank]
        if ship == "per-dest":
            # ``data`` holds only this rank's column of the exchange;
            # reconstructing it directly is bit-identical to the
            # generic transpose finisher (alltoallv is the only
            # per-dest kind) with own entries never pickled
            return [
                payload[self.rank] if r == self.rank else _load_blob(data[r])
                for r in range(n)
            ]
        if ship == "fin-one":
            if n == 1:
                return finisher([payload])[self.rank]
            if is_last:
                # the last arriver is the designated finisher: reduce
                # all payloads once and share the (rank-independent)
                # result, instead of every member unpickling every
                # payload -- O(P) bytes instead of O(P^2)
                payloads = [
                    payload if r == self.rank else _load_blob(data[r])
                    for r in range(n)
                ]
                out = finisher(payloads)
                self.world._post(
                    ("coll-fin", self.rank, seq,
                     _stash_payload(out[self.rank]))
                )
                return out[self.rank]
            reply2 = self.world._get_reply()
            if reply2[0] != "coll-fin":  # pragma: no cover - protocol
                raise RuntimeError(
                    f"expected coll-fin reply, got {reply2[0]!r}"
                )
            out_mine = _load_blob(reply2[1])
            if (
                isinstance(out_mine, np.ndarray)
                and not out_mine.flags.writeable
            ):
                # the simulator's allreduce hands each rank a private
                # copy of the reduced array; match that ownership
                out_mine = out_mine.copy()
            return out_mine
        payloads = [
            payload if r == self.rank else _load_blob(data[r])
            for r in range(n)
        ]
        return finisher(payloads)[self.rank]


# ----------------------------------------------------------------------
# child entry point
# ----------------------------------------------------------------------
def _child_main(world, rank, machine, injector, fn, args, kwargs):
    prof = None
    if os.environ.get("REPRO_MP_PROFILE"):
        import cProfile
        import time as _time

        prof = cProfile.Profile(_time.process_time)
        prof.enable()
    try:
        _child_body(world, rank, machine, injector, fn, args, kwargs)
    finally:
        if prof is not None:
            prof.disable()
            prof.dump_stats(
                f"{os.environ['REPRO_MP_PROFILE']}/child{rank}.prof"
            )


def _child_body(world, rank, machine, injector, fn, args, kwargs):
    world.client_rank = rank
    world._reply_q = world._reply_qs[rank]
    world.metrics = MetricsRegistry(world.nprocs)
    world.registry = {}
    world.replicated = _MpReplicated(world)
    world._fwd_stores = {}
    world._shm_refs = []
    world.mailboxes = {}
    world.recv_waiters = {}
    world.gates = {}
    tracer = Tracer(world.nprocs)
    board = np.ndarray(
        (world.nprocs,), dtype=np.float64, buffer=world._board_shm.buf
    )
    world._board_view = board
    sched = MpScheduler(world.nprocs, rank, injector, world.metrics, board)
    pending0: list = []
    if injector is not None:
        injector.start_run(world.nprocs, tracer)
        pending0 = list(injector._pending_crashes)
    ctx = RankContext(rank, world, sched, machine, tracer)
    clock = sched.clocks[rank]
    try:
        # one turn-hook call before user code, as spawn_ranks does
        sched.wait_turn(rank)
        result = fn(ctx, *args, **kwargs)
        world._post(
            ("done", rank, clock.now, sched.blocked_time[rank], result,
             world.metrics, tracer)
        )
    except RankCrashedError as crash:
        board[rank] = crash.at_time
        fired = [
            f for f in pending0
            if f not in injector._pending_crashes
        ]
        world._post(
            ("crashed", rank, crash.at_time, sched.blocked_time[rank],
             fired, world.metrics, tracer)
        )
    except ClusterAborted:
        world._post(("abort-ack", rank))
    except BaseException as exc:  # noqa: BLE001 - forwarded to parent
        try:
            blob = _dumps(exc)
        except Exception:
            blob = None
        world._post(("failed", rank, clock.now, blob, repr(exc)))


# ----------------------------------------------------------------------
# parent switchboard
# ----------------------------------------------------------------------
class _Gate:
    __slots__ = ("kind", "root", "ship", "arrivals")

    def __init__(self, kind, root, ship):
        self.kind = kind
        self.root = root
        self.ship = ship
        #: rank -> (virtual arrival, blob, measured size, hint)
        self.arrivals: dict[int, tuple] = {}


class _Switchboard:
    """Parent-process resolver of all cross-rank rendezvous.

    Single-threaded: it drains one request queue and replies through
    per-rank queues, so every decision (gate completion order, receive
    matching, death timeouts) is made at one place in virtual-time
    order, independent of real scheduling."""

    def __init__(self, world: MpWorld, machine, injector, procs):
        self.world = world
        self.nprocs = world.nprocs
        self.machine = machine
        self.injector = injector
        self.procs = procs
        self._board = np.ndarray(
            (self.nprocs,), dtype=np.float64, buffer=world._board_shm.buf
        )
        #: collective sequence number -> gate
        self._gates: dict[int, _Gate] = {}
        self._mail: dict[tuple, deque] = {}
        self._parked_recv: dict[tuple, tuple] = {}
        self._oob: dict[Any, dict[int, Any]] = {}
        self._fwd: dict[tuple, bytes] = {}
        self._repl: dict[Any, Any] = {}
        #: key -> rank currently designated to compute the value
        self._repl_computing: dict[Any, int] = {}
        #: key -> ranks parked until the computer's repl-put arrives
        self._repl_waiters: dict[Any, list[int]] = {}
        #: keys whose values did not pickle: every rank computes locally
        self._repl_nopickle: set = set()
        #: sequence number -> ranks awaiting the finisher's coll-fin result
        self._fin_pending: dict[int, list[int]] = {}
        self._allocs: dict[str, shared_memory.SharedMemory] = {}
        #: shared-memory payload segments seen in transit, unlinked at
        #: teardown (their lifetime is the run, their count is bounded
        #: by the number of large payloads)
        self._blob_names: list[str] = []
        self._sideband: dict[int, list] = {}
        self._parked: dict[int, str] = {}
        self._death: dict[int, float] = {}
        self._terminal: set[int] = set()
        self._aborted: set[int] = set()
        self._results: dict[int, Any] = {}
        self._clocks_done: dict[int, float] = {}
        self._blocked: dict[int, float] = {}
        self._metrics_parts: dict[int, MetricsRegistry] = {}
        self._tracer_parts: dict[int, Tracer] = {}
        self._last_clock = [0.0] * self.nprocs
        self._error: Optional[tuple] = None
        self._suspect: dict[int, int] = {}

    # -- plumbing -------------------------------------------------------
    def _send(self, rank: int, msg: tuple) -> None:
        sideband = self._sideband.pop(rank, [])
        self.world._reply_qs[rank].put((sideband, msg))

    def _clock_seen(self, rank: int, t: float) -> None:
        if t > self._last_clock[rank]:
            self._last_clock[rank] = t

    # -- main loop ------------------------------------------------------
    def loop(self) -> None:
        q = self.world._req_q
        while len(self._terminal) < self.nprocs:
            try:
                msg = q.get(timeout=0.5)
            except Empty:
                self._on_idle()
                continue
            self._dispatch(msg)

    def _note_blob(self, data) -> None:
        """Record shared-memory payload segments for teardown unlink."""
        if type(data) is tuple:
            self._blob_names.append(data[1])
        elif type(data) is list:
            for entry in data:
                if type(entry) is tuple:
                    self._blob_names.append(entry[1])

    def _dispatch(self, msg: tuple) -> None:
        kind, rank = msg[0], msg[1]
        # note payload segments before any drop path so aborted ranks'
        # in-flight blobs still get unlinked at teardown
        if kind == "coll":
            self._note_blob(msg[7])
        elif kind == "coll-fin":
            self._note_blob(msg[3])
        elif kind == "p2p-send":
            self._note_blob(msg[6])
        elif kind == "repl-put":
            self._note_blob(msg[3])
        elif kind == "fwd-put":
            self._note_blob(msg[4])
        if kind == "done":
            self._on_done(*msg[1:])
            return
        if kind == "crashed":
            self._on_crashed(*msg[1:])
            return
        if kind == "failed":
            self._on_failed(*msg[1:])
            return
        if kind == "abort-ack":
            self._terminal.add(rank)
            return
        if rank in self._aborted:
            # the rank already has an abort queued as its next reply;
            # drop whatever it was asking for
            return
        if kind == "coll":
            self._on_coll(*msg[1:])
        elif kind == "coll-fin":
            for r in self._fin_pending.pop(msg[2], []):
                if r not in self._aborted:
                    self._send(r, ("coll-fin", msg[3]))
        elif kind == "p2p-send":
            self._on_p2p_send(*msg[1:])
        elif kind == "p2p-recv":
            self._on_p2p_recv(*msg[1:])
        elif kind == "alloc":
            self._on_alloc(*msg[1:])
        elif kind == "oob":
            self._on_oob(*msg[1:])
        elif kind == "repl-get":
            key = msg[2]
            data = self._repl.get(key)
            if data is not None:
                self._send(rank, ("hit", data))
            elif key in self._repl_nopickle:
                self._send(rank, ("miss",))
            elif key in self._repl_computing:
                # someone is already computing this value: park the
                # requester until the repl-put arrives (real time only;
                # virtual clocks are charged by the caller regardless)
                self._repl_waiters.setdefault(key, []).append(rank)
                self._parked[rank] = f"replicated {key!r}"
            else:
                self._repl_computing[key] = rank
                self._send(rank, ("miss",))
        elif kind == "repl-put":
            self._on_repl_put(msg[2], msg[3])
        elif kind == "fwd-put":
            _r, key, owner, blob = msg[1:]
            self._fwd[(key, owner)] = blob
        elif kind == "fwd-get":
            _r, key, owner = msg[1:]
            blob = self._fwd.get((key, owner))
            if blob is None:
                self._send(rank, ("fwd-miss",))
            else:
                self._send(rank, ("fwd", blob))
        elif kind == "sideband":
            _r, name, owner, batch = msg[1:]
            self._sideband.setdefault(owner, []).append((name, batch))
        else:  # pragma: no cover - protocol error
            raise RuntimeError(f"unknown switchboard message {kind!r}")

    # -- idle: watchdog + deadlock detection ----------------------------
    def _on_idle(self) -> None:
        for r in range(self.nprocs):
            if r in self._terminal:
                continue
            p = self.procs[r]
            if not p.is_alive():
                # grace rounds: a terminal message may still be in the
                # pipe right after the process exited
                self._suspect[r] = self._suspect.get(r, 0) + 1
                if self._suspect[r] >= 3:
                    self._terminal.add(r)
                    if self._error is None:
                        self._error = (
                            r, None,
                            f"worker process died unexpectedly "
                            f"(exitcode {p.exitcode})",
                        )
                    self._abort_everyone()
            else:
                self._suspect.pop(r, None)
        if self._error is not None:
            return
        waiting = [r for r in range((self.nprocs)) if r not in self._terminal]
        if waiting and all(r in self._parked for r in waiting):
            # every live rank is parked and the queue is drained:
            # nothing can ever complete
            blocked = {r: self._parked[r] for r in waiting}
            clocks = {r: self._last_clock[r] for r in waiting}
            self._error = (None, DeadlockError(blocked, clocks, {}), "")
            self._abort_everyone()

    def _abort_everyone(self) -> None:
        for r in range(self.nprocs):
            if r in self._terminal or r in self._aborted:
                continue
            self._aborted.add(r)
            self._parked.pop(r, None)
            # keep abort replies sideband-free so the put can never
            # block on a rank that is still computing
            self.world._reply_qs[r].put(([], ("abort",)))

    # -- terminal messages ----------------------------------------------
    def _on_done(self, rank, clock, blocked, result, metrics, tracer):
        self._terminal.add(rank)
        self._results[rank] = result
        self._clocks_done[rank] = clock
        self._blocked[rank] = blocked
        self._metrics_parts[rank] = metrics
        self._tracer_parts[rank] = tracer
        self._clock_seen(rank, clock)

    def _on_crashed(self, rank, at_time, blocked, fired, metrics, tracer):
        self._death[rank] = at_time
        self._board[rank] = at_time
        if self.injector is not None:
            for f in fired:
                try:
                    self.injector._pending_crashes.remove(f)
                except ValueError:
                    pass
        self._terminal.add(rank)
        self._blocked[rank] = blocked
        self._metrics_parts[rank] = metrics
        self._tracer_parts[rank] = tracer
        self._clock_seen(rank, at_time)
        for gkey in list(self._gates):
            self._eval_gate(gkey)
        for key in list(self._oob):
            self._eval_oob(key)
        for mkey, (dst, r_now, eff) in list(self._parked_recv.items()):
            if mkey[0] == rank and eff is not None:
                del self._parked_recv[mkey]
                self._parked.pop(dst, None)
                self._send(dst, ("p2p-timeout", r_now + eff))
        # promote a waiter if the dead rank was computing a replicated
        # value, so parked ranks are never stranded
        for key, computer in list(self._repl_computing.items()):
            if computer != rank:
                continue
            del self._repl_computing[key]
            waiters = self._repl_waiters.get(key)
            if waiters:
                w = waiters.pop(0)
                self._repl_computing[key] = w
                self._parked.pop(w, None)
                self._send(w, ("miss",))
            if not waiters:
                self._repl_waiters.pop(key, None)

    def _on_failed(self, rank, clock, blob, reprstr):
        self._terminal.add(rank)
        self._clock_seen(rank, clock)
        if self._error is None:
            exc = None
            if blob is not None:
                try:
                    exc = pickle.loads(blob)
                except Exception:
                    exc = None
            self._error = (rank, exc, reprstr)
        self._abort_everyone()

    # -- collectives ----------------------------------------------------
    def _on_coll(self, rank, seq, kind, root, ship, t, blob, size, hint):
        self._clock_seen(rank, t)
        g = self._gates.get(seq)
        if g is None:
            g = self._gates[seq] = _Gate(kind, root, ship)
        elif g.kind != kind:
            self._send(rank, ("coll-mismatch", g.kind))
            return
        g.arrivals[rank] = (t, blob, size, hint)
        self._parked[rank] = f"{kind} (collective #{seq})"
        self._eval_gate(seq)

    def _eval_gate(self, seq) -> None:
        g = self._gates.get(seq)
        if g is None:
            return
        n = self.nprocs
        if len(g.arrivals) == n:
            self._release_gate(seq, g)
            return
        if not self._death:
            return
        if any(r not in g.arrivals and r not in self._death for r in range(n)):
            return  # a live member may still arrive (and may win)
        eff = self.world.comm_timeout
        if eff is None:
            return  # no timeout: stays parked, watchdog reports deadlock
        order = sorted(g.arrivals, key=lambda r: (g.arrivals[r][0] + eff, r))
        for r in order:
            self._parked.pop(r, None)
            if r == order[0]:
                self._send(r, ("rankfailed", g.arrivals[r][0] + eff))
            else:
                self._aborted.add(r)
                self._send(r, ("abort",))
        del self._gates[seq]

    def _release_gate(self, seq, g: _Gate) -> None:
        n = self.nprocs
        arr = g.arrivals
        last = max(arr, key=lambda r: (arr[r][0], r))
        done = collective_done(
            self.machine, g.kind, n,
            [(t, s) for (t, _blob, s, _h) in arr.values()], arr[last][3],
        )
        if g.ship in ("all", "fin-one"):
            blobs = [arr[r][1] for r in range(n)]
        for r in range(n):
            if g.ship == "none":
                data = None
            elif g.ship == "from-root":
                data = None if r == g.root else arr[g.root][1]
            elif g.ship == "to-root":
                data = (
                    [arr[j][1] for j in range(n)] if r == g.root else None
                )
            elif g.ship == "per-dest":
                # member r only needs its own column of the exchange
                data = [arr[j][1][r] for j in range(n)]
            elif g.ship == "fin-one":
                # only the designated finisher (the last arriver)
                # receives the payloads; everyone else waits for its
                # coll-fin result as a second reply
                data = blobs if r == last else None
            else:
                data = blobs
            self._parked.pop(r, None)
            self._send(r, ("coll-go", r == last, done, data))
        if g.ship == "fin-one" and n > 1:
            self._fin_pending[seq] = [r for r in range(n) if r != last]
        del self._gates[seq]

    # -- out-of-band allgather (DLB planning) ---------------------------
    def _on_oob(self, rank, key, value):
        vals = self._oob.setdefault(key, {})
        vals[rank] = value
        self._parked[rank] = f"oob allgather {key!r}"
        self._eval_oob(key)

    def _eval_oob(self, key) -> None:
        vals = self._oob.get(key)
        if vals is None:
            return
        live = [r for r in range(self.nprocs) if r not in self._death]
        if not all(r in vals for r in live):
            return
        if len(live) < self.nprocs:
            for r in list(vals):
                self._parked.pop(r, None)
                self._send(r, ("rankfailed", None))
        else:
            out = [vals[r] for r in range(self.nprocs)]
            for r in range(self.nprocs):
                self._parked.pop(r, None)
                self._send(r, ("oob-go", out))
        del self._oob[key]

    # -- point to point -------------------------------------------------
    def _on_p2p_send(self, rank, mkey, s_now, arrival, nbytes, blob):
        self._clock_seen(rank, s_now)
        parked = self._parked_recv.pop(mkey, None)
        if parked is not None:
            dst, r_now, _eff = parked
            self._parked.pop(dst, None)
            buffered = (s_now, mkey[0]) < (r_now, mkey[1])
            self._send(dst, ("msg", buffered, arrival, nbytes, blob))
        else:
            self._mail.setdefault(mkey, deque()).append(
                (s_now, arrival, nbytes, blob)
            )

    def _on_p2p_recv(self, rank, mkey, r_now, eff):
        self._clock_seen(rank, r_now)
        box = self._mail.get(mkey)
        if box:
            s_now, arrival, nbytes, blob = box.popleft()
            if not box:
                del self._mail[mkey]
            buffered = (s_now, mkey[0]) < (r_now, mkey[1])
            self._send(rank, ("msg", buffered, arrival, nbytes, blob))
            return
        src = mkey[0]
        if src in self._death and eff is not None:
            self._send(rank, ("p2p-timeout", r_now + eff))
            return
        self._parked_recv[mkey] = (rank, r_now, eff)
        self._parked[rank] = f"recv(src={src}, tag={mkey[2]})"

    # -- shared-memory allocation --------------------------------------
    def _on_alloc(self, rank, key, shape, fill, dtype_str):
        shm = self._allocs.get(key)
        if shm is None:
            dt = np.dtype(dtype_str)
            size = max(1, int(np.prod(shape)) * dt.itemsize)
            shm = shared_memory.SharedMemory(create=True, size=size)
            view = np.ndarray(shape, dtype=dt, buffer=shm.buf)
            view[...] = fill
            del view
            self._allocs[key] = shm
        self._send(rank, ("shm", shm.name))

    # -- replicated compute-once store ----------------------------------
    def _on_repl_put(self, key, data) -> None:
        self._repl_computing.pop(key, None)
        waiters = self._repl_waiters.pop(key, [])
        if data is None:
            # the value did not pickle: release waiters to recompute
            # locally, and short-circuit future getters the same way
            self._repl_nopickle.add(key)
            for w in waiters:
                self._parked.pop(w, None)
                self._send(w, ("miss",))
            return
        stored = self._repl.setdefault(key, data)
        for w in waiters:
            self._parked.pop(w, None)
            self._send(w, ("hit", stored))

    # -- completion -----------------------------------------------------
    def finish(self, raise_on_failure: bool):
        from .cluster import ClusterResult

        n = self.nprocs
        if self._error is not None:
            rank, exc, reprstr = self._error
            if isinstance(exc, _PASSTHROUGH_ERRORS):
                if (
                    isinstance(exc, RankFailedError)
                    and exc.rank_times is None
                ):
                    exc.rank_times = np.array(self._last_clock)
                raise exc
            if exc is not None:
                raise RuntimeError(
                    f"rank {rank} failed: {exc!r}"
                ) from exc
            raise RuntimeError(f"rank {rank} failed: {reprstr}")
        times = np.array([
            self._clocks_done.get(r, self._death.get(r, 0.0))
            for r in range(n)
        ])
        failed = sorted(self._death)
        if failed and raise_on_failure:
            exc = RankFailedError(failed, "run completion")
            exc.rank_times = times
            raise exc
        return ClusterResult(
            nprocs=n,
            rank_results=[self._results.get(r) for r in range(n)],
            rank_times=times,
            blocked_times=np.array(
                [self._blocked.get(r, 0.0) for r in range(n)]
            ),
            tracer=_merge_tracers(n, self._tracer_parts),
            failed_ranks=failed,
            metrics=_merge_metrics(n, self._metrics_parts),
        )

    def release_shm(self) -> None:
        for shm in self._allocs.values():
            try:
                shm.close()
                shm.unlink()
            except FileNotFoundError:
                pass
        self._allocs.clear()
        for name in self._blob_names:
            try:
                seg = shared_memory.SharedMemory(name=name)
                seg.close()
                seg.unlink()
            except FileNotFoundError:
                pass
        self._blob_names.clear()


# ----------------------------------------------------------------------
# splicing per-process metrics / traces into one registry
# ----------------------------------------------------------------------
def _merge_metrics(
    nprocs: int, parts: dict[int, MetricsRegistry]
) -> MetricsRegistry:
    """Splice each rank's slice of its private registry into one.

    Every per-rank value in a child registry lives at that child's own
    rank index, so the merge is a pure column copy; the snapshot's
    canonical sorting then makes the result bit-identical to the
    simulator's shared registry."""
    merged = MetricsRegistry(nprocs)
    for r in range(nprocs):
        part = parts.get(r)
        if part is None:
            continue
        for name, fam in part._families.items():
            mf = merged._family(name, fam.kind, fam.label_names, fam.bounds)
            mf.per_rank[r] = fam.per_rank[r]
        for stage, st in part._stages.items():
            mst = merged._stages.get(stage)
            if mst is None:
                mst = merged._stages[stage] = {
                    "seconds": [0.0] * nprocs,
                    "blocked_seconds": [0.0] * nprocs,
                    "counters": {},
                }
            mst["seconds"][r] = st["seconds"][r]
            mst["blocked_seconds"][r] = st["blocked_seconds"][r]
            for name, d in st["counters"].items():
                md = mst["counters"].setdefault(name, {})
                for rk, v in d.items():
                    if rk[0] == r:
                        md[rk] = v
    return merged


def _merge_tracers(nprocs: int, parts: dict[int, Tracer]) -> Tracer:
    merged = Tracer(nprocs)
    for r in range(nprocs):
        part = parts.get(r)
        if part is None:
            continue
        merged.spans.extend(
            s for s in part.spans if s.rank == r
        )
        merged.instants.extend(
            i for i in part.instants if i.rank == r
        )
        merged.wall_spans.extend(
            s for s in part.wall_spans if s.rank == r
        )
    return merged


# ----------------------------------------------------------------------
# driver entry point (called by Cluster.run)
# ----------------------------------------------------------------------
def run_mp(
    nprocs: int,
    machine,
    injector,
    fn: Callable[..., Any],
    args: tuple,
    kwargs: dict,
    raise_on_failure: bool = True,
):
    """Run ``fn(ctx, *args, **kwargs)`` on ``nprocs`` OS processes.

    Drop-in equivalent of the simulator path of
    :meth:`repro.runtime.cluster.Cluster.run`: same result object, same
    virtual times, same exceptions."""
    # pre-import lazy numpy submodules the engine touches (np.unique
    # pulls in numpy.ma on first use); importing before the fork makes
    # every child inherit them instead of paying the import P times
    import numpy.ma  # noqa: F401

    mpctx = get_context("fork")
    world = MpWorld(nprocs, mpctx)
    if injector is not None:
        world.comm_timeout = injector.comm_timeout_s
    procs = []
    board = _Switchboard(world, machine, injector, procs)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            for r in range(nprocs):
                p = mpctx.Process(
                    target=_child_main,
                    args=(world, r, machine, injector, fn, args, kwargs),
                    name=f"repro-mp-rank-{r}",
                    daemon=True,
                )
                p.start()
                procs.append(p)
        board.loop()
    finally:
        for p in procs:
            p.join(timeout=10.0)
        leftover = [p for p in procs if p.is_alive()]
        for p in leftover:
            p.terminate()
        for p in leftover:
            p.join(timeout=5.0)
        for p in procs:
            p.close()
        world._req_q.close()
        board.release_shm()
        try:
            world._board_shm.close()
            world._board_shm.unlink()
        except FileNotFoundError:
            pass
    return board.finish(raise_on_failure)
