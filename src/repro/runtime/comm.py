"""MPI-style communication over the virtual-time scheduler.

One :class:`Communicator` per rank, spanning the whole world.  It is the
MPI subset the system calls: ``send``/``recv``/``recv_any`` and the
``barrier``, ``bcast``, ``allreduce``, ``gather``, ``allgather``,
``alltoallv`` and ``exscan`` collectives.  Point-to-point messages go
through per-(src, dst, tag) mailboxes with LogGP-modelled timing; collectives
rendezvous at :class:`~repro.runtime.world.CollectiveGate` objects, and
the *last* arriving rank computes the result and every rank's
completion time (``max(arrival) + model cost``), which matches the
synchronizing collectives (``MPI_Allreduce`` etc.) the paper relies on.

Ranks must issue collectives in the same order; a sequence-number check
turns the MPI undefined behaviour of mismatched collectives into a
:class:`~repro.runtime.errors.CollectiveMismatchError`.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional, Sequence

import numpy as np

from .errors import (
    CollectiveMismatchError,
    CommTimeoutError,
    RankFailedError,
    RuntimeMisuseError,
)
from .machine import MachineSpec
from .payload import payload_nbytes
from .scheduler import Scheduler
from .world import CollectiveGate, World


def _default_sum(a: Any, b: Any) -> Any:
    """Elementwise/numeric addition, the default reduction op."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.add(a, b)
    return a + b


def collective_done(
    machine: MachineSpec,
    kind: str,
    nprocs: int,
    arrivals: Sequence[tuple[float, Optional[float]]],
    nbytes_hint: Optional[float],
) -> float:
    """Completion time of a collective: ``max(arrival) + model cost``.

    ``arrivals`` holds one ``(virtual arrival, measured size)`` pair
    per rank; the last arriver's ``nbytes_hint``, when given, stands in
    for the largest measured size.
    """
    size = nbytes_hint
    if size is None:
        size = max(s for _t, s in arrivals if s is not None)
    t0 = max(t for t, _s in arrivals)
    return t0 + machine.collective_seconds(kind, nprocs, float(size))


class Message:
    """One in-flight point-to-point message.

    Carries the payload, its virtual arrival time, and the wire size
    computed **exactly once** at send time -- re-inspected or retried
    deliveries never re-measure (and never re-pickle) the payload.
    """

    __slots__ = ("obj", "arrival", "nbytes")

    def __init__(self, obj: Any, arrival: float, nbytes: float):
        self.obj = obj
        self.arrival = arrival
        self.nbytes = nbytes


class Communicator:
    """The per-rank endpoint of the simulated interconnect.

    Every endpoint spans the whole world; ``rank`` is the scheduler
    rank.  The timing rules live here once: :meth:`_post` (a send once
    its turn is held) stamps the LogGP cost and hands the message to
    :meth:`_deliver`, :meth:`_take` / :meth:`_complete` finish a receive
    whose message was already waiting, :meth:`_expect` / :meth:`_woken`
    bracket a receive's block, and :meth:`_enter` is every collective's
    arrival step.  A thread-less service rank
    (:class:`~repro.runtime.service.InlineService`) runs the same steps
    between its turns.  A backend endpoint replaces only the transport:
    ``_deliver``, the blocking wait of :meth:`recv` and the collective
    rendezvous.
    """

    def __init__(
        self, world: World, sched: Scheduler, machine: MachineSpec, rank: int
    ):
        self.world = world
        self.sched = sched
        self.machine = machine
        self.rank = rank
        self.nprocs = world.nprocs
        self._coll_seq = 0
        # cached metric family handles (pure dict ops, no virtual time)
        m = world.metrics
        self._m_p2p_msgs = m.counter("comm.p2p.messages", ("peer", "dir"))
        self._m_p2p_bytes = m.counter("comm.p2p.bytes", ("peer", "dir"))
        self._m_coll_calls = m.counter("comm.coll.calls", ("kind",))
        self._m_coll_bytes = m.counter("comm.coll.bytes", ("kind",))

    def _inbox(self, src: int, tag: int) -> deque:
        """The mailbox of messages from ``src`` to this rank."""
        return self.world.mailboxes.setdefault((src, self.rank, tag), deque())

    def _effective_timeout(self, timeout: Optional[float]) -> Optional[float]:
        """Per-call timeout, falling back to the world default (which a
        fault plan sets; ``None`` = wait forever, the fault-free case)."""
        return self.world.comm_timeout if timeout is None else timeout

    def _raise_timeout(
        self, detail: str, involved: Sequence[int], timeout: float
    ) -> None:
        """A blocking operation's virtual-time deadline fired.

        If any involved rank has crashed this is a detected peer death
        (:class:`RankFailedError`); otherwise the peers are alive but
        silent (:class:`CommTimeoutError`).
        """
        dead = sorted(set(involved) & set(self.sched.failed_at))
        if dead:
            raise RankFailedError(dead, detail)
        raise CommTimeoutError(self.rank, detail, timeout)

    # ------------------------------------------------------------------
    # point to point
    # ------------------------------------------------------------------
    def send(self, dest: int, obj: Any, tag: int = 0) -> None:
        """Send ``obj`` to rank ``dest`` (eager, buffered).

        The payload is sized exactly once, here; the resulting
        :class:`Message` carries the cached size for the rest of its
        life.  A send to one's own rank is handed over by reference.
        """
        self._check_peer(dest)
        self.sched.wait_turn(self.rank)
        self._post(dest, obj, tag)

    def _post(self, dest: int, obj: Any, tag: int) -> None:
        """The send itself, once the sender holds the turn."""
        to_self = dest == self.rank
        nbytes = payload_nbytes(obj)
        sender_dt, transit_dt = self.machine.p2p_seconds(
            nbytes, intra_node=to_self or self.machine.same_node(self.rank, dest)
        )
        now = self.sched.now(self.rank)
        if self.sched.injector is not None:
            transit_dt = self.sched.injector.adjust_transit(
                self.rank, dest, now, transit_dt
            )
        self._deliver(dest, tag, Message(obj, now + transit_dt, nbytes), now)
        self._m_p2p_msgs.inc(self.rank, key=(dest, "sent"))
        self._m_p2p_bytes.inc(self.rank, nbytes, key=(dest, "sent"))
        self.sched.advance(self.rank, sender_dt)

    def _deliver(self, dest: int, tag: int, msg: Message, now: float) -> None:
        """Transport hook: make ``msg`` (sent at virtual ``now``)
        receivable by ``dest``, waking ``dest`` if it is blocked on
        this channel."""
        key = (self.rank, dest, tag)
        box = self.world.mailboxes.setdefault(key, deque())
        box.append(msg)
        if dest == self.rank:
            # a rank cannot be blocked receiving from itself while it
            # is running, so there is no waiter to look up or wake
            return
        waiter = self.world.recv_waiters.get(key)
        if waiter is None or box[0].arrival > self.sched.deadline(waiter):
            # (the channel's next message arriving after the receive
            # gives up stays buffered, and the deadline fires)
            return
        del self.world.recv_waiters[key]
        if self.sched.is_blocked(waiter):
            # (a recv_any waiter may already have been woken through a
            # different channel; dropping its registration is enough)
            self.sched.wake(
                waiter, msg.arrival + self.machine.recv_overhead_seconds()
            )

    def _complete(
        self, src: int, arrival: float, nbytes: float, now: float
    ) -> None:
        """Finish a receive, issued at ``now``, of a message that was
        already waiting: it completes at ``max(now, arrival)`` plus the
        receive overhead."""
        self.sched.clocks[self.rank].advance_to(
            max(now, arrival) + self.machine.recv_overhead_seconds()
        )
        self._account_recv(src, nbytes)

    def recv(
        self, source: int, tag: int = 0, timeout: Optional[float] = None
    ) -> Any:
        """Receive the next message from ``source``; blocks if none.

        With a ``timeout`` (or a world default set by an active fault
        plan), a receive whose next message does not arrive within that
        many virtual seconds raises :class:`RankFailedError` (the sender
        crashed) or :class:`CommTimeoutError` (sender alive but silent);
        a message arriving later stays buffered for the next receive.
        """
        self._check_peer(source)
        self.sched.wait_turn(self.rank)
        box = self._inbox(source, tag)
        if box and box[0].arrival <= self._limit(timeout):
            return self._take(source, box)
        return self._wait_recv(source, tag, timeout)

    def _limit(self, timeout: Optional[float]) -> float:
        """The latest arrival a receive issued now can take: a message
        arriving after the receive's deadline leaves it to time out."""
        eff = self._effective_timeout(timeout)
        return float("inf") if eff is None else self.sched.now(self.rank) + eff

    def _take(self, source: int, box: deque) -> Any:
        """Receive the first message already waiting in ``box``."""
        msg = box.popleft()
        self._complete(
            source, msg.arrival, msg.nbytes, self.sched.now(self.rank)
        )
        return msg.obj

    def _wait_recv(
        self, source: int, tag: int, timeout: Optional[float]
    ) -> Any:
        """Block until ``source``'s next message arrives; the sender's
        :meth:`_deliver` advances this rank's clock on wake-up."""
        wait = self._expect(source, tag, timeout)
        timed_out = self.sched.block(self.rank, reason=wait[0], timeout=wait[1])
        return self._woken(source, tag, timed_out, *wait)

    def _expect(
        self, source: int, tag: int, timeout: Optional[float]
    ) -> tuple[str, Optional[float]]:
        """Register as the receiver awaiting ``source``'s next message;
        returns the block's reason and effective timeout."""
        key = (source, self.rank, tag)
        if key in self.world.recv_waiters:
            raise RuntimeMisuseError(
                f"two receivers on mailbox {key} (ranks "
                f"{self.world.recv_waiters[key]} and {self.rank})"
            )
        self.world.recv_waiters[key] = self.rank
        return f"recv(src={source}, tag={tag})", self._effective_timeout(timeout)

    def _woken(
        self,
        source: int,
        tag: int,
        timed_out: bool,
        detail: str,
        eff: Optional[float],
    ) -> Any:
        """Finish a receive that blocked: take the message, or raise
        when the deadline fired first."""
        if timed_out:
            # No message due by the deadline was sent (it would have
            # woken us and cleared it); a later one stays buffered.
            self.world.recv_waiters.pop((source, self.rank, tag), None)
            self._raise_timeout(detail, [source], eff)
        return self._accept(source, tag)

    def _accept(self, source: int, tag: int) -> Any:
        """Take ``source``'s first message after a wake-up: the waker's
        :meth:`_deliver` already advanced this rank's clock past its
        arrival and receive overhead, so only the accounting is left."""
        msg = self._inbox(source, tag).popleft()
        self._account_recv(source, msg.nbytes)
        return msg.obj

    def recv_any(
        self,
        sources: Optional[Sequence[int]] = None,
        tag: int = 0,
        timeout: Optional[float] = None,
    ) -> tuple[int, Any]:
        """Receive the next message from any of ``sources``.

        Returns ``(source, payload)``; blocks until some listed source
        has a deliverable message.  This is the wildcard receive a
        master-worker scheduler needs.
        """
        srcs = list(range(self.nprocs)) if sources is None else list(sources)
        for s in srcs:
            self._check_peer(s)
        self.sched.wait_turn(self.rank)
        src = self._earliest(srcs, tag, self._limit(timeout))
        if src is not None:
            return src, self._take(src, self._inbox(src, tag))
        # register interest on every channel, then block
        keys = []
        for s in srcs:
            key = (s, self.rank, tag)
            if key in self.world.recv_waiters:
                raise RuntimeMisuseError(
                    f"two receivers on mailbox {key}"
                )
            self.world.recv_waiters[key] = self.rank
            keys.append(key)
        detail = f"recv_any(sources={srcs}, tag={tag})"
        eff = self._effective_timeout(timeout)
        timed_out = self.sched.block(self.rank, reason=detail, timeout=eff)
        for key in keys:
            if self.world.recv_waiters.get(key) == self.rank:
                del self.world.recv_waiters[key]
        if timed_out:
            self._raise_timeout(detail, srcs, eff)
        src = self._earliest(srcs, tag, float("inf"))
        assert src is not None, "woken without a deliverable message"
        return src, self._accept(src, tag)

    def _earliest(
        self, srcs: Sequence[int], tag: int, limit: float
    ) -> Optional[int]:
        """The source whose buffered message arrives first among
        ``srcs``, if it arrives by ``limit``."""
        best_src: Optional[int] = None
        best_arrival = 0.0
        for s in srcs:
            box = self._inbox(s, tag)
            if not box:
                continue
            arrival = box[0].arrival
            if best_src is None or arrival < best_arrival:
                best_src, best_arrival = s, arrival
        if best_src is None or best_arrival > limit:
            return None
        return best_src

    def _account_recv(self, src: int, nbytes: float) -> None:
        """Record one delivered message from rank ``src``."""
        self._m_p2p_msgs.inc(self.rank, key=(src, "recv"))
        self._m_p2p_bytes.inc(self.rank, nbytes, key=(src, "recv"))

    def _check_peer(self, peer: int) -> None:
        if not 0 <= peer < self.nprocs:
            raise RuntimeMisuseError(
                f"peer rank {peer} out of range [0, {self.nprocs})"
            )

    # ------------------------------------------------------------------
    # collectives
    # ------------------------------------------------------------------
    def barrier(self) -> None:
        """Synchronize all ranks; everyone leaves at the same time."""
        self._collective("barrier", None, nbytes=0.0)

    def bcast(self, obj: Any = None, root: int = 0, nbytes_hint: Optional[float] = None) -> Any:
        """Broadcast ``obj`` from ``root``; returns the root's object."""
        self._check_peer(root)

        def finish(payloads: list[Any]) -> list[Any]:
            return [payloads[root]] * self.nprocs

        nbytes = payload_nbytes(obj) if self.rank == root else None
        return self._collective(
            "bcast", obj, nbytes=nbytes, finisher=finish,
            nbytes_hint=nbytes_hint, root=root,
        )

    def allreduce(
        self,
        value: Any,
        op: Callable[[Any, Any], Any] = _default_sum,
        nbytes_hint: Optional[float] = None,
    ) -> Any:
        """Reduce values and distribute the result to every rank."""

        def finish(payloads: list[Any]) -> list[Any]:
            acc = payloads[0]
            for v in payloads[1:]:
                acc = op(acc, v)
            if isinstance(acc, np.ndarray):
                return [acc.copy() for _ in range(self.nprocs)]
            return [acc] * self.nprocs

        return self._collective(
            "allreduce", value, finisher=finish, nbytes_hint=nbytes_hint
        )

    def gather(
        self,
        value: Any,
        root: int = 0,
        nbytes_hint: Optional[float] = None,
    ) -> Optional[list[Any]]:
        """Gather one value per rank into a list at ``root``."""
        self._check_peer(root)

        def finish(payloads: list[Any]) -> list[Any]:
            out: list[Any] = [None] * self.nprocs
            out[root] = list(payloads)
            return out

        return self._collective(
            "gather", value, finisher=finish, nbytes_hint=nbytes_hint,
            root=root,
        )

    def allgather(
        self, value: Any, nbytes_hint: Optional[float] = None
    ) -> list[Any]:
        """Gather one value per rank into a list at every rank."""

        def finish(payloads: list[Any]) -> list[Any]:
            return [list(payloads) for _ in range(self.nprocs)]

        return self._collective(
            "allgather", value, finisher=finish, nbytes_hint=nbytes_hint
        )

    def alltoallv(
        self, per_dest: Sequence[Any], nbytes_hint: Optional[float] = None
    ) -> list[Any]:
        """Personalized all-to-all: ``per_dest[d]`` goes to rank ``d``.

        Returns the list ``[from rank 0, from rank 1, ...]`` addressed
        to this rank.  This is the postings-exchange primitive of the
        parallel indexing stage.
        """
        if len(per_dest) != self.nprocs:
            raise RuntimeMisuseError(
                f"alltoallv needs {self.nprocs} buckets, got {len(per_dest)}"
            )

        def finish(payloads: list[Any]) -> list[Any]:
            return [
                [payloads[src][dst] for src in range(self.nprocs)]
                for dst in range(self.nprocs)
            ]

        return self._collective(
            "alltoallv", list(per_dest), finisher=finish, nbytes_hint=nbytes_hint
        )

    def exscan(
        self, value: Any, op: Callable[[Any, Any], Any] = _default_sum
    ) -> Any:
        """Exclusive prefix reduction; rank 0 receives ``None``."""

        def finish(payloads: list[Any]) -> list[Any]:
            out: list[Any] = [None] * self.nprocs
            if self.nprocs > 1:
                running = payloads[0]
                out[1] = running
                for r in range(2, self.nprocs):
                    running = op(running, payloads[r - 1])
                    out[r] = running
            return out

        return self._collective("scan", value, finisher=finish)

    # ------------------------------------------------------------------
    # engine of all collectives
    # ------------------------------------------------------------------
    def _enter(
        self,
        kind: str,
        payload: Any,
        nbytes: Optional[float],
        nbytes_hint: Optional[float],
    ) -> tuple[int, float, Optional[float]]:
        """Arrive at a collective: returns ``(sequence number, arrival
        time, measured size)``.

        Each rank sizes its own payload **exactly once**, here (and not
        at all when a hint is supplied); the completer takes the maximum
        of the cached sizes instead of re-measuring every fan-out leg.
        """
        self.sched.wait_turn(self.rank)
        seq = self._coll_seq
        self._coll_seq += 1
        my_size: Optional[float] = nbytes
        if my_size is None and nbytes_hint is None:
            my_size = float(payload_nbytes(payload))
        self._m_coll_calls.inc(self.rank, key=(kind,))
        self._m_coll_bytes.inc(
            self.rank,
            my_size if my_size is not None else float(nbytes_hint or 0.0),
            key=(kind,),
        )
        return seq, self.sched.now(self.rank), my_size

    def _raise_mismatch(self, kind: str, seq: int, other: str) -> None:
        """Another rank entered collective ``seq`` as ``other``."""
        raise CollectiveMismatchError(
            f"rank {self.rank} called {kind!r} as collective #{seq} "
            f"but another rank called {other!r}"
        )

    def _raise_coll_timeout(self, kind: str, seq: int) -> None:
        """Collective ``seq``'s deadline fired before every rank came."""
        eff = self._effective_timeout(None)
        self._raise_timeout(
            f"{kind} (collective #{seq})", range(self.nprocs), eff
        )

    def _collective(
        self,
        kind: str,
        payload: Any,
        nbytes: Optional[float] = None,
        finisher: Optional[Callable[[list[Any]], list[Any]]] = None,
        nbytes_hint: Optional[float] = None,
        root: Optional[int] = None,
    ) -> Any:
        """Execute one collective; see module docstring for semantics.

        ``nbytes_hint`` lets callers override the modelled message size
        (used by the engine to account for represented-scale payloads).
        ``root`` names the rooted rank of rooted collectives; the
        simulator ignores it (the finisher closure already knows), but
        the mp backend uses it to ship payloads only where they are
        needed.
        """
        seq, now, my_size = self._enter(kind, payload, nbytes, nbytes_hint)
        gate = self.world.gates.get(seq)
        if gate is None:
            gate = self.world.gates[seq] = CollectiveGate(kind, self.nprocs)
        elif gate.kind != kind:
            self._raise_mismatch(kind, seq, gate.kind)
        gate.arrivals[self.rank] = (now, payload, my_size)
        if len(gate.arrivals) < self.nprocs:
            timed_out = self.sched.block(
                self.rank,
                reason=f"{kind} (collective #{seq})",
                timeout=self._effective_timeout(None),
            )
            if timed_out:
                self._raise_coll_timeout(kind, seq)
        else:
            # Last arriver: compute results and completion times.
            payloads = [gate.arrivals[r][1] for r in range(self.nprocs)]
            if finisher is None:
                gate.results = [None] * self.nprocs
            else:
                gate.results = finisher(payloads)
            done = collective_done(
                self.machine, kind, self.nprocs,
                [(t, s) for t, _p, s in gate.arrivals.values()],
                nbytes_hint,
            )
            for r in range(self.nprocs):
                if r != self.rank:
                    self.sched.wake(r, done)
            self.sched.clocks[self.rank].advance_to(done)
        assert gate.results is not None
        result = gate.results[self.rank]
        gate.reads += 1
        if gate.reads == self.nprocs:
            del self.world.gates[seq]
        return result
