"""Service ranks: ranks that only react to messages.

A shard server does nothing of its own accord: it receives a request,
runs a kernel, and sends the reply.  The paper's runtime serves its
distributed term hashmap the same way, with ARMCI active messages whose
handler runs at the target without a target thread (modelled here by
:meth:`~repro.runtime.context.RankContext.rpc`).  A :class:`Service`
declares such a rank: where it receives from, and the handler
``handler(src, msg) -> replies`` that answers each message.

How a service rank executes depends on the scheduler mechanism, never
what it does in virtual time:

* under the default (fast-path) simulator a service rank has no thread.
  When the min-clock rule grants it the turn, the thread that granted
  the turn runs the rank's next step itself (:class:`InlineService`),
  at the same virtual instant, with the same charges and send costs;
* under ``REPRO_SCHED_SLOWPATH=1`` and under the mp backend the same
  handler runs in :func:`run_service`, a blocking receive -> handler ->
  send loop on a thread (or process) of its own.  That loop is the
  reference the inline mechanism is held to, counter by counter.

Both make the same turns in the same order: the initial turn, one per
receive (plus the block when nothing is waiting) and one per reply
sent, with the fault injector's turn hook at each.  A handler may
charge virtual time but must not reach a synchronization point: that
raises :class:`~repro.runtime.errors.RuntimeMisuseError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional, Sequence

#: one reply a handler asks to send: ``(dest, payload, tag)``
Reply = tuple[int, Any, int]
#: ``handler(src, msg)``: the replies to send, or ``None`` to stop
Handler = Callable[[int, Any], Optional[Sequence[Reply]]]

#: what :meth:`InlineService.step` returns when the rank yields the turn
#: at its clock (the ``wait_turn`` of its next receive or send)
YIELD = "yield"


@dataclass(frozen=True)
class Service:
    """A rank that answers messages from ``source`` on ``tag``.

    ``make(ctx)`` builds the rank's handler on its first turn.  The
    handler returns the replies to send, in order, or ``None`` to stop
    serving; the rank's result is the number of messages it answered.
    """

    make: Callable[[Any], Handler]
    source: int = 0
    tag: int = 0


def _handle(ctx, handler: Handler, src: int, msg: Any):
    """One handler call, with every synchronization point fenced off."""
    sched = ctx.sched
    sched.handling = ctx.rank
    try:
        return handler(src, msg)
    finally:
        sched.handling = None


def serve_loop(
    ctx, handler: Handler, requests: Iterable[tuple[int, Any]]
) -> int:
    """Answer ``(src, msg)`` requests until one is answered with
    ``None`` or the requests run out; returns how many were answered.

    The blocking loop: each reply goes out through ``ctx.comm.send``.
    """
    served = 0
    for src, msg in requests:
        replies = _handle(ctx, handler, src, msg)
        if replies is None:
            break
        for dest, obj, tag in replies:
            ctx.comm.send(dest, obj, tag=tag)
        served += 1
    return served


def run_service(ctx, service: Service) -> int:
    """A service rank on a thread or process of its own."""
    handler = service.make(ctx)
    src, tag = service.source, service.tag

    def requests():
        while True:
            yield src, ctx.comm.recv(src, tag=tag)

    return serve_loop(ctx, handler, requests())


class InlineService:
    """A service rank without a thread: one :meth:`step` per turn.

    The scheduler calls :meth:`step` on whichever thread granted the
    rank the turn.  A step runs until the rank's next synchronization
    point and says what it is: :data:`YIELD` (a ``wait_turn``), a
    ``(reason, timeout)`` block on an empty mailbox, or ``None`` when
    the handler stopped the service.  A crash fault or a handler error
    propagates out of the step for the scheduler to record.  Each step
    mirrors a stretch of :func:`run_service` between two of its turns.
    """

    def __init__(self, ctx, service: Service):
        self.ctx = ctx
        self.service = service
        self.handler: Optional[Handler] = None
        #: whether the next grant ends a block (the scheduler then
        #: accounts the block and passes its timeout flag)
        self.blocked = False
        #: messages answered; the rank's result once it stops
        self.served = 0
        self.result: Optional[int] = None
        self._replies: Sequence[Reply] = ()
        self._sent = 0
        self._wait: tuple = ()
        # the next step as a plain function: a bound method here would
        # be a reference cycle keeping the handler alive after the run
        self._next = InlineService._start

    def step(self, timed_out: bool = False):
        """Run from the granted turn to the next synchronization point."""
        return self._next(self, timed_out)

    def _turn(self) -> None:
        """The turn hook ``wait_turn`` runs once the turn is held."""
        inj = self.ctx.sched.injector
        if inj is not None:
            inj.on_turn(self.ctx.rank, self.ctx.now)

    def _start(self, _timed_out: bool):
        self._turn()
        self.handler = self.service.make(self.ctx)
        self.ctx.comm._check_peer(self.service.source)
        self._next = InlineService._recv
        return YIELD

    def _recv(self, _timed_out: bool):
        self._turn()
        comm, src, tag = self.ctx.comm, self.service.source, self.service.tag
        box = comm._inbox(src, tag)
        if box and box[0].arrival <= comm._limit(None):
            return self._answer(comm._take(src, box))
        self._wait = comm._expect(src, tag, None)
        self.blocked = True
        self._next = InlineService._woken
        return self._wait

    def _woken(self, timed_out: bool):
        self.blocked = False
        comm, src, tag = self.ctx.comm, self.service.source, self.service.tag
        return self._answer(comm._woken(src, tag, timed_out, *self._wait))

    def _answer(self, msg: Any):
        replies = _handle(self.ctx, self.handler, self.service.source, msg)
        if replies is None:
            self.result = self.served
            return None
        self._replies, self._sent = replies, 0
        return self._after_send()

    def _after_send(self):
        if self._sent < len(self._replies):
            self.ctx.comm._check_peer(self._replies[self._sent][0])
            self._next = InlineService._send
        else:
            self._replies = ()
            self.served += 1
            self._next = InlineService._recv
        return YIELD

    def _send(self, _timed_out: bool):
        self._turn()
        dest, obj, tag = self._replies[self._sent]
        self._sent += 1
        self.ctx.comm._post(dest, obj, tag)
        return self._after_send()
