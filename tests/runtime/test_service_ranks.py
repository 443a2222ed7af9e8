"""Service ranks: thread-less inline steps vs the threaded reference.

A service rank answers messages through a handler and has no program
of its own.  Under the default scheduler it runs inline on whichever
thread grants it the turn; under ``REPRO_SCHED_SLOWPATH=1`` (and the
mp backend) the same handler runs in a blocking receive -> handler ->
send loop on its own thread (process).  Both must produce the same
results, virtual times, blocked times and metrics -- under fault
plans too.
"""

import gc
import json
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.datasets.pubmed import generate_pubmed
from repro.engine.config import EngineConfig
from repro.engine.serial import SerialTextEngine
from repro.runtime import (
    Cluster,
    CommTimeoutError,
    CrashFault,
    FaultPlan,
    MessageDelayFault,
    RankFailedError,
    RuntimeMisuseError,
    StragglerFault,
)
from repro.runtime.scheduler import SLOWPATH_ENV
from repro.runtime.service import Service
from repro.serve import Query, build_shards, serve
from repro.serve.workload import ClientScript

REQ, RESP = 7, 8
NPROCS = 4  # rank 0 drives, ranks 1..3 echo


def _echo(ctx):
    """Echo each request back, twice for even payloads."""

    def handler(src, msg):
        if msg == "stop":
            return None
        ctx.charge_cpu(1_000 * (1 + ctx.rank) * (1 + msg % 3))
        ctx.metrics.counter("echo.handled").inc(ctx.rank)
        replies = [(src, (ctx.rank, msg), RESP)]
        if msg % 2 == 0:
            replies.append((src, (ctx.rank, -msg), RESP))
        return replies

    return handler


def _client(ctx, rounds=6, think=0.0, sorted_recv=False, timeout=None):
    """Fan requests out, gather every reply; dead or silent services
    are noted and skipped (``timeout`` bounds each wait)."""
    got, timeouts, dead = [], 0, set()
    for i in range(rounds):
        ctx.charge(think * i)
        live = [r for r in range(1, NPROCS) if r not in dead]
        for r in live:
            ctx.comm.send(r, i * NPROCS + r, tag=REQ)
        expect = {r: 2 if (i * NPROCS + r) % 2 == 0 else 1 for r in live}
        while expect:
            try:
                if sorted_recv:
                    src = min(expect)
                    msg = ctx.comm.recv(src, tag=RESP, timeout=timeout)
                else:
                    src, msg = ctx.comm.recv_any(
                        sorted(expect), tag=RESP, timeout=timeout
                    )
            except RankFailedError as exc:
                dead.update(exc.failed)
                expect = {r: n for r, n in expect.items() if r not in dead}
                continue
            except CommTimeoutError:
                timeouts += 1
                break
            got.append((src, msg, ctx.now))
            expect[src] -= 1
            if not expect[src]:
                del expect[src]
    for r in range(1, NPROCS):
        if r not in dead:
            ctx.comm.send(r, "stop", tag=REQ)
    return got, timeouts, sorted(dead)


SERVICES = {r: Service(_echo, source=0, tag=REQ) for r in range(1, NPROCS)}


def _scheduler(monkeypatch, slowpath):
    if slowpath:
        monkeypatch.setenv(SLOWPATH_ENV, "1")
    else:
        monkeypatch.delenv(SLOWPATH_ENV, raising=False)


def _run(monkeypatch, slowpath, faults=None, backend="sim", **kw):
    _scheduler(monkeypatch, slowpath)
    cluster = Cluster(NPROCS, faults=faults, backend=backend)
    return cluster.run(
        _client, services=SERVICES, raise_on_failure=False, **kw
    )


def _fingerprint(res):
    return {
        "results": res.rank_results,
        "times": res.rank_times.tolist(),
        "blocked": res.blocked_times.tolist(),
        "failed": res.failed_ranks,
        "metrics": json.dumps(res.metrics.snapshot(), sort_keys=True),
    }


def _same_inline_and_threaded(monkeypatch, faults=None, **kw):
    inline = _run(monkeypatch, False, faults, **kw)
    threaded = _run(monkeypatch, True, faults, **kw)
    assert _fingerprint(inline) == _fingerprint(threaded)
    return inline


def test_echo_inline_equals_threaded(monkeypatch):
    res = _same_inline_and_threaded(monkeypatch)
    got, timeouts, dead = res.rank_results[0]
    assert len(got) == sum(
        2 if (i * NPROCS + r) % 2 == 0 else 1
        for i in range(6)
        for r in range(1, NPROCS)
    )
    assert (timeouts, dead) == (0, [])
    # a service rank's result is the number of messages it answered
    assert res.rank_results[1:] == [6, 6, 6]
    assert res.blocked_times[1:].min() > 0.0


def test_echo_under_mp_equals_sim(monkeypatch):
    sim = _run(monkeypatch, False, sorted_recv=True)
    mp = _run(monkeypatch, False, backend="mp", sorted_recv=True)
    assert mp.rank_results == sim.rank_results
    assert np.array_equal(mp.rank_times, sim.rank_times)


def test_crash_on_a_service_rank(monkeypatch):
    # the client notices well before the idle services' own deadlines
    plan = FaultPlan(faults=(CrashFault(rank=2, at_call=4),), comm_timeout_s=1.0)
    res = _same_inline_and_threaded(monkeypatch, plan, timeout=0.1)
    assert res.failed_ranks == [2]
    assert res.rank_results[2] is None
    assert res.rank_results[0][2] == [2]


def test_straggler_service(monkeypatch):
    plan = FaultPlan(faults=(StragglerFault(rank=3, factor=8.0),))
    res = _same_inline_and_threaded(monkeypatch, plan)
    fault_free = _run(monkeypatch, False)
    assert res.rank_times[3] > fault_free.rank_times[3]


def test_client_deadline_on_a_slow_service(monkeypatch):
    plan = FaultPlan(
        faults=(StragglerFault(rank=3, factor=2e3),), comm_timeout_s=1.0
    )
    res = _same_inline_and_threaded(monkeypatch, plan, timeout=0.01)
    assert res.rank_results[0][1] > 0
    assert res.failed_ranks == []


@pytest.mark.parametrize("slowpath", [False, True])
def test_service_deadline_fails_the_run(monkeypatch, slowpath):
    plan = FaultPlan(comm_timeout_s=0.05)
    with pytest.raises(CommTimeoutError) as exc:
        _run(monkeypatch, slowpath, plan, think=0.1)
    assert exc.value.rank in SERVICES


@pytest.mark.parametrize("slowpath", [False, True])
@pytest.mark.parametrize("buffered", [False, True], ids=["blocked", "buffered"])
def test_service_deadline_beats_a_late_request(monkeypatch, slowpath, buffered):
    """A request that arrives after the service's receive deadline
    times the service out, inline and threaded alike -- whether the
    service waits for it or, still busy with the previous request,
    finds it buffered."""

    def make(ctx):
        def handler(src, msg):
            if msg == "stop":
                return None
            ctx.charge(2.0 if buffered else 0.0)
            return []

        return handler

    def client(ctx):
        ctx.comm.send(1, "on time", tag=REQ)
        ctx.charge(0.0 if buffered else 0.5)
        ctx.comm.send(1, "late", tag=REQ)
        ctx.comm.send(1, "stop", tag=REQ)

    _scheduler(monkeypatch, slowpath)
    # every request but the one sent at t=0 arrives 5 s late
    late = MessageDelayFault(extra_s=5.0, src=0, dst=1, t_start=1e-9)
    plan = FaultPlan(faults=(late,), comm_timeout_s=1.0)
    with pytest.raises(CommTimeoutError) as exc:
        Cluster(2, faults=plan).run(
            client, services={1: Service(make, tag=REQ)}
        )
    assert exc.value.rank == 1


@pytest.mark.parametrize("slowpath", [False, True])
def test_handler_reaching_a_sync_point_is_misuse(monkeypatch, slowpath):
    def make(ctx):
        def handler(src, msg):
            ctx.sync()
            return []

        return handler

    _scheduler(monkeypatch, slowpath)

    def client(ctx):
        ctx.comm.send(1, "go", tag=REQ)
        ctx.comm.recv(1, tag=RESP)

    with pytest.raises(RuntimeError) as exc:
        Cluster(2).run(client, services={1: Service(make, tag=REQ)})
    assert isinstance(exc.value.__cause__, RuntimeMisuseError)


def _clients_and_services(ctx, rounds=40):
    """Ranks 0..2 are clients; each owns the services ``r`` with
    ``r % 3 == ctx.rank``, among ranks 3..8."""
    mine = [r for r in range(3, 9) if r % 3 == ctx.rank]
    got = []
    for i in range(rounds):
        for r in mine:
            ctx.comm.send(r, i + r, tag=REQ)
        for r in mine:
            for _ in range(2 if (i + r) % 2 == 0 else 1):
                got.append((ctx.comm.recv(r, tag=RESP), ctx.now))
        ctx.charge(1e-6 * ctx.rank)
    for r in mine:
        ctx.comm.send(r, "stop", tag=REQ)
    return got


def test_many_threads_stepping_services(monkeypatch):
    """Three client threads, six services, a short switch interval:
    every interleaving of the real threads must give the threaded
    reference's run."""
    services = {r: Service(_echo, source=r % 3, tag=REQ) for r in range(3, 9)}
    runs = {}

    def run(slowpath):
        _scheduler(monkeypatch, slowpath)
        res = Cluster(9).run(_clients_and_services, services=services)
        runs[slowpath] = _fingerprint(res)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for slowpath in (False, True):
            worker = threading.Thread(target=run, args=(slowpath,))
            worker.start()
            worker.join(timeout=120)
            assert not worker.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert runs[False] == runs[True]


def test_every_rank_a_service_is_refused():
    with pytest.raises(ValueError):
        Cluster(2).run(_client, services={0: SERVICES[1], 1: SERVICES[1]})


@pytest.mark.parametrize("slowpath", [False, True])
def test_handler_dies_with_the_run(monkeypatch, slowpath):
    _scheduler(monkeypatch, slowpath)
    refs = []

    def make(ctx):
        handler = _echo(ctx)
        refs.append(weakref.ref(handler))
        return handler

    services = {r: Service(make, tag=REQ) for r in range(1, NPROCS)}
    gc.disable()
    try:
        Cluster(NPROCS).run(_client, services=services)
        assert refs and all(ref() is None for ref in refs)
    finally:
        gc.enable()


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    corpus = generate_pubmed(30_000, seed=2, n_themes=3)
    result = SerialTextEngine(
        EngineConfig(n_major_terms=100, n_clusters=3, chunk_docs=8)
    ).run(corpus)
    out = tmp_path_factory.mktemp("svc") / "store"
    build_shards(result, out, 3)
    return out


def test_serve_runs_one_rank_thread(store, monkeypatch):
    _scheduler(monkeypatch, False)
    started = []
    start = threading.Thread.start

    def recording(self):
        started.append(self.name)
        return start(self)

    monkeypatch.setattr(threading.Thread, "start", recording)
    script = ClientScript(
        client=0,
        queries=(Query("cluster", cluster=0), Query("cluster", cluster=1)),
        think_s=(0.0, 0.0),
    )
    report = serve(store, [script])
    assert report.served == 2
    assert [n for n in started if n.startswith("repro-rank-")] == [
        "repro-rank-0"
    ]
    assert not [
        t for t in threading.enumerate() if t.name.startswith("repro-rank-")
    ]
