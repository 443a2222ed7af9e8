"""Replica placement (consistent hashing) and health state machine."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.replica import (
    DOWN,
    SUSPECT,
    UP,
    ReplicaHealth,
    ReplicaMap,
    stable_hash,
)


class TestStableHash:
    def test_process_stable(self):
        # blake2b, not the salted builtin hash: pinned values survive
        # interpreter restarts and PYTHONHASHSEED changes
        assert stable_hash("0/shard-0") == stable_hash("0/shard-0")
        assert stable_hash("a") != stable_hash("b")
        assert 0 <= stable_hash("anything") < 2**64

    def test_pinned_value(self):
        import hashlib

        expect = int.from_bytes(
            hashlib.blake2b(b"0/worker-3/vnode-7", digest_size=8).digest(),
            "big",
        )
        assert stable_hash("0/worker-3/vnode-7") == expect


class TestPlacement:
    def test_replica_count_and_distinct(self):
        m = ReplicaMap.place(8, 3, 6)
        assert m.nshards == 8
        for s in range(8):
            owners = m.workers_for(s)
            assert len(owners) == 3
            assert len(set(owners)) == 3
            assert all(w in m.workers for w in owners)

    def test_deterministic(self):
        a = ReplicaMap.place(16, 2, 8, vnodes=16, seed=3)
        b = ReplicaMap.place(16, 2, 8, vnodes=16, seed=3)
        assert a == b

    def test_seed_changes_placement(self):
        a = ReplicaMap.place(16, 2, 8, seed=0)
        b = ReplicaMap.place(16, 2, 8, seed=1)
        assert a.assignments != b.assignments

    def test_count_equals_explicit_ids(self):
        assert ReplicaMap.place(8, 2, 4) == ReplicaMap.place(
            8, 2, (0, 1, 2, 3)
        )

    def test_to_dict_json_clean(self):
        m = ReplicaMap.place(4, 2, 3)
        d = json.loads(json.dumps(m.to_dict()))
        assert d["nshards"] == 4
        assert d["replicas"] == 2
        assert len(d["assignments"]) == 4

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(nshards=4, replicas=0, workers=2),
            dict(nshards=4, replicas=3, workers=2),
            dict(nshards=4, replicas=1, workers=()),
            dict(nshards=4, replicas=1, workers=(1, 1)),
            dict(nshards=4, replicas=1, workers=2, vnodes=0),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ReplicaMap.place(**kwargs)


# worker-id universes for the membership-change properties
_WORKER_IDS = st.lists(
    st.integers(min_value=0, max_value=63),
    min_size=2,
    max_size=10,
    unique=True,
).map(tuple)


@settings(max_examples=60, deadline=None)
@given(
    workers=_WORKER_IDS,
    nshards=st.integers(min_value=1, max_value=24),
    replicas=st.integers(min_value=1, max_value=3),
    data=st.data(),
)
def test_remove_one_worker_minimal_remap(workers, nshards, replicas, data):
    """Dropping a worker only reassigns the slots that worker held."""
    replicas = min(replicas, len(workers) - 1)
    removed = data.draw(st.sampled_from(workers))
    kept = tuple(w for w in workers if w != removed)
    before = ReplicaMap.place(nshards, replicas, workers)
    after = ReplicaMap.place(nshards, replicas, kept)
    for s in range(nshards):
        old, new = before.workers_for(s), after.workers_for(s)
        # only the removed worker's slots may change hands
        assert set(old) - set(new) <= {removed}
        if removed not in old:
            assert old == new  # untouched shards are byte-identical
        else:
            # survivors keep their slots, in ring order
            survivors = tuple(w for w in old if w != removed)
            assert tuple(w for w in new if w in set(survivors)) == survivors


@settings(max_examples=60, deadline=None)
@given(
    workers=_WORKER_IDS,
    nshards=st.integers(min_value=1, max_value=24),
    replicas=st.integers(min_value=1, max_value=3),
    added=st.integers(min_value=64, max_value=80),
)
def test_add_one_worker_minimal_remap(workers, nshards, replicas, added):
    """Adding a worker only steals slots it now reaches first."""
    replicas = min(replicas, len(workers))
    before = ReplicaMap.place(nshards, replicas, workers)
    after = ReplicaMap.place(nshards, replicas, workers + (added,))
    for s in range(nshards):
        old, new = before.workers_for(s), after.workers_for(s)
        assert set(new) - set(old) <= {added}
        if added not in new:
            assert old == new


def test_placement_identical_across_schedulers(tmp_path):
    """Placement is scheduler- and hash-seed-independent.

    The map must be a pure function of its arguments: the same
    assignments under the fast-path and slow-path schedulers and under
    different ``PYTHONHASHSEED`` values (a salted-``hash`` leak would
    break here).
    """
    script = (
        "import json\n"
        "from repro.serve.replica import ReplicaMap\n"
        "m = ReplicaMap.place(16, 2, 8, vnodes=16, seed=5)\n"
        "print(json.dumps(m.to_dict(), sort_keys=True))\n"
    )
    outs = []
    for hashseed, slowpath in (("0", ""), ("12345", ""), ("0", "1")):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        if slowpath:
            env["REPRO_SCHED_SLOWPATH"] = slowpath
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path("src").resolve())]
            + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        outs.append(proc.stdout)
    assert outs[0] == outs[1] == outs[2]


class TestReplicaHealth:
    def test_default_up(self):
        h = ReplicaHealth()
        assert h.state(0, now=0.0) == UP
        assert not h.is_down(0)

    def test_suspicion_expires(self):
        h = ReplicaHealth(probation_s=5.0)
        h.mark_suspect(1, now=10.0)
        assert h.state(1, now=10.0) == SUSPECT
        assert h.state(1, now=14.9) == SUSPECT
        assert h.state(1, now=15.0) == UP
        assert h.suspicions == 1

    def test_down_is_permanent(self):
        h = ReplicaHealth()
        h.mark_down(2)
        assert h.state(2, now=0.0) == DOWN
        assert h.state(2, now=1e9) == DOWN
        h.mark_suspect(2, now=0.0)  # no-op on a downed worker
        assert h.state(2, now=0.0) == DOWN
        assert h.suspicions == 0
        h.mark_down(2)  # idempotent
        assert h.downs == 1

    def test_preference_orders_states(self):
        h = ReplicaHealth(probation_s=10.0)
        h.mark_suspect(1, now=0.0)
        h.mark_down(2)
        # ring order (3, 1, 2, 0): UP workers first in ring order,
        # then SUSPECT, DOWN dropped
        assert h.preference((3, 1, 2, 0), now=0.0) == [3, 0, 1]
        # after probation the suspect rejoins UP in ring position
        assert h.preference((3, 1, 2, 0), now=20.0) == [3, 1, 0]

    def test_snapshot_lists_touched_workers_only(self):
        h = ReplicaHealth(probation_s=10.0)
        h.mark_suspect(1, now=0.0)
        h.mark_down(4)
        assert h.snapshot(now=0.0) == {
            "up": [],
            "suspect": [1],
            "down": [4],
        }
        assert h.snapshot(now=50.0) == {
            "up": [1],
            "suspect": [],
            "down": [4],
        }
