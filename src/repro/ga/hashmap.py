"""Distributed hashmap for the global vocabulary.

The paper deploys ARMCI remote procedure calls to implement a scalable
distributed hashmap: each unique term discovered during scanning is
hashed to an owner rank and inserted there, receiving a globally unique
term ID.  We reproduce exactly that structure:

* ownership: ``crc32(term) % nprocs`` (deterministic across runs,
  unlike Python's salted ``hash``);
* IDs: owner ``o`` hands out ``count * nprocs + o`` -- globally unique
  without any coordination, like a strided ID block per owner;
* cost: a local insert costs a dictionary operation; a remote insert
  costs one RPC round-trip.  Ranks are expected to keep a local cache
  (the scanner does) so each unique term is inserted once.
"""

from __future__ import annotations

import zlib
from typing import Any, Callable

from repro.runtime.context import RankContext
from repro.runtime.errors import TransientRpcError


def term_owner(term: str, nprocs: int) -> int:
    """Deterministic owner rank of a term."""
    return zlib.crc32(term.encode("utf-8")) % nprocs


#: retry policy for transiently-failing insert RPCs: attempts and the
#: initial virtual-seconds backoff (doubles per retry)
RPC_RETRIES = 4
RPC_BACKOFF_S = 2e-4


class _OwnerState:
    """One rank's shard of the hashmap."""

    __slots__ = ("table", "next_local")

    def __init__(self) -> None:
        self.table: dict[str, int] = {}
        self.next_local = 0


class GlobalHashMap:
    """Distributed term -> global-ID map with RPC-style inserts."""

    def __init__(self, ctx: RankContext, name: str, shards: list[_OwnerState]):
        self._ctx = ctx
        self.name = name
        self.nprocs = ctx.nprocs
        self._shards = shards
        self._m_ops = ctx.metrics.counter("hashmap.ops", ("map", "locality"))
        self._m_retries = ctx.metrics.counter("hashmap.rpc_retries", ("map",))

    def _record_op(self, owner: int) -> None:
        """Count one map operation as local or remote to its owner."""
        locality = "local" if owner == self._ctx.rank else "remote"
        self._m_ops.inc(self._ctx.rank, key=(self.name, locality))

    @classmethod
    def create(cls, ctx: RankContext, name: str) -> "GlobalHashMap":
        """Collectively create a named hashmap (all ranks call)."""
        key = f"hashmap:{name}"
        ctx.comm.barrier()
        ctx.sched.wait_turn(ctx.rank)
        shards = ctx.world.shared_state(
            key, lambda: [_OwnerState() for _ in range(ctx.nprocs)]
        )
        return cls(ctx, name, shards)

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def owner_of(self, term: str) -> int:
        return term_owner(term, self.nprocs)

    def _rpc_with_retry(
        self,
        owner: int,
        handler: Callable[..., Any],
        nbytes_out: float,
        nbytes_in: float,
    ) -> Any:
        """Issue an RPC, retrying transient flakes with backoff.

        Hashmap inserts are idempotent (get-or-insert), so re-issuing
        a flaked call is safe.  Each retry waits an exponentially
        growing virtual-time backoff before re-sending; the transient
        error propagates only once the budget is exhausted.
        """
        backoff = RPC_BACKOFF_S
        for attempt in range(RPC_RETRIES + 1):
            try:
                return self._ctx.rpc(
                    owner, handler, nbytes_out=nbytes_out, nbytes_in=nbytes_in
                )
            except TransientRpcError:
                self._m_retries.inc(self._ctx.rank, key=(self.name,))
                if attempt == RPC_RETRIES:
                    raise
                self._ctx.charge(backoff)
                backoff *= 2.0

    def get_or_insert(self, term: str) -> int:
        """Insert ``term`` if absent; return its global ID either way."""
        owner = self.owner_of(term)
        shard = self._shards[owner]

        def handler() -> int:
            gid = shard.table.get(term)
            if gid is None:
                gid = shard.next_local * self.nprocs + owner
                shard.table[term] = gid
                shard.next_local += 1
            return gid

        nbytes = 16.0 + len(term)
        self._record_op(owner)
        gid = self._rpc_with_retry(
            owner, handler, nbytes_out=nbytes, nbytes_in=16.0
        )
        if owner != self._ctx.rank:
            self._ctx.world.post_hashmap_sideband(self.name, owner, [term])
        return gid

    def get_or_insert_batch(self, terms: list[str]) -> dict[str, int]:
        """Insert many terms with one aggregated RPC per owner rank.

        ARMCI (the Aggregate Remote Memory Copy Interface) supports
        aggregating small operations into one network transaction; the
        scanner uses this to register each of its unique terms exactly
        once without paying a round-trip per term.
        """
        by_owner: dict[int, list[str]] = {}
        for t in terms:
            by_owner.setdefault(self.owner_of(t), []).append(t)
        out: dict[str, int] = {}
        for owner in sorted(by_owner):
            batch = by_owner[owner]
            shard = self._shards[owner]

            def handler(batch=batch, shard=shard, owner=owner) -> list[int]:
                gids = []
                for term in batch:
                    gid = shard.table.get(term)
                    if gid is None:
                        gid = shard.next_local * self.nprocs + owner
                        shard.table[term] = gid
                        shard.next_local += 1
                    gids.append(gid)
                return gids

            nbytes = sum(len(t) for t in batch) + 16.0 * len(batch)
            self._record_op(owner)
            gids = self._rpc_with_retry(
                owner, handler, nbytes_out=nbytes, nbytes_in=8.0 * len(batch)
            )
            # aggregate op still pays per-element handler work
            self._ctx.charge(
                self._ctx.machine.rpc_handler_cost_s * max(0, len(batch) - 1)
            )
            if owner != self._ctx.rank:
                # under the mp backend the handler above ran against a
                # process-local replica of the owner's shard; replicate
                # the inserted terms to the owner's process so its
                # local_items() is complete before finalization
                self._ctx.world.post_hashmap_sideband(self.name, owner, batch)
            out.update(zip(batch, gids))
        return out

    def restore_terms(self, terms) -> int:
        """Re-register checkpointed vocabulary terms owned by this rank.

        Checkpoint restore path: every rank filters the saved global
        term list down to its own shard and re-inserts locally (no
        RPCs).  Insertion in sorted order keeps provisional IDs
        deterministic; the dense IDs are re-derived later by
        vocabulary finalization, so they stay consistent even when the
        restart runs with fewer ranks than the checkpointing run.
        Returns the number of terms restored, for cost charging.
        """
        rank = self._ctx.rank
        shard = self._shards[rank]
        mine = sorted(t for t in terms if self.owner_of(t) == rank)
        for term in mine:
            if term not in shard.table:
                shard.table[term] = shard.next_local * self.nprocs + rank
                shard.next_local += 1
        return len(mine)

    def local_items(self) -> list[tuple[str, int]]:
        """(term, gid) pairs owned by the calling rank (no comm cost)."""
        return list(self._shards[self._ctx.rank].table.items())

    def local_size(self) -> int:
        return len(self._shards[self._ctx.rank].table)

    def global_size(self) -> int:
        """Collective: total number of unique terms."""
        return self._ctx.comm.allreduce(self.local_size())
