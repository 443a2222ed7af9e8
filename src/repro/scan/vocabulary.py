"""Vocabulary finalization: provisional hashmap IDs -> dense global IDs.

During scanning, ranks register unique terms in the distributed
hashmap, which hands out provisional (strided) IDs on demand.  Once the
forward-indexing phase completes ("at the end of forward indexing
phase, the hashmap construction will be completed and all the unique
terms will have a unique global ID" -- §3.2), the vocabulary is
*finalized*: every owner sorts its terms and assigns dense consecutive
IDs within a contiguous per-owner block.

This step buys two things:

* term statistics become plain arrays with contiguous per-owner row
  blocks (an :class:`~repro.ga.IrregularBlockDistribution`), exactly
  the "global array storing term statistics" of §3.3;
* the assignment is independent of scan-time insertion order, so any
  processor count yields the same deterministic vocabulary layout.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ga.distribution import IrregularBlockDistribution
from repro.ga.hashmap import GlobalHashMap
from repro.runtime.context import RankContext
from repro.runtime.machine import Scale


@dataclass
class VocabMap:
    """Finalized vocabulary shared by every rank."""

    #: term -> dense global ID (replicated)
    term_to_gid: dict[str, int]
    #: dense global ID -> term (replicated)
    gid_to_term: list[str]
    #: per-owner row blocks of the dense ID space
    dist: IrregularBlockDistribution

    @property
    def size(self) -> int:
        return len(self.gid_to_term)


def finalize_vocabulary(ctx: RankContext, hashmap: GlobalHashMap) -> VocabMap:
    """Collectively assign dense global IDs (all ranks call).

    Each owner sorts its shard's terms; dense IDs are the position in
    the concatenation of the sorted shards in rank order.  The full
    term table is replicated via allgather (the paper keeps the
    vocabulary globally accessible in global arrays).
    """
    mine = sorted(t for t, _ in hashmap.local_items())
    ctx.charge_cpu(len(mine) * 20, Scale.VOCAB)  # local sort
    vocab_factor = ctx.machine.scaled(1.0, Scale.VOCAB)
    shard_nbytes = sum(len(t) + 8 for t in mine) + 16
    shards = ctx.comm.allgather(mine, nbytes_hint=shard_nbytes * vocab_factor)
    counts = [len(s) for s in shards]
    dist = IrregularBlockDistribution.from_counts(counts)
    gid_to_term: list[str] = []
    for shard in shards:
        gid_to_term.extend(shard)
    term_to_gid = {t: i for i, t in enumerate(gid_to_term)}
    ctx.charge_cpu(len(gid_to_term) * 4, Scale.VOCAB)  # table build
    return VocabMap(
        term_to_gid=term_to_gid, gid_to_term=gid_to_term, dist=dist
    )


def finalize_vocabulary_serial(terms: list[str]) -> VocabMap:
    """Single-process equivalent used by the serial engine."""
    ordered = sorted(set(terms))
    dist = IrregularBlockDistribution.from_counts([len(ordered)])
    return VocabMap(
        term_to_gid={t: i for i, t in enumerate(ordered)},
        gid_to_term=list(ordered),
        dist=dist,
    )
