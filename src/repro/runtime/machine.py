"""Cost model for the simulated cluster.

:class:`MachineSpec` collects every calibration constant in one place.
The defaults emulate the platform the paper used -- a Linux cluster of
dual 1.5 GHz Itanium-2 nodes with an InfiniBand interconnect and a
shared parallel filesystem -- at the granularity that matters for the
reproduced experiments: per-byte scan cost, per-posting inversion cost,
LogGP-style network parameters, shared-filesystem bandwidth caps, and a
memory-pressure model for working sets that exceed a node's share.

Workload scaling
----------------
The paper processes multi-gigabyte corpora; this reproduction generates
megabyte-scale synthetic corpora and lets one generated byte stand for
``workload_scale`` real bytes.  Quantities that grow linearly with the
corpus (byte streams, token streams, postings, documents) are scaled by
``workload_scale``; vocabulary-like quantities (unique terms, term
statistics, topic lists) grow sublinearly per Heaps' law and are scaled
by ``workload_scale ** vocab_scale_beta``.  Callers tag each charge with
a :class:`Scale` so the model applies the right factor.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace


class Scale(enum.Enum):
    """How a work quantity grows with the represented corpus size."""

    #: Linear in corpus bytes: byte/token streams, postings, documents.
    STREAM = "stream"
    #: Sublinear (Heaps' law): unique terms, vocabulary-sized tables.
    VOCAB = "vocab"
    #: Independent of corpus size: fixed-size model artifacts.
    FIXED = "fixed"


#: Collective operation names understood by :meth:`MachineSpec.collective_seconds`.
COLLECTIVE_KINDS = (
    "barrier",
    "bcast",
    "allreduce",
    "gather",
    "allgather",
    "alltoallv",
    "scan",
)


@dataclass(frozen=True)
class MachineSpec:
    """Calibration constants for the simulated cluster.

    All times are seconds, all sizes bytes, all rates per second.
    """

    name: str = "itanium-infiniband"

    # --- node layout -------------------------------------------------
    #: MPI ranks co-located per physical node (paper: dual-CPU nodes).
    ranks_per_node: int = 2
    #: Physical memory per node available to the engine.
    node_mem_bytes: float = 1.0e10

    # --- compute -----------------------------------------------------
    #: Generic scalar operations per second (loop iterations, compares).
    cpu_ops_per_s: float = 2.0e8
    #: Floating point operations per second (vectorized numeric work).
    flops_per_s: float = 4.0e8
    #: Main-memory copy bandwidth.
    mem_bw_bytes_per_s: float = 1.5e9
    #: Tokenization/scanning throughput of one rank, bytes/second.
    scan_bytes_per_s: float = 5.0e6
    #: Extra per-token cost during scanning (local vocab-cache lookup).
    token_cost_s: float = 1.0e-6
    #: Local-dictionary insert cost for a newly seen unique term.
    unique_term_cost_s: float = 2.0e-6
    #: Cost to move one posting during inverted-file indexing.
    posting_invert_cost_s: float = 1.2e-6

    # --- network (LogGP-ish) -----------------------------------------
    #: End-to-end small-message latency (L).
    net_latency_s: float = 8.0e-6
    #: CPU send/receive overhead per message (o).
    net_overhead_s: float = 1.5e-6
    #: Large-message bandwidth (1/G).
    net_bytes_per_s: float = 8.0e8
    #: Per-byte cost of combining values inside reductions.
    reduce_cost_per_byte_s: float = 5.0e-10
    #: Fixed handler execution cost of an ARMCI-style RPC at the target.
    rpc_handler_cost_s: float = 1.0e-6

    # --- filesystem ---------------------------------------------------
    #: Aggregate bandwidth of the shared filesystem.
    fs_total_bytes_per_s: float = 3.0e9
    #: Peak bandwidth a single rank can draw from the filesystem.
    fs_rank_bytes_per_s: float = 1.2e8
    #: Fixed latency per I/O request (open/seek).
    io_call_latency_s: float = 5.0e-4

    # --- memory pressure ----------------------------------------------
    #: Fraction of a rank's memory share where thrashing begins.
    pressure_knee: float = 0.85
    #: Slowdown slope once the working set exceeds the knee.
    pressure_slope: float = 8.0

    # --- workload scaling ----------------------------------------------
    #: One generated corpus byte represents this many real bytes.
    workload_scale: float = 1.0
    #: Heaps'-law exponent used for vocabulary-like quantities.
    vocab_scale_beta: float = 0.65

    # ------------------------------------------------------------------
    # scaling
    # ------------------------------------------------------------------
    def scaled(self, n: float, scale: Scale = Scale.FIXED) -> float:
        """Scale a raw work quantity to represented-corpus magnitude."""
        if scale is Scale.STREAM:
            return n * self.workload_scale
        if scale is Scale.VOCAB:
            return n * self.workload_scale**self.vocab_scale_beta
        return float(n)

    def with_scale(self, workload_scale: float) -> "MachineSpec":
        """Return a copy of this spec with a different workload scale."""
        return replace(self, workload_scale=float(workload_scale))

    # ------------------------------------------------------------------
    # compute costs
    # ------------------------------------------------------------------
    def cpu_seconds(self, nops: float, scale: Scale = Scale.FIXED) -> float:
        """Time for ``nops`` generic scalar operations."""
        return self.scaled(nops, scale) / self.cpu_ops_per_s

    def flops_seconds(self, nflops: float, scale: Scale = Scale.FIXED) -> float:
        """Time for ``nflops`` floating-point operations."""
        return self.scaled(nflops, scale) / self.flops_per_s

    def memcpy_seconds(self, nbytes: float, scale: Scale = Scale.FIXED) -> float:
        """Time to copy ``nbytes`` through main memory."""
        return self.scaled(nbytes, scale) / self.mem_bw_bytes_per_s

    def scan_seconds(
        self, nbytes: float, ntokens: float, scale: Scale = Scale.STREAM
    ) -> float:
        """CPU time to tokenize ``nbytes`` of text yielding ``ntokens``."""
        return (
            self.scaled(nbytes, scale) / self.scan_bytes_per_s
            + self.scaled(ntokens, scale) * self.token_cost_s
        )

    def unique_terms_seconds(
        self, nterms: float, scale: Scale = Scale.VOCAB
    ) -> float:
        """Local-dictionary insertion time for ``nterms`` unique terms."""
        return self.scaled(nterms, scale) * self.unique_term_cost_s

    def invert_seconds(
        self, npostings: float, scale: Scale = Scale.STREAM
    ) -> float:
        """Time to invert ``npostings`` forward-index postings."""
        return self.scaled(npostings, scale) * self.posting_invert_cost_s

    # ------------------------------------------------------------------
    # I/O
    # ------------------------------------------------------------------
    def io_seconds(
        self,
        nbytes: float,
        concurrent_readers: int = 1,
        scale: Scale = Scale.STREAM,
    ) -> float:
        """Time for one rank to read ``nbytes`` from the shared FS.

        With ``concurrent_readers`` ranks hitting the filesystem at
        once, each rank's effective bandwidth is capped both by its own
        link and by an equal share of the aggregate FS bandwidth; this
        is what makes scanning I/O-bound at large processor counts.
        """
        readers = max(1, int(concurrent_readers))
        bw = min(self.fs_rank_bytes_per_s, self.fs_total_bytes_per_s / readers)
        return self.io_call_latency_s + self.scaled(nbytes, scale) / bw

    # ------------------------------------------------------------------
    # network
    # ------------------------------------------------------------------
    def same_node(self, rank_a: int, rank_b: int) -> bool:
        """Whether two global ranks share a physical node."""
        per = max(1, int(self.ranks_per_node))
        return rank_a // per == rank_b // per

    def p2p_seconds(
        self, nbytes: float, intra_node: bool = False
    ) -> tuple[float, float]:
        """(sender busy time, total transit time) of one message.

        The sender is busy for its overhead plus serialization; the
        message is available at the receiver after latency as well.
        Messages between ranks of the same node go through shared
        memory: a fraction of the NIC latency and memory-copy
        bandwidth instead of the wire.
        """
        if intra_node:
            ser = nbytes / self.mem_bw_bytes_per_s
            lat = self.net_latency_s * 0.15
        else:
            ser = nbytes / self.net_bytes_per_s
            lat = self.net_latency_s
        sender = self.net_overhead_s + ser
        transit = lat + self.net_overhead_s + ser
        return sender, transit

    def recv_overhead_seconds(self) -> float:
        """Receiver-side CPU overhead to complete a message."""
        return self.net_overhead_s

    def rpc_seconds(self, nbytes_out: float, nbytes_in: float = 64.0) -> float:
        """Round-trip time of an ARMCI-style remote procedure call."""
        wire = (nbytes_out + nbytes_in) / self.net_bytes_per_s
        return (
            2.0 * (self.net_latency_s + self.net_overhead_s)
            + wire
            + self.rpc_handler_cost_s
        )

    def onesided_seconds(
        self, nbytes: float, intra_node: bool = False
    ) -> float:
        """One-way one-sided put/get of ``nbytes`` to a remote rank."""
        if intra_node:
            return (
                self.net_latency_s * 0.15
                + self.net_overhead_s
                + nbytes / self.mem_bw_bytes_per_s
            )
        return (
            self.net_latency_s
            + self.net_overhead_s
            + nbytes / self.net_bytes_per_s
        )

    def collective_seconds(self, kind: str, nprocs: int, nbytes: float) -> float:
        """Completion time of a collective over ``nprocs`` ranks.

        ``nbytes`` is the per-rank contribution size (for gather-like
        operations the model accounts for the aggregate internally).
        Uses standard binomial-tree / linear models.
        """
        if kind not in COLLECTIVE_KINDS:
            raise ValueError(f"unknown collective kind {kind!r}")
        p = max(1, int(nprocs))
        if p == 1:
            return 0.0
        logp = math.ceil(math.log2(p))
        lat = self.net_latency_s
        ovh = self.net_overhead_s
        ser = nbytes / self.net_bytes_per_s
        red = nbytes * self.reduce_cost_per_byte_s
        if kind == "barrier":
            return logp * (lat + 2.0 * ovh)
        if kind == "bcast":
            return logp * (lat + ovh + ser)
        if kind == "allreduce":
            # reduce + bcast (the MPI_Allreduce the paper's topicality
            # and association-matrix stages lean on)
            return 2.0 * logp * (lat + ovh + ser) + logp * red
        if kind in ("gather", "allgather"):
            return logp * lat + (p - 1) * (ovh + ser)
        if kind == "alltoallv":
            # nbytes = a rank's total outgoing volume (split over p-1
            # destinations), so serialization is paid once, not p times
            return lat + p * ovh + ser
        if kind == "scan":
            return logp * (lat + ovh + ser + red)
        raise AssertionError("unreachable")

    # ------------------------------------------------------------------
    # memory pressure
    # ------------------------------------------------------------------
    def rank_mem_share_bytes(self) -> float:
        """Memory available to a single rank on its node."""
        return self.node_mem_bytes / self.ranks_per_node

    def pressure_factor(self, workset_bytes: float, scale: Scale = Scale.STREAM) -> float:
        """Compute-slowdown multiplier for a given per-rank working set.

        Returns 1.0 while the working set fits comfortably in the
        rank's memory share and grows linearly beyond the knee.  This
        reproduces the paper's observation that the 16.44 GB PubMed run
        was disproportionately slow on 4 processors ("excessive cache
        misses, page faults").
        """
        share = self.rank_mem_share_bytes()
        ratio = self.scaled(workset_bytes, scale) / share
        if ratio <= self.pressure_knee:
            return 1.0
        return 1.0 + self.pressure_slope * (ratio - self.pressure_knee)
