"""Global Arrays: distributed dense arrays in a global address space.

This is the reproduction's stand-in for the part of the Global Array
Toolkit the paper's engine uses.  A :class:`GlobalArray` is created
*collectively* and block-distributed along its first axis.  Each rank
writes its own block through :meth:`~GlobalArray.local_view` (the
df/cf term statistics), and any rank may apply the atomic
:meth:`~GlobalArray.read_inc` (GA's ``NGA_Read_inc``) to any element --
the fetch-and-increment behind the paper's dynamic load balancer.  No
cooperation from the owner rank is required: the virtual-time
scheduler's global operation ordering provides the consistency that
ARMCI provides on real hardware.  A ``read_inc`` on a locally owned
element costs one handler call, a remote one an RPC round trip.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.runtime.context import RankContext
from repro.runtime.errors import RuntimeMisuseError

from .distribution import BlockDistribution


class GlobalArray:
    """A block-distributed dense array in the global address space."""

    def __init__(
        self,
        ctx: RankContext,
        name: str,
        shape: tuple[int, ...],
        dtype: np.dtype,
        dist: BlockDistribution,
        backing: np.ndarray,
    ):
        self._ctx = ctx
        self.name = name
        self.shape = shape
        self.dtype = dtype
        self.dist = dist
        self._data = backing
        # register the family even though no array op fills it (the
        # engine's stolen loads do): snapshots list every registered
        # family, so runs with nothing stolen must still carry it
        ctx.metrics.counter("comm.onesided.bytes", ("peer", "dir"))

    @classmethod
    def create(
        cls,
        ctx: RankContext,
        name: str,
        shape: tuple[int, ...] | int,
        dtype=np.float64,
        fill: float = 0,
        dist=None,
    ) -> "GlobalArray":
        """Collectively create a named global array (all ranks call).

        ``dist`` defaults to a regular block distribution along axis 0;
        pass an :class:`~repro.ga.distribution.IrregularBlockDistribution`
        to align ownership with an external partition (e.g. the term
        statistics arrays whose rows follow vocabulary ownership).
        """
        if isinstance(shape, int):
            shape = (shape,)
        shape = tuple(int(s) for s in shape)
        if any(s < 0 for s in shape):
            raise RuntimeMisuseError(f"bad shape {shape}")
        if dist is not None and dist.nrows != shape[0]:
            raise RuntimeMisuseError(
                f"distribution covers {dist.nrows} rows, array has {shape[0]}"
            )
        key = f"ga:{name}"
        # Rendezvous so every rank sees the same backing store.
        ctx.comm.barrier()
        ctx.sched.wait_turn(ctx.rank)
        entry = ctx.world.registry.get(key)
        if entry is None:
            if dist is None:
                dist = BlockDistribution(shape[0], ctx.nprocs)
            # the world decides where the backing memory lives (a
            # private allocation under the simulator, a shared-memory
            # segment under the mp backend)
            data = ctx.world.alloc_ndarray(key, shape, fill, np.dtype(dtype))
            entry = (data, dist, shape, np.dtype(dtype))
            ctx.world.registry[key] = entry
        else:
            if entry[2] != shape or entry[3] != np.dtype(dtype):
                raise RuntimeMisuseError(
                    f"ranks disagree on global array {name!r}: "
                    f"{entry[2]}/{entry[3]} vs {shape}/{np.dtype(dtype)}"
                )
        data, dist, _, _ = entry
        return cls(ctx, name, shape, np.dtype(dtype), dist, data)

    def read_inc(self, index: int, inc: int = 1) -> int:
        """Atomic fetch-and-add on one integer element.

        This is GA's ``NGA_Read_inc`` -- the few-line primitive the
        paper uses to implement its shared-task-queue dynamic load
        balancer without a master process.
        """
        if not np.issubdtype(self.dtype, np.integer):
            raise RuntimeMisuseError(
                f"read_inc requires an integer array, {self.name!r} is "
                f"{self.dtype}"
            )
        if self._data.ndim != 1:
            raise RuntimeMisuseError("read_inc supports 1-D arrays only")
        if not 0 <= index < self.shape[0]:
            raise RuntimeMisuseError(
                f"row {index} out of bounds for {self.name!r} with "
                f"shape {self.shape}"
            )
        ctx = self._ctx
        ctx.sched.wait_turn(ctx.rank)
        with ctx.world.ga_lock:
            old = int(self._data[index])
            self._data[index] = old + inc
        owner = self.dist.owner_of(index)
        if owner == ctx.rank:
            ctx.charge(ctx.machine.rpc_handler_cost_s)
        else:
            ctx.charge(ctx.machine.rpc_seconds(16.0, 16.0))
        return old

    # ------------------------------------------------------------------
    # locality
    # ------------------------------------------------------------------
    def local_range(self, rank: Optional[int] = None) -> tuple[int, int]:
        """Row range owned by ``rank`` (default: the calling rank)."""
        r = self._ctx.rank if rank is None else rank
        return self.dist.local_range(r)

    def local_view(self) -> np.ndarray:
        """Zero-copy view of the calling rank's owned block.

        GA programs use direct local access for the compute-heavy inner
        loops; no communication cost is charged.
        """
        lo, hi = self.local_range()
        return self._data[lo:hi]

    def sync(self) -> None:
        """GA_Sync: barrier + completion of outstanding operations."""
        self._ctx.comm.barrier()
