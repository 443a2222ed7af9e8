"""Block data distributions for global arrays.

Global Arrays distributes dense arrays in regular blocks across ranks
and exposes the layout to the programmer so locality can be exploited.
We implement block distribution along the first axis (the layout every
structure in the paper's engine uses), regular or with explicit row
boundaries.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from repro.runtime.errors import RuntimeMisuseError


@dataclass(frozen=True)
class BlockDistribution:
    """Rows ``[lo_r, hi_r)`` of axis 0 live on rank ``r``.

    Rows are divided as evenly as possible: the first ``n % p`` ranks
    get one extra row, matching GA's default regular distribution.
    """

    nrows: int
    nprocs: int

    def __post_init__(self) -> None:
        if self.nrows < 0:
            raise RuntimeMisuseError(f"nrows must be >= 0, got {self.nrows}")
        if self.nprocs < 1:
            raise RuntimeMisuseError(
                f"nprocs must be >= 1, got {self.nprocs}"
            )

    def local_range(self, rank: int) -> tuple[int, int]:
        """Half-open row range owned by ``rank``."""
        if not 0 <= rank < self.nprocs:
            raise RuntimeMisuseError(
                f"rank {rank} out of range [0, {self.nprocs})"
            )
        base, extra = divmod(self.nrows, self.nprocs)
        lo = rank * base + min(rank, extra)
        hi = lo + base + (1 if rank < extra else 0)
        return lo, hi

    def local_count(self, rank: int) -> int:
        lo, hi = self.local_range(rank)
        return hi - lo

    def owner_of(self, row: int) -> int:
        """Rank owning global row ``row``."""
        if not 0 <= row < self.nrows:
            raise RuntimeMisuseError(
                f"row {row} out of range [0, {self.nrows})"
            )
        base, extra = divmod(self.nrows, self.nprocs)
        boundary = extra * (base + 1)
        if row < boundary:
            return row // (base + 1) if base + 1 > 0 else 0
        if base == 0:
            return extra  # unreachable when row < nrows, defensive
        return extra + (row - boundary) // base


@dataclass(frozen=True)
class IrregularBlockDistribution:
    """Explicit row boundaries: rank ``r`` owns ``[bounds[r], bounds[r+1])``.

    Used when ownership must align with an externally determined
    partition -- e.g. the term-statistics arrays whose rows are owned
    by whichever rank owns that term in the vocabulary hashmap.
    """

    bounds: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.bounds) < 2:
            raise RuntimeMisuseError("bounds needs at least [0, nrows]")
        if self.bounds[0] != 0:
            raise RuntimeMisuseError("bounds must start at 0")
        if any(b > a for a, b in zip(self.bounds[1:], self.bounds[:-1])):
            raise RuntimeMisuseError("bounds must be non-decreasing")

    @classmethod
    def from_counts(cls, counts: "list[int]") -> "IrregularBlockDistribution":
        bounds = [0]
        for c in counts:
            bounds.append(bounds[-1] + int(c))
        return cls(tuple(bounds))

    @property
    def nrows(self) -> int:
        return self.bounds[-1]

    @property
    def nprocs(self) -> int:
        return len(self.bounds) - 1

    def local_range(self, rank: int) -> tuple[int, int]:
        if not 0 <= rank < self.nprocs:
            raise RuntimeMisuseError(
                f"rank {rank} out of range [0, {self.nprocs})"
            )
        return self.bounds[rank], self.bounds[rank + 1]

    def local_count(self, rank: int) -> int:
        lo, hi = self.local_range(rank)
        return hi - lo

    def owner_of(self, row: int) -> int:
        if not 0 <= row < self.nrows:
            raise RuntimeMisuseError(
                f"row {row} out of range [0, {self.nrows})"
            )
        # rightmost rank whose lower bound is <= row and that owns rows
        r = bisect.bisect_right(self.bounds, row) - 1
        # skip empty ranks (bounds may repeat)
        while self.local_count(r) == 0:
            r += 1
        return r
