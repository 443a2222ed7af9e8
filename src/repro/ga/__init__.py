"""Global-Arrays-style global address space substrate.

Reproduces the pieces of the Global Array Toolkit / ARMCI stack the
paper relies on: block-distributed dense arrays with an atomic
fetch-and-increment (``read_inc``) and owner-local views, an
RPC-backed distributed hashmap for the global vocabulary, and the
shared task queue used for dynamic load balancing during
inverted-file indexing.
"""

from .array import GlobalArray
from .distribution import BlockDistribution, IrregularBlockDistribution
from .hashmap import GlobalHashMap, term_owner
from .taskqueue import SharedTaskQueue

__all__ = [
    "BlockDistribution",
    "GlobalArray",
    "GlobalHashMap",
    "IrregularBlockDistribution",
    "SharedTaskQueue",
    "term_owner",
]
