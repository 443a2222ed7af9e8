"""Inverted-file indexing (FAST-INV) and global term statistics."""

from .fastinv import Postings, invert_bruteforce, invert_chunk
from .stats import TermStats, stats_from_doc_postings

__all__ = [
    "Postings",
    "TermStats",
    "invert_bruteforce",
    "invert_chunk",
    "stats_from_doc_postings",
]
