"""Scan & Map stage: tokenize-to-id scan, flat forward index, vocabulary."""

from .forward import ForwardIndex
from .scanner import ScanStats, scan_forward, scan_ids
from .vocabulary import (
    VocabMap,
    finalize_vocabulary,
    finalize_vocabulary_serial,
)

__all__ = [
    "ForwardIndex",
    "ScanStats",
    "VocabMap",
    "finalize_vocabulary",
    "finalize_vocabulary_serial",
    "scan_forward",
    "scan_ids",
]
