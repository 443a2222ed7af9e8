"""Wire-size estimation for simulated messages.

The communication cost model needs a byte count for arbitrary Python
payloads.  NumPy arrays report their exact buffer size; common builtin
containers are estimated structurally; anything else falls back to its
pickled length.

The count is part of virtual time, so it is fixed: every rule below
gives the byte counts of the plain recursive definition (``None`` and
``bool`` 1, ``int`` / ``float`` 8, a sequence 8 plus 8 per item, a
mapping 8 plus 16 per entry, a dataclass 8 plus 8 per field, recursion
bounded at depth 6).  Only the work per object is cut: exact ``int`` /
``float`` / ``bool`` / ``None`` are recognised by identity of type
before the ``isinstance`` chain, exact-``int``/``float`` items of a
list or tuple and fields of a dataclass are counted inline (16 bytes
each) without a recursive call, and each dataclass type's field names
are looked up once and cached.
"""

from __future__ import annotations

import functools
import pickle
from itertools import repeat
from typing import Any

import numpy as np

#: Assumed per-object framing overhead on the wire.
_HEADER_BYTES = 16
#: nesting depth past which containers are sized by pickling
_MAX_DEPTH = 6
#: types whose sizing rules come before the dataclass rule
_RULE_TYPES = (
    np.ndarray, np.generic, int, float, bytes, str,
    list, tuple, set, frozenset, dict,
)


@functools.lru_cache(maxsize=256)
def _field_names(cls: type) -> tuple[str, ...] | None:
    """Field names of a dataclass type no earlier rule matches, else
    ``None``."""
    fields = getattr(cls, "__dataclass_fields__", None)
    if fields is None or issubclass(cls, _RULE_TYPES):
        return None
    return tuple(fields)


def payload_nbytes(obj: Any) -> int:
    """Estimate the number of bytes ``obj`` would occupy on the wire."""
    return _HEADER_BYTES + _nbytes(obj, 0)


def _items_nbytes(items, depth: int) -> int:
    """8 per item plus each item's size, items sized at ``depth``."""
    total = 0
    for x in items:
        cls = type(x)
        if cls is int or cls is float:
            total += 16
        else:
            total += 8 + _nbytes(x, depth)
    return total


def _fields_nbytes(obj: Any, names: tuple[str, ...], depth: int) -> int:
    return 8 + _items_nbytes(map(getattr, repeat(obj), names), depth + 1)


def _nbytes(obj: Any, depth: int) -> int:
    cls = type(obj)
    if cls is int or cls is float:
        return 8
    if obj is None or cls is bool:
        return 1
    if depth < _MAX_DEPTH:
        if cls is list or cls is tuple:
            return 8 + _items_nbytes(obj, depth + 1)
        names = _field_names(cls)
        if names is not None:
            return _fields_nbytes(obj, names, depth)
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, np.generic):
        return int(obj.nbytes)
    if isinstance(obj, int):  # an int subclass (bool is final)
        return 8
    if isinstance(obj, float):
        return 8
    if isinstance(obj, bytes):
        return len(obj)
    if isinstance(obj, str):
        return len(obj.encode("utf-8", errors="replace"))
    if depth < _MAX_DEPTH and isinstance(obj, (list, tuple, set, frozenset)):
        return 8 + _items_nbytes(obj, depth + 1)
    if depth < _MAX_DEPTH and isinstance(obj, dict):
        return 8 + sum(
            16 + _nbytes(k, depth + 1) + _nbytes(v, depth + 1)
            for k, v in obj.items()
        )
    # dataclass *classes* and other objects carrying the attribute
    fields = getattr(obj, "__dataclass_fields__", None)
    if fields is not None and depth < _MAX_DEPTH:
        return _fields_nbytes(obj, tuple(fields), depth)
    try:
        return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return 64
