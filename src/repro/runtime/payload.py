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
``float`` / ``bool`` / ``None`` / ``str`` / ``dict`` and plain arrays
are recognised by identity of type before the ``isinstance`` chain,
exact-``int``/``float`` items of a list or tuple and fields of a
dataclass are counted inline (16 bytes each) without a recursive call,
each dataclass type's field names are looked up once and cached, and a
list or tuple of one dataclass type (the topic stage's ranked terms)
is sized field by field across its items in closed form.
"""

from __future__ import annotations

import functools
import pickle
from itertools import chain, repeat
from operator import attrgetter, methodcaller
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


@functools.lru_cache(maxsize=256)
def _getter(names: tuple[str, ...]) -> attrgetter:
    return attrgetter(*names)


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


_utf8 = methodcaller("encode", "utf-8", "replace")


def _rows_nbytes(rows, names: tuple[str, ...], depth: int) -> int:
    """``_items_nbytes`` of a list or tuple whose items all are one
    dataclass type with fields ``names``, in closed form: 16 an item
    (its slot and its header) plus 16 a value when every field value
    is an exact ``int`` / ``float``; else, field by field across the
    items, 16 a value when all are exact ``int`` / ``float``, 8 plus
    the UTF-8 length when all are exact ``str``, else the per-item
    rule."""
    total = 16 * len(rows)
    if not names:
        return total
    values = map(_getter(names), rows)
    if len(names) > 1:
        values = chain.from_iterable(values)
    if set(map(type, values)) <= {int, float}:
        return total + 16 * len(rows) * len(names)
    for name in names:
        col = list(map(attrgetter(name), rows))
        kinds = set(map(type, col))
        if kinds <= {int, float}:
            total += 16 * len(col)
        elif kinds == {str}:
            total += 8 * len(col) + sum(map(len, map(_utf8, col)))
        else:
            total += _items_nbytes(col, depth + 1)
    return total


def _entries_nbytes(mapping: dict, depth: int) -> int:
    """16 per entry plus its key's and value's sizes at ``depth``."""
    total = 16 * len(mapping)
    for k, v in mapping.items():
        total += _nbytes(k, depth) + _nbytes(v, depth)
    return total


def _fields_nbytes(obj: Any, names: tuple[str, ...], depth: int) -> int:
    return 8 + _items_nbytes(map(getattr, repeat(obj), names), depth + 1)


def _nbytes(obj: Any, depth: int) -> int:
    cls = type(obj)
    if cls is int or cls is float:
        return 8
    if obj is None or cls is bool:
        return 1
    if cls is str:
        return len(obj) if obj.isascii() else len(_utf8(obj))
    if cls is np.ndarray:
        return int(obj.nbytes)
    if depth < _MAX_DEPTH:
        if cls is list or cls is tuple:
            depth += 1
            if obj and depth < _MAX_DEPTH:
                names = _field_names(type(obj[0]))
                if names is not None and len(set(map(type, obj))) == 1:
                    return 8 + _rows_nbytes(obj, names, depth)
            return 8 + _items_nbytes(obj, depth)
        if cls is dict:
            return 8 + _entries_nbytes(obj, depth + 1)
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
        return 8 + _entries_nbytes(obj, depth + 1)
    # dataclass *classes* and other objects carrying the attribute
    fields = getattr(obj, "__dataclass_fields__", None)
    if fields is not None and depth < _MAX_DEPTH:
        return _fields_nbytes(obj, tuple(fields), depth)
    try:
        return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return 64
