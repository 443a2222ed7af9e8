"""The wire sizer's fast paths give exactly the recursive definition's
counts.

Message sizes feed virtual time, so :func:`payload_nbytes` must never
drift from the plain recursive sizer frozen below, whatever the payload
-- including the cases its fast paths special-case (exact ``int`` /
``float`` items, dataclass fields, cached field names) and the cases
they must not capture (``int`` subclasses, numpy scalars, nesting past
the depth bound, objects that only pickle or do not pickle at all).
"""

from __future__ import annotations

import enum
import pickle
import threading
from collections import namedtuple
from dataclasses import dataclass
from typing import Any

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import payload_nbytes
from repro.serve.query import Candidate
from repro.signature.topicality import RankedTerm


def reference_nbytes(obj: Any) -> int:
    """The recursive sizer, frozen as the fast path's specification."""
    return 16 + _reference(obj, depth=0)


def _reference(obj: Any, depth: int) -> int:
    if obj is None:
        return 1
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, np.generic):
        return int(obj.nbytes)
    if isinstance(obj, (bool,)):
        return 1
    if isinstance(obj, int):
        return 8
    if isinstance(obj, float):
        return 8
    if isinstance(obj, bytes):
        return len(obj)
    if isinstance(obj, str):
        return len(obj.encode("utf-8", errors="replace"))
    if depth < 6 and isinstance(obj, (list, tuple, set, frozenset)):
        return 8 + sum(8 + _reference(x, depth + 1) for x in obj)
    if depth < 6 and isinstance(obj, dict):
        return 8 + sum(
            16 + _reference(k, depth + 1) + _reference(v, depth + 1)
            for k, v in obj.items()
        )
    fields = getattr(obj, "__dataclass_fields__", None)
    if fields is not None and depth < 6:
        return 8 + sum(
            8 + _reference(getattr(obj, name), depth + 1) for name in fields
        )
    try:
        return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return 64


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


@dataclass
class Pair:
    left: Any
    right: Any


Point = namedtuple("Point", "x y")


class Bag(list):
    """A list subclass: sized as a sequence, never by the fast path."""


@dataclass(eq=False)
class Tagged(list):
    """A list that is also a dataclass: the list rule comes first."""

    label: str = "tag"


@dataclass(eq=False, frozen=True)
class Weight(int):
    """An int that is also a dataclass: the int rule comes first."""

    unit: str = "kg"


def _tagged(items: list) -> Tagged:
    tagged = Tagged()
    tagged.extend(items)
    return tagged


class Opaque:
    """No sizing rule: pickled."""

    def __init__(self, data):
        self.data = data


hashables = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.floats(allow_nan=False),
        st.text(max_size=8),
        st.binary(max_size=8),
        st.sampled_from(list(Level)),
    ),
    lambda inner: st.one_of(
        st.tuples(inner, inner),
        st.frozensets(inner, max_size=3),
    ),
    max_leaves=6,
)

scalars = st.one_of(
    hashables,
    st.floats(),
    st.text(alphabet=st.characters(), max_size=12),  # non-ASCII too
    st.sampled_from(
        [
            np.int8(-3),
            np.int32(7),
            np.int64(2**40),
            np.float32(1.5),
            np.float64(2.5),
            np.bool_(True),
            np.uint16(9),
        ]
    ),
    st.builds(
        np.arange,
        st.integers(min_value=0, max_value=12),
        dtype=st.sampled_from([np.int8, np.int64, np.float64]),
    ),
    st.just(np.zeros((2, 3), dtype=np.float32)),
    st.builds(Opaque, st.lists(st.integers(), max_size=4)),
    st.just(threading.Lock()),  # unpicklable
    st.just(Weight()),
)


def _wrap(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(children, max_size=3).map(Bag),
        st.lists(children, max_size=3).map(_tagged),
        st.sets(hashables, max_size=4),
        st.frozensets(hashables, max_size=4),
        st.dictionaries(hashables, children, max_size=4),
        st.builds(Pair, children, children),
        st.builds(Point, children, children),
        st.builds(
            Candidate,
            score=st.one_of(st.floats(), children),
            row=st.one_of(st.integers(), children),
            doc_id=st.integers(),
            cluster=st.one_of(st.integers(), st.sampled_from(list(Level))),
        ),
    )


payloads = st.recursive(scalars, _wrap, max_leaves=40)


def _nest(leaf, kinds: list[str]):
    """``leaf`` wrapped once per entry of ``kinds``, innermost first."""
    obj = leaf
    for kind in kinds:
        if kind == "list":
            obj = [obj, 1, 2.0]
        elif kind == "tuple":
            obj = (obj, None, True)
        elif kind == "dict":
            obj = {"k": obj, 3: 4.0}
        elif kind == "pair":
            obj = Pair(obj, 5)
        else:
            obj = Candidate(score=0.5, row=obj, doc_id=7, cluster=1)
    return obj


deep = st.builds(
    _nest,
    payloads,
    st.lists(
        st.sampled_from(["list", "tuple", "dict", "pair", "candidate"]),
        min_size=5,
        max_size=10,
    ),
)


@settings(max_examples=400, deadline=None)
@given(payloads)
def test_sizer_matches_reference(obj):
    assert payload_nbytes(obj) == reference_nbytes(obj)


@settings(max_examples=200, deadline=None)
@given(deep)
def test_sizer_matches_reference_past_the_depth_bound(obj):
    assert payload_nbytes(obj) == reference_nbytes(obj)


def test_candidate_messages_match_reference():
    """The serving layer's dominant message shape, cold and warm."""
    cands = [
        Candidate(score=0.25 * i, row=i, doc_id=10 * i, cluster=i % 3)
        for i in range(12)
    ]
    msg = (4, 0, (cands, 12345, 7))
    for _ in range(2):
        assert payload_nbytes(msg) == reference_nbytes(msg)
    # a Candidate carrying numpy scalars is sized by their own widths
    odd = Candidate(score=np.float32(1.0), row=np.int16(3), doc_id=1,
                    cluster=Level.HIGH)
    assert payload_nbytes(odd) == reference_nbytes(odd) == 16 + 8 + 32 + 22


@dataclass
class Defaults:
    a: int = 1
    b: str = "xy"


def test_dataclass_type_is_not_cached_as_an_instance():
    """A dataclass *class* is sized by its class attributes, as the
    recursive rule does, and never enters the per-type field cache."""
    for _ in range(2):
        assert payload_nbytes(Defaults) == reference_nbytes(Defaults)
        assert payload_nbytes(Defaults(5, "é")) == reference_nbytes(
            Defaults(5, "é")
        )
    assert payload_nbytes([Defaults, 3]) == reference_nbytes([Defaults, 3])


@dataclass
class Empty:
    """No fields: 16 bytes an item in a list."""


def _column(*extra):
    """One field's values: mostly exact numbers, sometimes anything
    a per-item rule must size instead."""
    return st.one_of(st.integers(), st.floats(), *extra)


ranked_terms = st.builds(
    RankedTerm,
    term=st.text(alphabet=st.characters(), max_size=10),
    gid=_column(st.sampled_from([np.int32(4), Weight(), True, None])),
    score=_column(st.sampled_from([np.float32(0.5), Level.LOW])),
    df=st.integers(),
    cf=_column(st.text(max_size=3), st.lists(st.integers(), max_size=3)),
)
candidates = st.builds(
    Candidate,
    score=_column(st.sampled_from([np.float64(2.0), "s"])),
    row=st.integers(),
    doc_id=st.integers(),
    cluster=_column(st.sampled_from(list(Level))),
)
#: lists and tuples of one dataclass type -- and, for the per-item
#: path, of two types or a subclass beside its base
rows = st.one_of(
    st.lists(ranked_terms, min_size=1, max_size=30),
    st.lists(candidates, min_size=1, max_size=30),
    st.lists(st.builds(Empty), max_size=4),
    st.lists(st.one_of(candidates, ranked_terms), min_size=2, max_size=6),
    st.lists(
        st.one_of(st.builds(Defaults), st.just(Defaults)), max_size=4
    ),
).flatmap(lambda xs: st.sampled_from([xs, tuple(xs)]))


@settings(max_examples=300, deadline=None)
@given(
    st.builds(
        _nest,
        rows,
        st.lists(
            st.sampled_from(["list", "tuple", "dict", "pair", "candidate"]),
            max_size=7,
        ),
    )
)
def test_rows_of_one_dataclass_match_reference(obj):
    """The closed form over a list of one dataclass type, at every
    depth up to and past the bound."""
    assert payload_nbytes(obj) == reference_nbytes(obj)
