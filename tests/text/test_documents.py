"""Document model and byte-balanced partitioning tests."""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text import Corpus, Document, partition_documents


def _doc(i, text="hello world"):
    return Document(doc_id=i, fields={"body": text})


def test_document_nbytes_counts_fields():
    d = Document(doc_id=0, fields={"title": "abc", "body": "defgh"})
    assert d.nbytes == len("title") + 3 + 4 + len("body") + 5 + 4


def test_document_nbytes_is_computed_once():
    d = Document(doc_id=7, fields={"title": "héllo", "body": "x y"})
    fresh = pickle.dumps(d)
    assert "nbytes" not in d.__dict__
    size = d.nbytes
    assert d.__dict__["nbytes"] == size == 5 + 6 + 4 + 4 + 3 + 4
    # a second read is the cached value, not a re-encode
    d.__dict__["nbytes"] = -1
    assert d.nbytes == -1
    d.__dict__["nbytes"] = size
    # the cache is invisible to equality and to pickling (mp backend)
    twin = Document(doc_id=7, fields={"title": "héllo", "body": "x y"})
    assert d == twin
    assert pickle.dumps(d) == fresh == pickle.dumps(twin)
    back = pickle.loads(pickle.dumps(d))
    assert back == d and "nbytes" not in back.__dict__
    assert back.nbytes == size


def test_document_text_joins_fields():
    d = Document(doc_id=0, fields={"a": "one", "b": "two"})
    assert d.text() == "one two"


def test_corpus_len_iter_getitem():
    c = Corpus("c", [_doc(0), _doc(1)])
    assert len(c) == 2
    assert [d.doc_id for d in c] == [0, 1]
    assert c[1].doc_id == 1


def test_corpus_field_names_first_seen_order():
    c = Corpus(
        "c",
        [
            Document(0, {"b": "x", "a": "y"}),
            Document(1, {"a": "y", "c": "z"}),
        ],
    )
    assert c.field_names == ["b", "a", "c"]


def test_workload_scale_default_and_declared():
    c = Corpus("c", [_doc(0)])
    assert c.workload_scale() == 1.0
    c2 = Corpus("c", [_doc(0)], represented_bytes=c.nbytes * 50)
    assert abs(c2.workload_scale() - 50) < 1e-9


def test_workload_scale_never_below_one():
    c = Corpus("c", [_doc(0)], represented_bytes=1.0)
    assert c.workload_scale() == 1.0


def test_partition_preserves_order_and_covers_all():
    docs = [_doc(i) for i in range(17)]
    parts = partition_documents(docs, 4)
    flat = [d.doc_id for p in parts for d in p]
    assert flat == list(range(17))


def test_partition_single_rank():
    docs = [_doc(i) for i in range(5)]
    parts = partition_documents(docs, 1)
    assert len(parts) == 1 and len(parts[0]) == 5


def test_partition_more_ranks_than_docs():
    docs = [_doc(i) for i in range(2)]
    parts = partition_documents(docs, 5)
    flat = [d.doc_id for p in parts for d in p]
    assert flat == [0, 1]


def test_partition_balances_bytes():
    # one huge doc among many small ones
    docs = [_doc(0, "x" * 1000)] + [_doc(i) for i in range(1, 41)]
    parts = partition_documents(docs, 4)
    sizes = [sum(d.nbytes for d in p) for p in parts]
    total = sum(sizes)
    # the huge doc's rank should not also hold many small ones
    assert max(sizes) < 0.65 * total


@settings(max_examples=100)
@given(
    nbytes_list=st.lists(
        st.integers(min_value=0, max_value=500), min_size=0, max_size=60
    ),
    nprocs=st.integers(min_value=1, max_value=8),
)
def test_partition_property_exact_cover_in_order(nbytes_list, nprocs):
    docs = [_doc(i, "x" * n) for i, n in enumerate(nbytes_list)]
    parts = partition_documents(docs, nprocs)
    assert len(parts) == nprocs
    flat = [d.doc_id for p in parts for d in p]
    assert flat == list(range(len(docs)))
    for p in parts:
        ids = [d.doc_id for d in p]
        assert ids == sorted(ids)  # contiguous runs
