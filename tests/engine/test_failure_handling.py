"""Failure-injection tests: the engine must fail fast, never hang."""

import pytest

from repro.engine import EngineConfig, ParallelTextEngine, SerialTextEngine
from repro.text import Corpus, Document

_CFG = EngineConfig(n_major_terms=8, min_df=1, n_clusters=2, kmeans_sample=4)


def test_non_string_field_fails_cleanly_serial():
    corpus = Corpus(
        "bad", [Document(0, {"body": 12345})]  # type: ignore[dict-item]
    )
    with pytest.raises(Exception):
        SerialTextEngine(_CFG).run(corpus)


class _Bomb(str):
    """A string that detonates inside the scan stage's tokenizer."""

    def lower(self):  # noqa: A003 - deliberate sabotage
        raise RuntimeError("boom in tokenization")


def test_rank_side_failure_propagates_without_hanging():
    docs = [
        Document(0, {"body": "fine words here"}),
        Document(1, {"body": _Bomb("ticking")}),
        Document(2, {"body": "more fine words"}),
    ]
    corpus = Corpus("bad", docs)
    # the failing rank's exception propagates; no deadlock/hang
    with pytest.raises(RuntimeError, match="failed: .*boom in tokenization"):
        ParallelTextEngine(3, config=_CFG).run(corpus)


def test_empty_corpus_fails_cleanly():
    corpus = Corpus("empty", [])
    with pytest.raises(Exception):
        SerialTextEngine(_CFG).run(corpus)
    with pytest.raises(Exception):
        ParallelTextEngine(2, config=_CFG).run(corpus)


def test_all_stopword_corpus_fails_with_message():
    docs = [Document(i, {"body": "the and of to a"}) for i in range(4)]
    corpus = Corpus("stop", docs)
    with pytest.raises(ValueError, match="no candidate major terms"):
        SerialTextEngine(_CFG).run(corpus)


def test_failure_leaves_no_stuck_threads():
    import threading

    before = threading.active_count()
    docs = [Document(0, {"body": None})] * 2  # type: ignore[list-item]
    corpus = Corpus("bad", [Document(i, d.fields) for i, d in enumerate(docs)])
    for _ in range(3):
        with pytest.raises(Exception):
            ParallelTextEngine(4, config=_CFG).run(corpus)
    # rank threads unwind promptly after each failed run
    import time

    deadline = time.time() + 10
    while threading.active_count() > before + 2 and time.time() < deadline:
        time.sleep(0.05)
    assert threading.active_count() <= before + 2


def test_engine_failure_then_success_in_same_process():
    bad = Corpus("bad", [Document(0, {"body": None})])  # type: ignore[dict-item]
    with pytest.raises(Exception):
        ParallelTextEngine(2, config=_CFG).run(bad)
    good = Corpus(
        "good",
        [
            Document(0, {"body": "apple banana apple"}),
            Document(1, {"body": "banana cherry banana"}),
        ],
    )
    res = ParallelTextEngine(2, config=_CFG).run(good)
    assert res.n_docs == 2
