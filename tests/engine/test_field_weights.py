"""Field-emphasis (field_weights) tests."""

import numpy as np
import pytest

from repro.engine import (
    EngineConfig,
    ParallelTextEngine,
    SerialTextEngine,
)
from repro.text import Corpus, Document


def _corpus():
    # three themes; each doc's title usually (75%) names the body's
    # theme but sometimes the next one, so title terms are positively
    # but imperfectly associated with the topic dimensions -- the
    # situation where field emphasis genuinely shifts signatures
    title_words = ["cardiotitle", "neurotitle", "hepatotitle"]
    body_words = ["cardiobody", "neurobody", "hepatobody"]
    docs = []
    for i in range(24):
        j = i % 3
        tj = j if i % 4 != 0 else (j + 1) % 3
        t = title_words[tj]
        b = body_words[j]
        docs.append(
            Document(
                i,
                {
                    "title": f"{t} {t}",
                    "body": (
                        f"{b} " * 4
                        + "common filler words appear here "
                        + f"doc{i:02d}unique"
                    ),
                },
            )
        )
    return Corpus("weights", docs)


def _cfg(**kw):
    return EngineConfig(
        n_major_terms=20, min_df=2, n_clusters=2, kmeans_sample=12, **kw
    )


def test_title_weight_shifts_signatures():
    corpus = _corpus()
    plain = SerialTextEngine(_cfg()).run(corpus)
    boosted = SerialTextEngine(
        _cfg(field_weights={"title": 10.0})
    ).run(corpus)
    # signatures must change when the title dominates
    assert not np.allclose(plain.signatures, boosted.signatures)


def test_weighted_signatures_still_l1():
    corpus = _corpus()
    res = SerialTextEngine(
        _cfg(field_weights={"title": 3.0, "body": 0.5})
    ).run(corpus)
    sums = res.signatures.sum(axis=1)
    for s in sums:
        assert s == pytest.approx(1.0) or s == 0.0


def test_parallel_matches_serial_with_weights():
    corpus = _corpus()
    cfg = _cfg(field_weights={"title": 4.0})
    s = SerialTextEngine(cfg).run(corpus)
    p = ParallelTextEngine(3, config=cfg).run(corpus)
    np.testing.assert_array_equal(p.signatures, s.signatures)
    assert p.major_term_strings == s.major_term_strings


def test_unlisted_fields_default_to_one():
    corpus = _corpus()
    explicit = SerialTextEngine(
        _cfg(field_weights={"title": 1.0, "body": 1.0})
    ).run(corpus)
    implicit = SerialTextEngine(_cfg(field_weights={})).run(corpus)
    none_cfg = SerialTextEngine(_cfg()).run(corpus)
    np.testing.assert_array_equal(
        explicit.signatures, none_cfg.signatures
    )
    np.testing.assert_array_equal(
        implicit.signatures, none_cfg.signatures
    )


def test_token_weights_helper():
    from repro.scan import finalize_vocabulary_serial, scan_forward
    from repro.text import Tokenizer

    docs = [
        Document(0, {"a": "xx yy", "b": "zz"}),
        Document(1, {"b": "ww", "a": "vv"}),
    ]
    fwd, terms, _ = scan_forward(docs, Tokenizer(), {"a": 0, "b": 1})
    vocab = finalize_vocabulary_serial(terms)
    fwd.assign_gids(terms, vocab.term_to_gid)
    weights = fwd.token_weights(2, np.array([2.0, 5.0]))
    np.testing.assert_array_equal(weights[0], [2.0, 2.0, 5.0])
    np.testing.assert_array_equal(weights[1], [5.0, 2.0])
