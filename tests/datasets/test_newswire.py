"""Newswire generator tests: burst structure and stream behaviour."""

import numpy as np

from repro.datasets import generate_newswire


def test_deterministic_and_sized():
    c1 = generate_newswire(80_000, seed=5)
    c2 = generate_newswire(80_000, seed=5)
    assert len(c1) == len(c2)
    assert c1[0].fields == c2[0].fields
    assert 80_000 <= c1.nbytes <= 80_000 * 1.3


def test_fields_and_dateline_shape():
    c = generate_newswire(40_000, seed=1)
    names = dict.fromkeys(f for d in c.documents for f in d.fields)
    assert list(names) == ["headline", "dateline", "body"]
    for d in c:
        assert "(Wire)" in d.fields["dateline"]
        assert "," in d.fields["dateline"]


def test_metadata_aligned():
    c = generate_newswire(60_000, seed=2)
    assert len(c.meta["story_ids"]) == len(c)
    assert len(c.meta["theme_labels"]) == len(c)


def test_stories_are_contiguous_runs():
    c = generate_newswire(120_000, seed=3)
    stories = c.meta["story_ids"]
    # story ids are non-decreasing and consecutive docs of a story
    # share the theme
    assert stories == sorted(stories)
    labels = c.meta["theme_labels"]
    for i in range(1, len(c)):
        if stories[i] == stories[i - 1]:
            assert labels[i] == labels[i - 1]


def test_burstiness_above_chance():
    """Adjacent dispatches share a theme far more often than random."""
    c = generate_newswire(200_000, seed=4, n_themes=10)
    labels = np.array(c.meta["theme_labels"])
    adjacent_same = np.mean(labels[1:] == labels[:-1])
    assert adjacent_same > 0.4  # chance would be ~0.1


def test_engine_recovers_wire_themes():
    from repro.engine import EngineConfig, SerialTextEngine

    c = generate_newswire(150_000, seed=6, n_themes=4)
    cfg = EngineConfig(n_major_terms=120, n_clusters=4, kmeans_sample=48)
    res = SerialTextEngine(cfg).run(c)
    labels = np.array(c.meta["theme_labels"])
    purity = 0
    for k in np.unique(res.assignments):
        members = labels[res.assignments == k]
        purity += np.bincount(members).max()
    assert purity / len(c) > 0.6


def test_mean_story_length_knob():
    short = generate_newswire(150_000, seed=7, mean_story_length=1.5)
    long = generate_newswire(150_000, seed=7, mean_story_length=12.0)
    n_stories_short = len(set(short.meta["story_ids"]))
    n_stories_long = len(set(long.meta["story_ids"]))
    assert n_stories_long < n_stories_short
