"""Synthetic newswire corpus.

The paper's introduction motivates the engine with streaming text --
"email, newspapers, web pages ... newswire feeds and message traffic".
Newswire has a structure the other two generators lack: *stories*
arrive in bursts (several consecutive dispatches about one event), so
themes are time-correlated.  That makes this generator the natural
input for the streaming/incremental examples and for partition-order
effects: contiguous partitions inherit whole stories.
"""

from __future__ import annotations

import numpy as np

from repro.text.documents import Corpus

from .generator import ThemeModel, ThemeModelConfig, generate_corpus

_WIRE_CITIES = [
    "WASHINGTON",
    "LONDON",
    "GENEVA",
    "SINGAPORE",
    "NAIROBI",
    "BRASILIA",
    "OTTAWA",
    "CANBERRA",
]
_MONTHS = [
    "Jan", "Feb", "Mar", "Apr", "May", "Jun",
    "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
]

_NEWS_AFFIXES = (
    ["press", "gov", "euro", "inter", "trans", "multi"],
    ["ation", "ism", "ity", "ment", "ance", "gate"],
)


def generate_newswire(
    target_bytes: int,
    seed: int = 0,
    represented_bytes: float | None = None,
    n_themes: int = 10,
    vocab_size: int = 10_000,
    mean_story_length: float = 4.0,
    facets=None,
    n_docs: int | None = None,
) -> Corpus:
    """Generate a bursty newswire corpus of roughly ``target_bytes``.

    Consecutive dispatches belong to the same *story* (theme) with
    geometric story lengths of mean ``mean_story_length``; the
    ``story_ids`` metadata records the grouping.  Pass a
    :class:`repro.facets.FacetSpec` as ``facets`` to stamp the corpus
    with time/source fields; ``None`` (default) leaves output
    byte-identical to earlier versions.
    """
    model = ThemeModel(
        ThemeModelConfig(
            vocab_size=vocab_size,
            n_themes=n_themes,
            theme_strength=0.5,  # wire copy is on-topic
            two_theme_prob=0.1,
            zipf_s=1.1,
        ),
        seed=seed,
        affixes=_NEWS_AFFIXES,
    )
    # burst state shared by the field builder
    state = {"theme": 0, "remaining": 0, "story": -1}
    story_ids: list[int] = []
    themes_used: list[int] = []
    cont_prob = 1.0 - 1.0 / max(1.0, mean_story_length)

    def builder(m: ThemeModel, themes: list[int], rng: np.random.Generator):
        if state["remaining"] <= 0 or rng.random() > cont_prob:
            state["theme"] = int(rng.integers(n_themes))
            state["remaining"] = 1 + int(rng.geometric(1 - cont_prob))
            state["story"] += 1
        state["remaining"] -= 1
        story_ids.append(state["story"])
        themes_used.append(state["theme"])
        theme = [state["theme"]]
        headline_len = int(rng.integers(4, 10))
        body_len = int(np.clip(rng.lognormal(np.log(120), 0.4), 30, 600))
        city = _WIRE_CITIES[int(rng.integers(len(_WIRE_CITIES)))]
        month = _MONTHS[int(rng.integers(12))]
        day = int(rng.integers(1, 29))
        return {
            "headline": " ".join(m.sample_tokens(headline_len, theme)),
            "dateline": f"{city}, {month} {day} (Wire)",
            "body": " ".join(m.sample_tokens(body_len, theme)),
        }

    corpus = generate_corpus(
        name="newswire-synthetic",
        target_bytes=target_bytes,
        field_builder=builder,
        model=model,
        represented_bytes=represented_bytes,
        n_docs=n_docs,
    )
    corpus.meta["story_ids"] = story_ids[: len(corpus)]
    # the burst state, not the mixture draw, defines the true labels
    corpus.meta["theme_labels"] = themes_used[: len(corpus)]
    if facets is not None:
        from repro.facets.stamp import stamp_corpus

        stamp_corpus(corpus, facets)
    return corpus
