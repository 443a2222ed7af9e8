"""No document-frequency ceiling: a term in every document stays a
candidate major term."""

from repro.engine import EngineConfig, SerialTextEngine
from repro.text import Corpus, Document


def _corpus():
    """Every doc carries the boilerplate term plus a theme term."""
    docs = []
    for i in range(20):
        theme = f"theme{i % 4}"
        docs.append(
            Document(
                i,
                {
                    "body": (
                        f"boilerplate {theme} {theme} filler{i % 7} "
                        "boilerplate"
                    )
                },
            )
        )
    return Corpus("maxdf", docs)


def test_boilerplate_kept_by_default():
    cfg = EngineConfig(n_major_terms=12, min_df=1, n_clusters=2, kmeans_sample=8)
    res = SerialTextEngine(cfg).run(_corpus())
    assert "boilerplate" in res.major_term_strings
