"""Every registered bench study, run once per session at toy sizes."""

import json

import pytest

from repro.bench import studies  # noqa: F401 - registers the studies
from repro.bench.study import STUDIES, Fixture

#: one tiny replica row: 2 shards x 3 workers x 2 brokers + router = 6
#: ranks, 4 clients x 3 queries
TOY_ROW = (2, 3, 2, 2, 4, 3)
TOY_LABEL = "2s-3w-2b-r2-c4"

#: toy sizes per study; a study registered without an entry here fails
#: ``test_study.py::test_every_study_has_a_toy_config``
TOY = {
    "runtime": dict(procs=(1, 2), downscale=50_000.0),
    "serving": dict(shards=(1, 2), n_clients=2, queries_per_client=6),
    "replica": dict(matrix=(TOY_ROW,)),
    "workbench": dict(shards=(1, 2)),
    "dashboard": dict(),
    "pruning": dict(corpus_bytes=300_000, batch_sizes=(1, 4)),
    "ingest": dict(
        shards=(1, 2),
        n_clients=2,
        queries_per_client=4,
        n_batches=2,
        batch_docs=4,
    ),
}


@pytest.fixture(scope="session")
def run_toy(tmp_path_factory):
    """``run_toy(name)`` runs one study at its toy sizes, through JSON
    like the runner does; all calls share one 40 KB fixture."""
    fixture = Fixture(tmp_path_factory.mktemp("bench"), corpus_bytes=40_000)

    def run(name: str) -> dict:
        return json.loads(
            json.dumps(STUDIES[name](fixture, None, **TOY[name]))
        )

    return run


@pytest.fixture(scope="session")
def toy_docs(run_toy):
    """name -> toy document, each study run on first lookup."""

    class Docs(dict):
        def __missing__(self, name):
            self[name] = run_toy(name)
            return self[name]

    return Docs()


@pytest.fixture
def canned(monkeypatch):
    """``canned(name, doc)`` registers a study that returns ``doc``."""

    def register(name: str, doc: dict) -> None:
        monkeypatch.setitem(STUDIES, name, lambda fixture, progress: doc)

    return register
