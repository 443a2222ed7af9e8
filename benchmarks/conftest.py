"""Shared fixtures for the benchmarks.

Each benchmark writes its report under ``benchmarks/out/`` (a
generated, untracked directory) for inspection.  The paper's figures
are not here: they are the ``paper`` study of ``python -m repro
bench``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

OUT_DIR = Path(__file__).parent / "out"


@pytest.fixture(scope="session")
def out_dir() -> Path:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    return OUT_DIR


@pytest.fixture(autouse=True)
def _reap_mp_children():
    """Join any worker processes a benchmark left behind.

    Benchmarks that exercise the mp execution backend fork one OS
    process per rank; a test that errors mid-run can strand them.
    Unjoined children trip ``pytest -W error`` at interpreter exit
    (multiprocessing emits ResourceWarning/UserWarning for leaked
    processes and shared_memory segments), so every benchmark joins
    its children -- with a timeout and a terminate fallback -- before
    the next one starts.
    """
    from repro.bench.studies import reap_children

    yield
    leaked = reap_children(timeout=10.0)
    assert not leaked, f"benchmark leaked child processes: {leaked}"


def write_report(out_dir: Path, name: str, text: str) -> None:
    (out_dir / name).write_text(text + "\n")
    print(f"\n{text}\n")
