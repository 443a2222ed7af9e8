"""Shared fixtures for the figure-reproduction benchmarks.

The full evaluation grid (both datasets, three sizes, four processor
counts, plus serial baselines) is simulated once per session; each
figure benchmark renders its tables from the cached sweeps and writes
them under ``benchmarks/out/`` for inspection.

Environment knobs:

* ``REPRO_BENCH_DOWNSCALE`` -- generated-to-represented ratio
  (default 10000; higher = faster, smaller corpora);
* ``REPRO_BENCH_PROCS`` -- comma-separated processor counts
  (default ``4,8,16,32``).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.bench import run_all_sweeps

OUT_DIR = Path(__file__).parent / "out"


def _env_downscale() -> float:
    return float(os.environ.get("REPRO_BENCH_DOWNSCALE", "10000"))


def _env_procs() -> tuple[int, ...]:
    raw = os.environ.get("REPRO_BENCH_PROCS", "4,8,16,32")
    return tuple(int(x) for x in raw.split(","))


@pytest.fixture(scope="session")
def sweeps():
    return run_all_sweeps(
        downscale=_env_downscale(),
        procs=_env_procs(),
        seed=7,
    )


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
