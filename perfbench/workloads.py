"""Workload name -> the function that runs it."""

from __future__ import annotations

from perfbench import wl_analyst, wl_engine, wl_ingest, wl_serving

WORKLOAD_FNS = {
    "engine_batch": wl_engine.run,
    "search_cold": wl_serving.run_search_cold,
    "mixed_hot": wl_serving.run_mixed_hot,
    "analyst_sessions": wl_analyst.run,
    "ingest_churn": wl_ingest.run,
}
