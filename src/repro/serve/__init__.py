"""Sharded on-disk serving of pipeline outputs.

``repro.serve`` turns an :class:`~repro.engine.results.EngineResult`
into a servable search/analytics service: :mod:`~repro.serve.store`
writes a versioned sharded container format, :mod:`~repro.serve.query`
executes per-shard query operators with the exact scoring kernels of
:mod:`repro.analysis.session`, :mod:`~repro.serve.broker` fans queries
out over shard-server ranks on the deterministic runtime with caching,
admission control and fault degradation, :mod:`~repro.serve.replica`
places R consistent-hashed replicas of every shard,
:mod:`~repro.serve.router` serves through a router-fronted broker tier
with replica failover, hedged requests and priority load-shedding, and
:mod:`~repro.serve.workload` generates seeded closed-loop workloads
(uniform-hot-pool and Zipf hot-spot) for the ``bench`` studies.
"""

from repro.serve.broker import BrokerConfig, ServeReport, query_store, serve
from repro.serve.query import Query, ShardStore, canonical_response
from repro.serve.replica import ReplicaHealth, ReplicaMap
from repro.serve.router import (
    RouterConfig,
    ShedResponse,
    TierReport,
    broker_of_client,
    serve_replicated,
)
from repro.serve.store import (
    DeltaInfo,
    ShardFormatError,
    StoreManifest,
    build_shards,
    current_generation,
    load_manifest,
    load_manifest_generation,
    verify_store,
)
from repro.serve.workload import (
    ClientScript,
    generate_workload,
    generate_zipf_workload,
    store_profile,
)

__all__ = [
    "BrokerConfig",
    "ClientScript",
    "DeltaInfo",
    "Query",
    "ReplicaHealth",
    "ReplicaMap",
    "RouterConfig",
    "ServeReport",
    "ShardFormatError",
    "ShardStore",
    "ShedResponse",
    "StoreManifest",
    "TierReport",
    "broker_of_client",
    "build_shards",
    "canonical_response",
    "current_generation",
    "generate_workload",
    "generate_zipf_workload",
    "load_manifest",
    "load_manifest_generation",
    "query_store",
    "serve",
    "serve_replicated",
    "store_profile",
    "verify_store",
]
