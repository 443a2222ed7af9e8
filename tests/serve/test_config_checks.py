"""Serving configs reject knobs that would silently misbehave.

A non-positive shard timeout flags every answer partial, a zero
in-flight bound rejects every query: both must fail at construction.
"""

import pytest

from repro.serve.broker import BrokerConfig
from repro.serve.router import RouterConfig


@pytest.mark.parametrize(
    "cls, field, value",
    [
        (BrokerConfig, "shard_timeout_s", 0.0),
        (BrokerConfig, "shard_timeout_s", -1.0),
        (BrokerConfig, "shard_timeout_s", float("nan")),
        (BrokerConfig, "max_inflight", 0),
        (BrokerConfig, "batch_max_queries", 0),
        (BrokerConfig, "retries", -1),
        (BrokerConfig, "cache_capacity", -1),
        (RouterConfig, "brokers", 0),
        (RouterConfig, "workers", -1),
        (RouterConfig, "replicas", -1),
        (RouterConfig, "vnodes", 0),
        (RouterConfig, "hedge_delay_s", -1.0),
        (RouterConfig, "hedge_delay_s", 0.0),
        (RouterConfig, "shard_timeout_s", 0.0),
        (RouterConfig, "retries", -1),
        (RouterConfig, "retry_jitter_s", -0.1),
        (RouterConfig, "probation_s", -1.0),
        (RouterConfig, "max_inflight", 0),
        (RouterConfig, "cache_capacity", -1),
        (RouterConfig, "batch_max_queries", 0),
    ],
)
def test_bad_knob_raises(cls, field, value):
    with pytest.raises(ValueError, match=field):
        cls(**{field: value})


def test_defaults_and_edges_accepted():
    BrokerConfig()
    BrokerConfig(cache_capacity=0, retries=0)
    RouterConfig()
    RouterConfig(workers=0, replicas=0, retries=0, retry_jitter_s=0.0,
                 probation_s=0.0, cache_capacity=0)
