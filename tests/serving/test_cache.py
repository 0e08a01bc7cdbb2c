"""ForecastCache holds one slot per entity.

A lookup always asks for the entity's current ring version, so an
entity's older forecasts can never be served again; the cache keeps only
the newest one, and ``capacity`` counts entities, not forecasts.
"""

import numpy as np
import pytest

from repro.serving import ForecastCache, ForecastServer, ServingConfig, replay_streams

from .conftest import HORIZON, LOOKBACK, NUM_ENTITIES

pytestmark = pytest.mark.serve


def forecast(value: float) -> np.ndarray:
    return np.full((HORIZON, NUM_ENTITIES), value)


def test_one_slot_per_entity_across_rounds(model, rng):
    server = ForecastServer(model, ServingConfig(cache_capacity=64))
    server.observe_many("e", rng.normal(size=(LOOKBACK, NUM_ENTITIES)))
    for _ in range(10):
        server.observe("e", rng.normal(size=NUM_ENTITIES))
        assert server.forecast("e").source == "model"
        assert len(server.cache) == 1
    assert server.forecast("e").source == "cache"


def test_older_version_never_replaces_newer():
    cache = ForecastCache(capacity=4)
    cache.put("e", 5, HORIZON, 0, forecast(5.0))
    cache.put("e", 4, HORIZON, 0, forecast(4.0))  # a late writer
    assert len(cache) == 1
    assert cache.get("e", 4, HORIZON, 0) is None
    assert np.array_equal(cache.get("e", 5, HORIZON, 0), forecast(5.0))
    cache.put("e", 6, HORIZON, 0, forecast(6.0))
    assert cache.get("e", 5, HORIZON, 0) is None
    assert np.array_equal(cache.get("e", 6, HORIZON, 0), forecast(6.0))


def test_lookup_needs_exact_version_and_horizon():
    cache = ForecastCache(capacity=4)
    cache.put("e", 5, HORIZON, 0, forecast(5.0))
    assert cache.get("e", 5, HORIZON + 1, 0) is None
    assert cache.get("f", 5, HORIZON, 0) is None
    assert (cache.hits, cache.misses, cache.invalidations) == (0, 2, 0)
    assert len(cache) == 1


def test_prototype_mismatch_evicts_and_counts_invalidation():
    cache = ForecastCache(capacity=4)
    cache.put("e", 5, HORIZON, 0, forecast(5.0))
    assert cache.get("e", 5, HORIZON, 1) is None
    assert cache.invalidations == 1 and cache.misses == 1
    assert len(cache) == 0
    assert cache.get("e", 5, HORIZON, 0) is None  # evicted, not kept


def test_capacity_evicts_least_recently_used_entity():
    cache = ForecastCache(capacity=2)
    cache.put("a", 1, HORIZON, 0, forecast(1.0))
    cache.put("b", 1, HORIZON, 0, forecast(2.0))
    assert cache.get("a", 1, HORIZON, 0) is not None  # "b" is now LRU
    cache.put("a", 2, HORIZON, 0, forecast(3.0))  # same entity: no eviction
    assert len(cache) == 2
    cache.put("c", 1, HORIZON, 0, forecast(4.0))
    assert len(cache) == 2
    assert cache.get("b", 1, HORIZON, 0) is None
    assert cache.get("a", 2, HORIZON, 0) is not None
    assert cache.get("c", 1, HORIZON, 0) is not None


def test_replay_keeps_at_most_one_entry_per_entity(model, rng):
    entities = 5
    streams = {
        f"r-{i}": rng.normal(size=(LOOKBACK + 24, NUM_ENTITIES)) for i in range(entities)
    }
    server = ForecastServer(model, ServingConfig(cache_capacity=512))
    responses = replay_streams(server, streams, forecast_every=4)
    assert len(responses) > entities  # several forecast rounds
    assert 0 < len(server.cache) <= entities
