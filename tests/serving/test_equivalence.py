"""Batched serving path ≡ one eager forward per entity.

The serving subsystem's core claim: for every entity, the forecast
produced by the micro-batched ``(B, L, N)`` forward is **bit-identical**
(float64) to one eager forward of the same entity's window
(``conftest.eager_forecast``) — regardless of batch size, batch
composition, or which NaN policies its batchmates use.  Float32 models
are held to 1e-4 (accumulated rounding differs across BLAS paths).

Covers explicit batch sizes {1, 3, k, 4k} (k = max_batch of the default
serving config), ragged entity subsets, NaN-policy mixes, and
hypothesis-randomized stream/batch compositions (derandomized so CI is
deterministic).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serving import ForecastServer, ServingConfig

from .conftest import LOOKBACK, NUM_ENTITIES, eager_forecast

pytestmark = pytest.mark.serve

BATCH_K = ServingConfig().max_batch  # the issue's "k"


def make_streams(n_entities, steps, seed, nan_every=0):
    rng = np.random.default_rng(seed)
    streams = {}
    for index in range(n_entities):
        data = rng.normal(size=(steps, NUM_ENTITIES))
        if nan_every:
            data[nan_every - 1 :: nan_every, index % NUM_ENTITIES] = np.nan
        streams[f"entity-{index}"] = data
    return streams


@pytest.mark.parametrize("batch_size", [1, 3, BATCH_K, 4 * BATCH_K])
def test_batched_equals_sequential_float64(model, batch_size):
    streams = make_streams(batch_size, LOOKBACK + 5, seed=batch_size)
    server = ForecastServer(model, ServingConfig(max_batch=batch_size, use_cache=False))
    for entity_id, data in streams.items():
        server.observe_many(entity_id, data)
    responses = server.forecast_many(list(streams))
    assert len(responses) == batch_size
    for response in responses:
        assert response.source == "model"
        expected = eager_forecast(model, streams[response.entity])
        assert np.array_equal(response.forecast, expected)  # bit-identical


@pytest.mark.parametrize("batch_size", [1, 3, BATCH_K])
def test_batched_close_float32(model_f32, batch_size):
    streams = make_streams(batch_size, LOOKBACK + 5, seed=100 + batch_size)
    server = ForecastServer(
        model_f32, ServingConfig(max_batch=batch_size, use_cache=False)
    )
    for entity_id, data in streams.items():
        server.observe_many(entity_id, data)
    for response in server.forecast_many(list(streams)):
        expected = eager_forecast(model_f32, streams[response.entity])
        np.testing.assert_allclose(response.forecast, expected, atol=1e-4, rtol=1e-4)


def test_ragged_subsets_float64(model):
    """Forecasting any subset of a fleet yields the same per-entity bits."""
    streams = make_streams(7, LOOKBACK + 9, seed=42)
    server = ForecastServer(model, ServingConfig(use_cache=False))
    for entity_id, data in streams.items():
        server.observe_many(entity_id, data)
    full = {r.entity: r.forecast for r in server.forecast_many(list(streams))}
    for subset in (["entity-0"], ["entity-3", "entity-1"], list(streams)[2:7]):
        for response in server.forecast_many(subset):
            assert np.array_equal(response.forecast, full[response.entity])
    for entity_id, data in streams.items():
        assert np.array_equal(full[entity_id], eager_forecast(model, data))


def test_nan_policy_mix_float64(model):
    """Entities with different NaN policies batch together unchanged."""
    policies = ["reject", "impute_last", "impute_prototype"]
    streams = make_streams(len(policies), LOOKBACK + 8, seed=9, nan_every=5)
    server = ForecastServer(model, ServingConfig(use_cache=False))
    for (entity_id, data), policy in zip(streams.items(), policies):
        session = server.store.session(entity_id, nan_policy=policy)
        session.observe_many(data)
    responses = server.forecast_many(list(streams))
    for response, policy in zip(responses, policies):
        expected = eager_forecast(
            model, streams[response.entity], nan_policy=policy
        )
        assert np.array_equal(response.forecast, expected)


def test_duplicate_requests_identical(model):
    """Dedup within a batch returns equal (but unaliased) forecasts."""
    streams = make_streams(1, LOOKBACK + 2, seed=3)
    server = ForecastServer(model, ServingConfig(use_cache=False))
    server.observe_many("entity-0", streams["entity-0"])
    a, b = server.forecast_many(["entity-0", "entity-0"])
    assert np.array_equal(a.forecast, b.forecast)
    assert a.forecast is not b.forecast
    b.forecast[:] = np.nan
    assert np.isfinite(a.forecast).all()


@settings(
    derandomize=True,
    deadline=None,
    max_examples=8,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    n_entities=st.integers(min_value=1, max_value=6),
    extra_steps=st.integers(min_value=0, max_value=10),
    seed=st.integers(min_value=0, max_value=2**16),
    use_cache=st.booleans(),
)
def test_property_batched_equals_sequential(model, n_entities, extra_steps, seed, use_cache):
    """Randomized fleets: every batched forecast matches its oracle bitwise."""
    streams = make_streams(n_entities, LOOKBACK + extra_steps, seed=seed)
    server = ForecastServer(model, ServingConfig(use_cache=use_cache))
    for entity_id, data in streams.items():
        server.observe_many(entity_id, data)
    # Twice: the second pass may be served from cache — must be the same bits.
    for _ in range(2):
        for response in server.forecast_many(list(streams)):
            expected = eager_forecast(model, streams[response.entity])
            assert np.array_equal(response.forecast, expected)


def test_forecast_batch_rejects_bad_shape(model):
    with pytest.raises(ValueError, match="windows"):
        model.forecast_batch(np.zeros((LOOKBACK, NUM_ENTITIES)))
    with pytest.raises(ValueError, match="windows"):
        model.forecast_batch(np.zeros((2, LOOKBACK + 1, NUM_ENTITIES)))


def test_not_ready_entity_raises(model):
    server = ForecastServer(model, ServingConfig())
    server.observe("cold", np.zeros(NUM_ENTITIES))
    with pytest.raises(RuntimeError, match="needs"):
        server.forecast_many(["cold"])
    with pytest.raises(RuntimeError, match="needs"):
        server.submit("cold")
