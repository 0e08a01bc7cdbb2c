"""Streaming ingestion and one-entity serving: the :class:`ObservationRing`
lookback buffer, :class:`EntitySession` counters, and a single entity
through :class:`ForecastServer`."""

import numpy as np
import pytest

from repro import autograd as ag
from repro.core import FOCUSConfig, FOCUSForecaster
from repro.serving import EntitySession, ForecastServer, ServingConfig
from repro.serving.session import ObservationRing

LOOKBACK, ENTITIES = 24, 3
ENTITY = "stream"


def make_model(rng, lookback=24, horizon=6, entities=3, p=6, k=4):
    config = FOCUSConfig(
        lookback=lookback, horizon=horizon, num_entities=entities,
        segment_length=p, num_prototypes=k, d_model=8, num_readout=2,
    )
    return FOCUSForecaster(config, prototypes=rng.standard_normal((k, p)))


def make_ring():
    return ObservationRing(LOOKBACK, ENTITIES)


class TestBuffering:
    def test_not_ready_until_lookback_filled(self, rng):
        server = ForecastServer(make_model(rng))
        for _ in range(23):
            server.observe(ENTITY, rng.standard_normal(3))
        assert server.ready([ENTITY]) == []
        with pytest.raises(RuntimeError, match="needs 24"):
            server.forecast(ENTITY)
        server.observe(ENTITY, rng.standard_normal(3))
        assert server.ready([ENTITY]) == [ENTITY]

    def test_forecast_shape(self, rng):
        server = ForecastServer(make_model(rng))
        server.observe_many(ENTITY, rng.standard_normal((30, 3)))
        forecast = server.forecast(ENTITY).forecast
        assert forecast.shape == (6, 3)
        assert server.stats()["forecasts"] == 1

    def test_buffer_holds_latest_window(self, rng):
        ring = make_ring()
        data = rng.standard_normal((40, 3))
        ring.observe_many(data)
        assert np.allclose(ring.window(), data[-24:])

    def test_matches_batch_forecast(self, rng):
        """A served forecast equals calling the model on the same window."""
        model = make_model(rng)
        server = ForecastServer(model)
        data = rng.standard_normal((30, 3))
        server.observe_many(ENTITY, data)
        streamed = server.forecast(ENTITY).forecast
        with ag.no_grad():
            direct = model(ag.Tensor(data[-24:][None])).data[0]
        assert np.allclose(streamed, direct)

    def test_wrong_observation_shape(self):
        with pytest.raises(ValueError, match="observation"):
            make_ring().observe(np.zeros(5))

    def test_observation_counter(self, rng):
        session = EntitySession(ENTITY, LOOKBACK, ENTITIES)
        session.observe_many(rng.standard_normal((10, 3)))
        assert session.stats.observations == 10

    def test_observe_many_rejects_wrong_block_shape(self):
        with pytest.raises(ValueError, match="block"):
            make_ring().observe_many(np.zeros((10, 5)))

    def test_ring_matches_roll_reference(self, rng):
        """The ring buffer must be observably identical to an
        np.roll-based buffer at every step, including before fill."""
        ring = make_ring()
        reference = np.zeros((LOOKBACK, 3))
        for step in range(2 * LOOKBACK + 5):
            row = rng.standard_normal(3)
            ring.observe(row)
            reference = np.roll(reference, -1, axis=0)
            reference[-1] = row
            assert np.array_equal(ring.window(), reference), f"step {step}"

    def test_observe_many_matches_single_observes(self, rng):
        chunked = make_ring()
        stepped = make_ring()
        data = rng.standard_normal((57, 3))
        # Partial fill, a wrapping chunk, and a chunk longer than lookback.
        for start, end in ((0, 17), (17, 29), (29, 57)):
            chunked.observe_many(data[start:end])
        for row in data:
            stepped.observe(row)
        assert np.array_equal(chunked.window(), stepped.window())
        assert chunked.version == stepped.version == 57

    def test_observe_does_not_reallocate_storage(self, rng):
        """observe() is an O(N) row write into fixed storage — the ring
        array object must never be replaced (an np.roll buffer rebuilds
        the full (L, N) array on every step)."""
        ring = make_ring()
        storage = ring.storage
        ring.observe_many(rng.standard_normal((60, 3)))
        for _ in range(10):
            ring.observe(rng.standard_normal(3))
        assert ring.storage is storage


class TestBufferIsolation:
    def test_buffer_not_aliased_at_ring_boundary(self, rng):
        """Regression: with head == 0 the window must still be a copy,
        never the live ring storage, or a caller holding the result sees
        it mutate on the next observe()."""
        ring = make_ring()
        ring.observe_many(rng.standard_normal((24, 3)))  # exactly lookback
        assert ring.head == 0
        held = ring.window()
        assert held is not ring.storage
        snapshot = held.copy()
        ring.observe(rng.standard_normal(3))
        assert np.array_equal(held, snapshot)

    def test_buffer_not_aliased_mid_ring(self, rng):
        ring = make_ring()
        ring.observe_many(rng.standard_normal((30, 3)))
        assert ring.head != 0
        held = ring.window()
        snapshot = held.copy()
        ring.observe_many(rng.standard_normal((5, 3)))
        assert np.array_equal(held, snapshot)

    def test_writing_to_buffer_does_not_poison_ring(self, rng):
        ring = make_ring()
        data = rng.standard_normal((24, 3))
        ring.observe_many(data)
        ring.window()[:] = np.nan
        assert np.array_equal(ring.window(), data)


class TestObserveManyWraparound:
    def test_block_larger_than_lookback(self, rng):
        chunked = make_ring()
        stepped = make_ring()
        block = rng.standard_normal((2 * 24 + 5, 3))
        chunked.observe_many(block)
        for row in block:
            stepped.observe(row)
        assert np.array_equal(chunked.window(), block[-24:])
        assert np.array_equal(chunked.window(), stepped.window())
        assert chunked.head == stepped.head
        assert chunked.ready

    def test_block_landing_exactly_on_ring_boundary(self, rng):
        chunked = make_ring()
        stepped = make_ring()
        data = rng.standard_normal((7 + 17, 3))
        chunked.observe_many(data[:7])
        chunked.observe_many(data[7:])  # lands the head exactly on slot 0
        for row in data:
            stepped.observe(row)
        assert chunked.head == 0
        assert np.array_equal(chunked.window(), stepped.window())
        # A full-lookback block from the boundary wraps back to it.
        more = rng.standard_normal((24, 3))
        chunked.observe_many(more)
        assert chunked.head == 0
        assert np.array_equal(chunked.window(), more)

    def test_equivalence_on_an_already_wrapped_stream(self, rng):
        """Chunked and stepped ingestion agree even after the ring has
        wrapped several times and the head sits mid-ring."""
        chunked = make_ring()
        stepped = make_ring()
        prefix = rng.standard_normal((61, 3))  # head mid-ring, wrapped twice
        chunked.observe_many(prefix)
        for row in prefix:
            stepped.observe(row)
        for size in (1, 23, 24, 25, 70):
            block = rng.standard_normal((size, 3))
            chunked.observe_many(block)
            for row in block:
                stepped.observe(row)
            assert np.array_equal(chunked.window(), stepped.window()), size
            assert chunked.head == stepped.head
        assert chunked.version == stepped.version


class TestAdaptation:
    """Serving never edits the prototype bank: the maintenance worker's
    shadow-gated jobs (``tests/maintenance``) are the one adaptation
    path."""

    def test_disabled_by_default(self, rng):
        model = make_model(rng)
        before = model.extractor.temporal_mixer.prototypes.copy()
        version = model.prototype_version
        server = ForecastServer(model, ServingConfig(use_cache=False))
        server.observe_many(ENTITY, 100.0 * rng.standard_normal((60, 3)))
        server.forecast(ENTITY)
        assert np.allclose(model.extractor.temporal_mixer.prototypes, before)
        assert model.prototype_version == version
