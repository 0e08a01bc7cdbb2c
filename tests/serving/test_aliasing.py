"""Aliasing regression suite: no public return value shares memory with
internal state.

The in-place autograd backend (PR 4) reuses buffers aggressively, and
the serving layer caches forecasts — so any public API that returns a
view into internal storage is a latent corruption bug (the PR 2
``_buffer`` aliasing incident was exactly this class).  Every test here
takes a public return value, mutates it in place, and asserts the
system's subsequent behavior is unchanged.
"""

import numpy as np
import pytest

from repro.serving import ForecastCache, ForecastServer, ServingConfig

from .conftest import LOOKBACK, NUM_ENTITIES

pytestmark = pytest.mark.serve


@pytest.fixture
def warmed_server(model, rng):
    """One warmed entity on a cache-off server: every forecast is a
    fresh forward."""
    server = ForecastServer(model, ServingConfig(use_cache=False))
    server.observe_many("stream", rng.normal(size=(LOOKBACK, NUM_ENTITIES)))
    return server


def test_streaming_forecast_not_aliased(warmed_server):
    first = warmed_server.forecast("stream").forecast
    first[:] = np.nan
    second = warmed_server.forecast("stream").forecast
    assert np.isfinite(second).all()


def test_streaming_buffer_property_not_aliased(warmed_server):
    window = warmed_server.store.session("stream").ring.window()
    window[:] = np.nan
    assert np.isfinite(warmed_server.store.session("stream").ring.window()).all()
    assert np.isfinite(warmed_server.forecast("stream").forecast).all()


def test_ring_window_and_recent_not_aliased(warmed_server):
    ring = warmed_server.store.session("stream").ring
    for view in (ring.window(), ring.last_written_row()):
        view[...] = np.nan
    assert np.isfinite(ring.storage).all()


def test_prototype_values_not_aliased(model):
    values = model.prototype_values()
    values[:] = 123.0
    assert not np.array_equal(model.prototype_values(), values)


def test_update_prototype_snapshots_its_input(model, rng):
    """The value passed in is copied before the EMA mixes it in."""
    before = model.prototype_values()
    value = rng.normal(size=before.shape[1])
    model.update_prototype(0, value)
    after_first = model.prototype_values()
    value[:] = np.nan  # caller mutates its own array afterwards
    assert np.isfinite(model.prototype_values()).all()
    assert np.array_equal(model.prototype_values(), after_first)


def test_forecast_batch_rows_not_aliased(model, rng):
    windows = rng.normal(size=(3, LOOKBACK, NUM_ENTITIES))
    first = model.forecast_batch(windows)
    first[:] = np.nan
    second = model.forecast_batch(windows)
    assert np.isfinite(second).all()


def test_cache_get_and_put_not_aliased(rng):
    cache = ForecastCache(capacity=4)
    forecast = rng.normal(size=(8, 3))
    original = forecast.copy()
    cache.put("e", 1, 8, 0, forecast)
    forecast[:] = np.nan  # caller mutates after insert
    hit = cache.get("e", 1, 8, 0)
    assert np.array_equal(hit, original)
    hit[:] = np.nan  # caller mutates the returned hit
    again = cache.get("e", 1, 8, 0)
    assert np.array_equal(again, original)


def test_server_responses_not_aliased(model, rng):
    """Mutating any response leaves later answers (incl. cache) intact."""
    server = ForecastServer(model, ServingConfig())
    server.observe_many("e", rng.normal(size=(LOOKBACK, NUM_ENTITIES)))
    first = server.forecast("e")
    keep = first.forecast.copy()
    first.forecast[:] = np.nan
    second = server.forecast("e")  # cache hit at the same version
    assert second.source == "cache"
    assert np.array_equal(second.forecast, keep)


def test_session_snapshot_not_aliased(model, rng):
    server = ForecastServer(model, ServingConfig())
    server.observe_many("e", rng.normal(size=(LOOKBACK, NUM_ENTITIES)))
    session = server.store.session("e")
    window, version = session.snapshot()
    window[:] = np.nan
    fresh, fresh_version = session.snapshot()
    assert version == fresh_version
    assert np.isfinite(fresh).all()
