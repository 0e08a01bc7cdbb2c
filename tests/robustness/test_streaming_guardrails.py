"""Serving guardrails: NaN policies at ingest, the health machine, and
degraded forecasts through :class:`~repro.serving.ForecastServer`."""

import warnings

import numpy as np
import pytest

from repro.core import FOCUSConfig, FOCUSForecaster
from repro.robustness import (
    ChaosModel,
    ChaosSpec,
    HealthMonitor,
    HealthState,
    apply_nan_policy,
    persistence_forecast,
    seasonal_naive_forecast,
)
from repro.serving import EntitySession, EntitySessionStore, ForecastServer, ServingConfig
from repro.serving.session import ObservationRing

LOOKBACK, HORIZON, ENTITIES = 24, 6, 3
ENTITY = "stream"


def make_model(rng, k=4, p=6):
    config = FOCUSConfig(
        lookback=LOOKBACK, horizon=HORIZON, num_entities=ENTITIES,
        segment_length=p, num_prototypes=k, d_model=8, num_readout=2,
    )
    return FOCUSForecaster(config, prototypes=rng.standard_normal((k, p)))


def make_session(nan_policy):
    return EntitySession(ENTITY, LOOKBACK, ENTITIES, nan_policy=nan_policy)


class TestNanPolicies:
    def test_reject_drops_bad_rows(self, rng):
        session = make_session("reject")
        session.observe_many(rng.standard_normal((LOOKBACK, ENTITIES)))
        window_before = session.ring.window()
        bad = rng.standard_normal(ENTITIES)
        bad[1] = np.nan
        session.observe(bad)
        assert session.stats.rejected_observations == 1
        assert session.stats.observations == LOOKBACK
        assert np.array_equal(session.ring.window(), window_before)

    def test_reject_filters_rows_inside_block(self, rng):
        session = make_session("reject")
        block = rng.standard_normal((10, ENTITIES))
        block[3, 0] = np.inf
        block[7, 2] = np.nan
        session.observe_many(block)
        assert session.stats.observations == 8
        assert session.stats.rejected_observations == 2
        clean = block[np.isfinite(block).all(axis=1)]
        assert np.array_equal(session.ring.window()[-8:], clean)

    def test_impute_last_forward_fills_per_entity(self, rng):
        session = make_session("impute_last")
        first = np.array([1.0, 2.0, 3.0])
        session.observe(first)
        bad = np.array([np.nan, 5.0, np.inf])
        session.observe(bad)
        assert session.stats.imputed_values == 2
        assert np.array_equal(session.ring.window()[-1], [1.0, 5.0, 3.0])
        assert np.isfinite(session.ring.storage).all()

    def test_impute_last_without_history_uses_zero(self, rng):
        session = make_session("impute_last")
        session.observe(np.array([np.nan, 1.0, np.nan]))
        assert np.array_equal(session.ring.window()[-1], [0.0, 1.0, 0.0])

    def test_impute_prototype_uses_dictionary_mean(self, rng):
        model = make_model(rng)
        store = EntitySessionStore.for_model(model, nan_policy="impute_prototype")
        session = store.session(ENTITY)
        fill = float(np.mean(model.prototype_values()))
        session.observe(np.array([np.nan, 7.0, 7.0]))
        assert session.ring.window()[-1, 0] == pytest.approx(fill)
        assert np.array_equal(session.ring.window()[-1, 1:], [7.0, 7.0])

    def test_unknown_policy_rejected(self, rng):
        with pytest.raises(ValueError, match="nan_policy"):
            ServingConfig(nan_policy="ostrich")
        with pytest.raises(ValueError, match="nan_policy"):
            make_session("ostrich")

    def test_overflow_in_block_imputes_quietly(self):
        """A value past float32's range casts to inf and is imputed, in a
        block exactly as in a single row, without an overflow warning."""
        ring = ObservationRing(4, 3, dtype=np.float32, nan_policy="impute_last")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ring.observe(np.array([1.0, 2.0, 3.0]))
            ring.observe(np.array([1e39, 5.0, 6.0]))
            result = ring.observe_many(np.array([[1e39, 1.0, 2.0]]))
        assert result.imputed == 1 and result.accepted == 1
        assert ring.window()[-2:].tolist() == [[1.0, 5.0, 6.0], [1.0, 1.0, 2.0]]

    def test_apply_nan_policy_finite_fast_path_is_identity(self, rng):
        block = rng.standard_normal((5, 3))
        clean, imputed, rejected = apply_nan_policy(block, "impute_last")
        assert clean is block and imputed == 0 and rejected == 0

    def test_ring_reads_last_row_only_to_impute(self, rng, monkeypatch):
        ring = ObservationRing(LOOKBACK, ENTITIES, nan_policy="impute_last")
        ring.observe(np.array([1.0, 2.0, 3.0]))
        reads = []
        original = ObservationRing.last_written_row

        def counted(self):
            reads.append(self.version)
            return original(self)

        monkeypatch.setattr(ObservationRing, "last_written_row", counted)
        ring.observe_many(rng.standard_normal((4, ENTITIES)))
        assert reads == []  # all-finite fast path: no row copy
        ring.observe(np.array([np.nan, 5.0, 6.0]))
        assert reads == [5]
        window = ring.window()
        assert window[-1].tolist() == [window[-2, 0], 5.0, 6.0]  # forward-filled


class TestHealthMonitor:
    def test_single_failure_degrades(self):
        monitor = HealthMonitor()
        assert monitor.state is HealthState.HEALTHY
        monitor.record_failure()
        assert monitor.state is HealthState.DEGRADED

    def test_failure_streak_fails(self):
        monitor = HealthMonitor(fail_threshold=3)
        for _ in range(3):
            monitor.record_failure()
        assert monitor.state is HealthState.FAILED

    def test_interleaved_successes_prevent_failed(self):
        monitor = HealthMonitor(fail_threshold=3, recover_after=2)
        for _ in range(10):
            monitor.record_failure()
            monitor.record_success()
        assert monitor.state is not HealthState.FAILED

    def test_recovery_ladder(self):
        monitor = HealthMonitor(fail_threshold=2, recover_after=3)
        monitor.record_failure()
        monitor.record_failure()
        assert monitor.state is HealthState.FAILED
        monitor.record_success()
        assert monitor.state is HealthState.DEGRADED
        monitor.record_success()
        monitor.record_success()
        assert monitor.state is HealthState.HEALTHY
        transitions = [(src, dst) for src, dst, _, _ in monitor.transitions]
        assert transitions == [
            ("HEALTHY", "DEGRADED"),
            ("DEGRADED", "FAILED"),
            ("FAILED", "DEGRADED"),
            ("DEGRADED", "HEALTHY"),
        ]
        # Ticks are the 1-based record index at which each flip happened.
        ticks = [tick for _, _, _, tick in monitor.transitions]
        assert ticks == [1, 2, 3, 5]

    def test_transition_history_is_bounded(self):
        monitor = HealthMonitor(fail_threshold=1, recover_after=1, history=4)
        for _ in range(20):  # each pair flips DEGRADED->...->HEALTHY twice
            monitor.record_failure()
            monitor.record_success()
        assert len(monitor.transitions) == 4
        # Newest transitions survive; the oldest were evicted.
        assert monitor.transitions[-1][3] == monitor.tick

    def test_on_transition_callback_sees_every_flip(self):
        seen = []
        monitor = HealthMonitor(
            fail_threshold=2, recover_after=1,
            on_transition=lambda *record: seen.append(record),
        )
        monitor.record_failure("boom")
        monitor.record_success()
        assert seen == [
            ("HEALTHY", "DEGRADED", "boom", 1),
            ("DEGRADED", "HEALTHY", "1 consecutive successes", 2),
        ]
        assert list(monitor.transitions) == seen

    def test_interleaved_streaks_match_reference_simulation(self, rng):
        """Property-style check: under arbitrary interleavings of
        success/failure, the monitor must agree with an independent
        straight-line reference simulation of the spec."""

        def reference(outcomes, fail_threshold, recover_after):
            state, fails, oks, states = "HEALTHY", 0, 0, []
            for ok in outcomes:
                if ok:
                    fails, oks = 0, oks + 1
                    if state == "FAILED":
                        state = "DEGRADED"
                    elif state == "DEGRADED" and oks >= recover_after:
                        state = "HEALTHY"
                else:
                    oks, fails = 0, fails + 1
                    if state == "HEALTHY":
                        state = "DEGRADED"
                    elif state == "DEGRADED" and fails >= fail_threshold:
                        state = "FAILED"
                states.append(state)
            return states

        for trial in range(25):
            fail_threshold = int(rng.integers(1, 5))
            recover_after = int(rng.integers(1, 5))
            outcomes = rng.random(200) < rng.uniform(0.2, 0.8)
            monitor = HealthMonitor(
                fail_threshold=fail_threshold, recover_after=recover_after
            )
            expected = reference(outcomes, fail_threshold, recover_after)
            for step, ok in enumerate(outcomes):
                state = (
                    monitor.record_success() if ok else monitor.record_failure()
                )
                assert state.value == expected[step], (
                    f"trial {trial} step {step}: {state.value} != {expected[step]}"
                )
            assert monitor.tick == len(outcomes)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            HealthMonitor(fail_threshold=0)
        with pytest.raises(ValueError):
            HealthMonitor(recover_after=0)
        with pytest.raises(ValueError):
            HealthMonitor(history=0)


@pytest.mark.chaos
class TestDegradedForecasting:
    """One entity through :class:`ForecastServer` (cache off, so every
    forecast runs the model) over a fault-injecting model."""

    @staticmethod
    def serve(model, data, **config):
        server = ForecastServer(model, ServingConfig(use_cache=False, **config))
        server.observe_many(ENTITY, data)
        return server

    def test_nan_injection_never_leaks_and_health_recovers(self, rng):
        """Acceptance: NaN model outputs every 3rd call -> forecast() stays
        finite 100% of the time, goes DEGRADED, and heals when the
        injection stops."""
        model = ChaosModel(
            make_model(rng), ChaosSpec(nan_every=3, stop_after=30)
        )
        server = self.serve(
            model, rng.standard_normal((LOOKBACK, ENTITIES)), recover_after=3
        )
        saw_degraded = False
        for call in range(1, 41):
            response = server.forecast(ENTITY)
            forecast = response.forecast
            assert np.isfinite(forecast).all(), f"non-finite forecast at call {call}"
            assert forecast.shape == (HORIZON, ENTITIES)
            if call <= 30 and call % 3 == 0:
                assert response.source == "fallback:persistence"
                assert server.health.state is HealthState.DEGRADED
                saw_degraded = True
            elif call > 33:
                assert response.source == "model"
        assert saw_degraded
        assert server.health.state is HealthState.HEALTHY
        stats = server.stats()
        assert stats["health"] == "HEALTHY"
        assert stats["fallback_forecasts"] == model.injected_nans == 10
        assert stats["model_forecasts"] == 30
        assert stats["forecasts"] == 40

    def test_exceptions_fall_back_and_eventually_fail(self, rng):
        """A raising forward answers from the fallback; the health goes
        DEGRADED, FAILED after ``fail_threshold`` failures in a row, and
        climbs back one rung at a time once the model heals."""
        model = ChaosModel(make_model(rng), ChaosSpec(fail_every=1, stop_after=4))
        data = rng.standard_normal((LOOKBACK, ENTITIES))
        server = self.serve(model, data, fail_threshold=4, recover_after=2)
        for _ in range(3):
            response = server.forecast(ENTITY)
            assert np.isfinite(response.forecast).all()
            assert response.source == "fallback:persistence"
        assert server.health.state is HealthState.DEGRADED
        forecast = server.forecast(ENTITY).forecast
        assert server.health.state is HealthState.FAILED
        # Even a FAILED server keeps answering from the fallback.
        np.testing.assert_allclose(
            forecast, persistence_forecast(data, HORIZON)
        )
        assert "ChaosError" in server.health.transitions[0][2]
        # The model heals: FAILED -> DEGRADED -> HEALTHY.
        assert server.forecast(ENTITY).source == "model"
        assert server.health.state is HealthState.DEGRADED
        server.forecast(ENTITY)
        assert server.health.state is HealthState.HEALTHY
        assert model.injected_failures == 4

    def test_seasonal_fallback_tiles_last_season(self, rng):
        model = ChaosModel(make_model(rng), ChaosSpec(fail_every=1))
        data = rng.standard_normal((LOOKBACK, ENTITIES))
        server = self.serve(model, data, fallback="seasonal", seasonal_period=4)
        response = server.forecast(ENTITY)
        expected = seasonal_naive_forecast(data, HORIZON, 4)
        np.testing.assert_allclose(response.forecast, expected)
        np.testing.assert_allclose(expected[:4], data[-4:])
        assert response.source == "fallback:seasonal"

    def test_healthy_model_forecast_flagged_as_model(self, rng):
        server = self.serve(make_model(rng), rng.standard_normal((LOOKBACK, ENTITIES)))
        response = server.forecast(ENTITY)
        assert np.isfinite(response.forecast).all()
        assert response.source == "model"
        assert server.stats()["fallback_forecasts"] == 0
        assert server.health.state is HealthState.HEALTHY


class TestFallbackValidation:
    def test_seasonal_requires_period(self, rng):
        with pytest.raises(ValueError, match="seasonal_period"):
            ForecastServer(make_model(rng), ServingConfig(fallback="seasonal"))

    def test_unknown_fallback_rejected(self, rng):
        with pytest.raises(ValueError, match="fallback"):
            ForecastServer(make_model(rng), ServingConfig(fallback="oracle"))

    def test_seasonal_naive_degenerate_period_falls_back(self, rng):
        window = rng.standard_normal((8, 2))
        np.testing.assert_allclose(
            seasonal_naive_forecast(window, 4, period=99),
            persistence_forecast(window, 4),
        )

    def test_fallbacks_sanitize_poisoned_windows(self):
        window = np.full((6, 2), np.nan)
        assert np.isfinite(persistence_forecast(window, 3)).all()
        assert np.isfinite(seasonal_naive_forecast(window, 3, 2)).all()
