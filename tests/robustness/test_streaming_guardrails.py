"""Streaming guardrails: NaN policies, health machine, degraded forecasts."""

import numpy as np
import pytest

from repro.core import FOCUSConfig, FOCUSForecaster
from repro.core.streaming import ObservationRing, StreamingFOCUS
from repro.robustness import (
    ChaosError,
    ChaosModel,
    ChaosSpec,
    HealthMonitor,
    HealthState,
    apply_nan_policy,
    persistence_forecast,
    seasonal_naive_forecast,
)

LOOKBACK, HORIZON, ENTITIES = 24, 6, 3


def make_model(rng, k=4, p=6):
    config = FOCUSConfig(
        lookback=LOOKBACK, horizon=HORIZON, num_entities=ENTITIES,
        segment_length=p, num_prototypes=k, d_model=8, num_readout=2,
    )
    return FOCUSForecaster(config, prototypes=rng.standard_normal((k, p)))


class TestNanPolicies:
    def test_reject_drops_bad_rows(self, rng):
        stream = StreamingFOCUS(make_model(rng), nan_policy="reject")
        stream.observe_many(rng.standard_normal((LOOKBACK, ENTITIES)))
        window_before = stream._buffer
        bad = rng.standard_normal(ENTITIES)
        bad[1] = np.nan
        stream.observe(bad)
        assert stream.stats.rejected_observations == 1
        assert stream.stats.observations == LOOKBACK
        assert np.array_equal(stream._buffer, window_before)

    def test_reject_filters_rows_inside_block(self, rng):
        stream = StreamingFOCUS(make_model(rng), nan_policy="reject")
        block = rng.standard_normal((10, ENTITIES))
        block[3, 0] = np.inf
        block[7, 2] = np.nan
        stream.observe_many(block)
        assert stream.stats.observations == 8
        assert stream.stats.rejected_observations == 2
        clean = block[np.isfinite(block).all(axis=1)]
        assert np.array_equal(stream._buffer[-8:], clean)

    def test_impute_last_forward_fills_per_entity(self, rng):
        stream = StreamingFOCUS(make_model(rng), nan_policy="impute_last")
        first = np.array([1.0, 2.0, 3.0])
        stream.observe(first)
        bad = np.array([np.nan, 5.0, np.inf])
        stream.observe(bad)
        assert stream.stats.imputed_values == 2
        assert np.array_equal(stream._buffer[-1], [1.0, 5.0, 3.0])
        assert np.isfinite(stream._ring).all()

    def test_impute_last_without_history_uses_zero(self, rng):
        stream = StreamingFOCUS(make_model(rng), nan_policy="impute_last")
        stream.observe(np.array([np.nan, 1.0, np.nan]))
        assert np.array_equal(stream._buffer[-1], [0.0, 1.0, 0.0])

    def test_impute_prototype_uses_dictionary_mean(self, rng):
        model = make_model(rng)
        stream = StreamingFOCUS(model, nan_policy="impute_prototype")
        fill = float(np.mean(model.prototype_values()))
        stream.observe(np.array([np.nan, 7.0, 7.0]))
        assert stream._buffer[-1, 0] == pytest.approx(fill)
        assert np.array_equal(stream._buffer[-1, 1:], [7.0, 7.0])

    def test_unknown_policy_rejected(self, rng):
        with pytest.raises(ValueError, match="nan_policy"):
            StreamingFOCUS(make_model(rng), nan_policy="ostrich")

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
    def test_nan_injection_never_leaks_and_health_recovers(self, rng):
        """Acceptance: NaN model outputs every 3rd call -> forecast() stays
        finite 100% of the time, goes DEGRADED, and heals when the
        injection stops."""
        model = ChaosModel(
            make_model(rng), ChaosSpec(nan_every=3, stop_after=30)
        )
        stream = StreamingFOCUS(model, recover_after=3)
        stream.observe_many(rng.standard_normal((LOOKBACK, ENTITIES)))
        saw_degraded = False
        for call in range(1, 41):
            forecast = stream.forecast()
            assert np.isfinite(forecast).all(), f"non-finite forecast at call {call}"
            assert forecast.shape == (HORIZON, ENTITIES)
            if call <= 30 and call % 3 == 0:
                assert stream.stats.last_forecast_source == "fallback:persistence"
                assert stream.health is HealthState.DEGRADED
                saw_degraded = True
            elif call > 33:
                assert stream.stats.last_forecast_source == "model"
        assert saw_degraded
        assert stream.health is HealthState.HEALTHY
        assert stream.stats.health == "HEALTHY"
        assert stream.stats.model_failures == model.injected_nans == 10
        assert stream.stats.fallback_forecasts == 10
        assert stream.stats.forecasts == 40

    def test_exceptions_fall_back_and_eventually_fail(self, rng):
        model = ChaosModel(make_model(rng), ChaosSpec(fail_every=1))
        stream = StreamingFOCUS(model, fail_threshold=4)
        data = rng.standard_normal((LOOKBACK, ENTITIES))
        stream.observe_many(data)
        for _ in range(3):
            forecast = stream.forecast()
            assert np.isfinite(forecast).all()
        assert stream.health is HealthState.DEGRADED
        forecast = stream.forecast()
        assert stream.health is HealthState.FAILED
        # Even FAILED streams keep answering from the fallback.
        np.testing.assert_allclose(
            forecast, persistence_forecast(data, HORIZON)
        )
        assert "ChaosError" in stream._health.transitions[0][2]

    def test_seasonal_fallback_tiles_last_season(self, rng):
        model = ChaosModel(make_model(rng), ChaosSpec(fail_every=1))
        stream = StreamingFOCUS(
            model, fallback="seasonal", seasonal_period=4
        )
        data = rng.standard_normal((LOOKBACK, ENTITIES))
        stream.observe_many(data)
        forecast = stream.forecast()
        expected = seasonal_naive_forecast(data, HORIZON, 4)
        np.testing.assert_allclose(forecast, expected)
        np.testing.assert_allclose(expected[:4], data[-4:])
        assert stream.stats.last_forecast_source == "fallback:seasonal"

    def test_healthy_model_forecast_flagged_as_model(self, rng):
        stream = StreamingFOCUS(make_model(rng))
        stream.observe_many(rng.standard_normal((LOOKBACK, ENTITIES)))
        forecast = stream.forecast()
        assert np.isfinite(forecast).all()
        assert stream.stats.last_forecast_source == "model"
        assert stream.stats.fallback_forecasts == 0
        assert stream.health is HealthState.HEALTHY


class TestFallbackValidation:
    def test_seasonal_requires_period(self, rng):
        with pytest.raises(ValueError, match="seasonal_period"):
            StreamingFOCUS(make_model(rng), fallback="seasonal")

    def test_unknown_fallback_rejected(self, rng):
        with pytest.raises(ValueError, match="fallback"):
            StreamingFOCUS(make_model(rng), fallback="oracle")

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
