"""Drift-monitor unit tests and the forecaster's assignment profile."""

import numpy as np
import pytest

from repro.core import FOCUSConfig, FOCUSForecaster
from repro.telemetry import (
    DriftConfig,
    DriftMonitor,
    MetricsRegistry,
    RunLogger,
    assignment_entropy,
    total_variation,
)

LOOKBACK, HORIZON, ENTITIES = 24, 6, 3


def make_model(rng, k=4, p=6):
    config = FOCUSConfig(
        lookback=LOOKBACK, horizon=HORIZON, num_entities=ENTITIES,
        segment_length=p, num_prototypes=k, d_model=8, num_readout=2,
    )
    return FOCUSForecaster(config, prototypes=rng.standard_normal((k, p)))


class TestStatistics:
    def test_entropy_uniform_is_one_collapsed_is_zero(self):
        assert assignment_entropy(np.array([5, 5, 5, 5])) == pytest.approx(1.0)
        assert assignment_entropy(np.array([10, 0, 0, 0])) == pytest.approx(0.0)
        assert assignment_entropy(np.array([0, 0])) == 0.0
        assert assignment_entropy(np.array([7])) == 0.0  # single class

    def test_total_variation_bounds(self):
        same = np.array([3, 3])
        assert total_variation(same, same * 10) == pytest.approx(0.0)
        assert total_variation(np.array([1, 0]), np.array([0, 1])) == pytest.approx(1.0)
        assert total_variation(np.array([0, 0]), np.array([1, 1])) == 0.0


class TestDriftMonitor:
    def config(self, **overrides):
        defaults = dict(
            window=4, baseline_forecasts=2, threshold=0.3, alarm_streak=2,
            min_segments=4,
        )
        defaults.update(overrides)
        return DriftConfig(**defaults)

    def test_baseline_auto_captured_then_frozen(self):
        monitor = DriftMonitor(2, self.config())
        monitor.observe([0, 0, 1])
        assert monitor.baseline is None
        monitor.observe([0, 0, 1])
        np.testing.assert_array_equal(monitor.baseline, [4, 2])
        monitor.observe([1, 1, 1])
        np.testing.assert_array_equal(monitor.baseline, [4, 2])  # unchanged

    def test_stable_stream_never_alarms(self):
        monitor = DriftMonitor(2, self.config())
        for _ in range(20):
            result = monitor.observe([0, 0, 1])
            assert not result["alarmed"]
        assert monitor.alarms == 0
        assert monitor.last_drift < 0.3

    def test_shifted_stream_alarms_after_streak(self):
        monitor = DriftMonitor(2, self.config())
        for _ in range(4):
            monitor.observe([0, 0, 1])
        fired_at = []
        for step in range(8):
            if monitor.observe([1, 1, 1])["alarmed"]:
                fired_at.append(step)
        assert fired_at, "shifted assignments must eventually alarm"
        assert fired_at[0] >= 1  # debounced: not on the first drifted forecast
        assert monitor.alarmed
        assert monitor.alarms >= 1

    def test_explicit_baseline_and_validation(self):
        monitor = DriftMonitor(3, self.config())
        monitor.set_baseline(np.array([5, 5, 0]))
        np.testing.assert_array_equal(monitor.baseline, [5, 5, 0])
        with pytest.raises(ValueError, match="shape"):
            monitor.set_baseline(np.array([1, 2]))
        with pytest.raises(ValueError, match="at least one"):
            monitor.set_baseline(np.array([0, 0, 0]))
        with pytest.raises(ValueError):
            DriftMonitor(0)

    def test_alarm_resets_when_drift_subsides(self):
        monitor = DriftMonitor(2, self.config(alarm_streak=1))
        for _ in range(4):
            monitor.observe([0, 0, 0])
        for _ in range(4):
            monitor.observe([1, 1, 1])
        assert monitor.alarmed
        for _ in range(10):
            monitor.observe([0, 0, 0])
        assert not monitor.alarmed

    def test_reset_rearms_baseline_preserving_counters(self):
        monitor = DriftMonitor(2, self.config())
        for _ in range(4):
            monitor.observe([0, 0, 1])
        for _ in range(6):
            monitor.observe([1, 1, 1])
        assert monitor.alarmed
        alarms_before = monitor.alarms
        utilization_before = monitor.utilization.copy()
        assert utilization_before.sum() > 0

        monitor.reset()
        # Debounce and baseline are re-armed...
        assert not monitor.alarmed
        assert monitor.baseline is None
        assert monitor.last_drift == 0.0
        assert monitor.forecasts_seen == 0
        # ...but cumulative counters survive the swap.
        assert monitor.alarms == alarms_before
        np.testing.assert_array_equal(monitor.utilization, utilization_before)

        # The post-swap distribution becomes the new baseline: traffic
        # that would have re-fired against the old baseline is now clean.
        for _ in range(10):
            result = monitor.observe([1, 1, 1])
            assert not result["alarmed"]
        np.testing.assert_array_equal(monitor.baseline, [0, 6])

    def test_reset_with_explicit_baseline(self):
        monitor = DriftMonitor(2, self.config())
        monitor.observe([0, 0, 1])
        monitor.reset(baseline=np.array([1, 9]))
        np.testing.assert_array_equal(monitor.baseline, [1, 9])

    def test_empty_observation_is_noop(self):
        monitor = DriftMonitor(2, self.config())
        monitor.observe([0, 0, 1])
        seen = monitor.forecasts_seen
        utilization = monitor.utilization.copy()
        result = monitor.observe([])
        assert not result["alarmed"]
        assert result["reason"] is None
        np.testing.assert_array_equal(result["counts"], [0, 0])
        # Nothing advanced: no baseline-capture progress, no counts.
        assert monitor.forecasts_seen == seen
        np.testing.assert_array_equal(monitor.utilization, utilization)
        assert monitor.baseline is None  # still one short of capture

    def test_metrics_and_events_recorded(self, tmp_path):
        registry = MetricsRegistry()
        logger = RunLogger.to_dir(tmp_path)
        reasons = []
        monitor = DriftMonitor(
            2, self.config(), registry=registry,
            on_alarm=reasons.append, run_logger=logger,
        )
        for _ in range(4):
            monitor.observe([0, 0, 1])
        for _ in range(6):
            monitor.observe([1, 1, 1])
        logger.close()
        assert reasons and "drift" in reasons[0]
        assert registry.value("focus_drift_alarms_total") >= 1
        assert registry.value(
            "focus_prototype_assignments_total", labels={"prototype": "1"}
        ) > 0
        assert registry.value("focus_assignment_drift") > 0.3
        from repro.telemetry import read_events

        alarm_events = [
            event for event in read_events(tmp_path)
            if event["type"] == "drift_alarm"
        ]
        assert alarm_events
        assert alarm_events[0]["metric"] == "assignment_tv"
        assert alarm_events[0]["value"] > 0.3


class TestForecasterProfile:
    def test_assignment_profile_shape_and_counts(self, rng):
        model = make_model(rng)
        window = rng.standard_normal((LOOKBACK, ENTITIES))
        profile = model.assignment_profile(window)
        k = model.config.num_prototypes
        assert profile["counts"].shape == (k,)
        assert profile["counts"].sum() == len(profile["assignments"])
        assert 0.0 <= profile["entropy"] <= 1.0
        assert profile["mean_distance"] >= 0.0
